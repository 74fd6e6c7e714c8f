"""Seeded inputs for the deckpoly benchmark workloads, the latency
statistics it reports, and the reference computation its times are
scaled by.

Nothing here imports deckpoly: the parent process only builds round specs
and aggregates results, and every round runs in a fresh child.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from math import comb
from time import perf_counter

WORKLOADS = ("search", "verify", "roundtrip")

# Later performance claims must hold on both seeds.
DEFAULT_SEED = 2305
HELD_OUT_SEED = 7913

# Seconds one round took on the seed code (2-core shared host, Python 3.11).
# A run does round(seconds / ROUND_SECONDS) rounds, so every run of one
# workload at one --seconds does the same work: per-layer counts repeat
# exactly and the tail percentile always has the same sample count.
ROUND_SECONDS = {"search": 4.0, "verify": 4.0, "roundtrip": 3.0}

# Exhaustive `deckpoly search` cells (n, m, kind): both modes, and m < n,
# m = n and m > n. No seed: the sweep is the same on every run.
SEARCH_CELLS = (
    (3, 3, "f4"),
    (3, 4, "f2"),
    (4, 2, "f3"),
    (4, 3, "f2"),
    (4, 3, "f6"),
    (4, 4, "f1"),
    (4, 5, "f4"),
    (5, 2, "f4"),
)

# `deckpoly verify` per round: each (theorem, max_n) runs VERIFY_RUNS times
# with VERIFY_TRIALS trials and its own seed drawn from the workload seed.
VERIFY_THEOREMS = (("2.1", 6), ("2.2", 7), ("2.3", 6))
VERIFY_TRIALS = 100
VERIFY_RUNS = 7

# Round-trip kinds: the six named ones plus a general kind with
# non-integer beta and gamma.
ROUNDTRIP_KINDS = ("f1", "f2", "f3", "f4", "f5", "f6", "general:1/2,-3/2,det")
# Every kind gets each small (n, m) shape, weighted and unweighted; the
# m = 1 weighted instances of the beta != 0 kinds hit the known trace-rule
# defect and stay in the mix on purpose.
ROUNDTRIP_SMALL_N = (3, 4, 5)
# One larger instance per kind and round ...
ROUNDTRIP_MEDIUM = {"det": (8, 16), "per": (7, 14)}
# ... and one instance near the size caps: det in even rounds, per in odd
# ones, rotating through shapes and kinds. Fewer than ten of them per run,
# so the tail percentile falls among the medium instances, not on a
# handful of seed-dependent giants.
ROUNDTRIP_LARGE = {
    "det": ((16, 16), (12, 36), (16, 8), (14, 28)),
    "per": ((10, 10), (9, 27), (10, 5), (9, 18)),
}
DET_KINDS = ("f1", "f2", "f3", "general:1/2,-3/2,det")
PER_KINDS = ("f4", "f5", "f6")


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def search_ops(cell) -> int:
    """Labelled digraphs a cell covers: the problem size, not the work done."""
    n, m, _ = cell
    return comb(n * (n - 1), m)


def round_spec(workload: str, seed: int, rnd: int) -> dict:
    """The inputs of round `rnd` of a run, a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    if workload == "search":
        items = [list(cell) for cell in SEARCH_CELLS]
    elif workload == "verify":
        items = [
            [theorem, VERIFY_TRIALS, max_n, rng.randrange(2**31)]
            for _ in range(VERIFY_RUNS)
            for theorem, max_n in VERIFY_THEOREMS
        ]
    elif workload == "roundtrip":
        items = _roundtrip_items(rng, rnd)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "items": items}


def _weight(rng: random.Random) -> str:
    # Nonzero and never 1: a unit weight is the unweighted case.
    while True:
        num, den = rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9)
        if num != den:
            return f"{num}/{den}"


def random_digraph(rng: random.Random, n: int, m: int, weighted: bool, kind: str) -> dict:
    slots = [(s, t) for s in range(n) for t in range(n) if s != t]
    arcs = sorted(rng.sample(slots, min(m, len(slots))))
    return {
        "n": n,
        "arcs": [list(a) for a in arcs],
        "weights": [_weight(rng) for _ in arcs] if weighted else None,
        "kind": kind,
    }


def _roundtrip_items(rng: random.Random, rnd: int) -> list[dict]:
    items = []
    for kind in ROUNDTRIP_KINDS:
        mode = "per" if kind in PER_KINDS else "det"
        for n in ROUNDTRIP_SMALL_N:
            for m in (1, n, n + 1, 3 * n):
                for weighted in (False, True):
                    items.append(random_digraph(rng, n, m, weighted, kind))
        n, m = ROUNDTRIP_MEDIUM[mode]
        items.append(random_digraph(rng, n, m, rnd % 2 == 1, kind))
    mode, kinds = (("det", DET_KINDS), ("per", PER_KINDS))[rnd % 2]
    turn = rnd // 2
    n, m = ROUNDTRIP_LARGE[mode][turn % len(ROUNDTRIP_LARGE[mode])]
    items.append(random_digraph(rng, n, m, turn % 2 == 0, kinds[turn % len(kinds)]))
    return items


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or fewer
    no such percentile exists, and the maximum is reported with none beyond.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


# The host's CPU speed drifts by up to 2x within seconds, so raw times from
# two runs are not comparable. Every reported time is scaled by
# REFERENCE_S / (time of `reference()` measured around it): it is in
# seconds of a machine that runs the reference in REFERENCE_S.
REFERENCE_S = 0.002


def reference() -> Fraction:
    """A fixed Fraction computation, close to deckpoly's own work."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return acc


def reference_seconds() -> float:
    """Median time of three runs of the reference."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return statistics.median(times)
