"""Run one benchmark round in this fresh process and print its result.

Reads a round spec from stdin (see workloads.round_spec) extended with
"trace" (bool) and "spans_path" (str or null), and prints one JSON
object. Only the deckpoly calls are timed; building inputs and checking
outputs happen outside the timed region.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(ROOT / "src"))

import deckpoly  # noqa: E402
from deckpoly import cli, polynomials, serialize  # noqa: E402
from deckpoly.graph_polys import _poly_of_cached  # noqa: E402
from deckpoly.reconstruct import OneParameterFamily, Unique  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_S, reference, search_ops  # noqa: E402


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


# A SIGALRM every REFERENCE_EVERY_S runs the reference between two
# bytecodes of whatever is executing. Op times exclude those interruptions,
# and each op's time is scaled by REFERENCE_S / (mean reference time during
# the op and just before and after it). On a 2-core shared host this cut
# the spread of repeated (4, 4, f1) searches from 38% to 5% of their median.
REFERENCE_EVERY_S = 0.05


class Timer:
    """Times ops on a clock that stops while the reference runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, seconds)
        self.paused = 0.0
        self.ops: list[tuple[float, float, float]] = []  # (start, end, seconds less the reference)

    def clock(self) -> float:
        return perf_counter() - self.paused

    def _sample(self, *_) -> None:
        start = perf_counter()
        reference()
        seconds = perf_counter() - start
        self.samples.append((start, seconds))
        self.paused += seconds

    def __enter__(self):
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def time(self, fn, *args):
        start, begin = perf_counter(), self.clock()
        result = fn(*args)
        self.ops.append((start, perf_counter(), self.clock() - begin))
        return result

    def scaled(self) -> list[float]:
        """Each op's seconds in reference seconds."""
        starts = [start for start, _ in self.samples]
        out = []
        for start, end, seconds in self.ops:
            lo = bisect.bisect_left(starts, start) - 1
            hi = bisect.bisect_right(starts, end) + 1
            out.append(seconds * REFERENCE_S / statistics.fmean(s for _, s in self.samples[lo:hi]))
        return out


def _cli(timer: Timer, argv) -> tuple[int, str]:
    """One `deckpoly` invocation: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = timer.time(cli.main, argv)
    return code, buf.getvalue()


# Each run_* returns (ops per item, outputs per item).

def run_search(timer: Timer, items):
    ops, outputs = [], []
    for n, m, kind in items:
        path = OUT / f"search-{n}-{m}-{kind}.ndjson"
        code, stdout = _cli(timer, ["search", "--vertices", str(n), "--arcs", str(m),
                                    "--kind", kind, "--output", str(path)])
        ops.append(search_ops((n, m, kind)))
        outputs.append((code, stdout, path.read_text(encoding="utf-8") if code == 0 else ""))
    return ops, outputs


def run_verify(timer: Timer, items):
    ops, outputs = [], []
    for theorem, trials, max_n, seed in items:
        code, stdout = _cli(timer, ["verify", "--theorem", theorem, "--trials", str(trials),
                                    "--max-n", str(max_n), "--seed", str(seed)])
        ops.append(trials)
        outputs.append((code, stdout))
    return ops, outputs


def load_digraph(item):
    g = serialize.digraph_from_obj({k: item[k] for k in ("n", "arcs", "weights")})
    deckpoly.validate(g)
    return g, deckpoly.parse_kind(item["kind"])


def round_trip(g, kind):
    """deck, the CLI's JSON file hop, then reconstruct."""
    d = deckpoly.deck(g, kind)
    text = serialize.to_canonical_json(serialize.deck_to_obj(d))
    return text, deckpoly.reconstruct(serialize.deck_from_obj(json.loads(text)))


def run_roundtrip(timer: Timer, items):
    instances = [load_digraph(item) for item in items]
    return [1] * len(items), [timer.time(round_trip, g, kind) for g, kind in instances]


def check_search(items, ops, outputs, digests):
    """Outputs must match the seed commit's bytes and show the paper's
    structure: group members differ only at coefficient n - m, and there
    are no groups when m > n."""
    failed, problems = 0, []
    for (n, m, kind), count, (code, stdout, ndjson) in zip(items, ops, outputs):
        cell = f"{n},{m},{kind}"
        bad = []
        want = digests["search"].get(cell)
        if code != 0:
            bad.append(f"exit code {code}")
        elif want is None:
            bad.append("no recorded digest")
        elif want != {"stdout": _sha(stdout), "ndjson": _sha(ndjson)}:
            bad.append("output differs from the recorded digest")
        groups = [json.loads(line) for line in ndjson.splitlines()]
        if m > n and groups:
            bad.append(f"{len(groups)} groups with m > n")
        for group in groups:
            polys = [member["poly"] for member in group["members"]]
            diff = {k for p in polys for k, c in enumerate(p) if c != polys[0][k]}
            if len(polys) < 2 or not diff <= {n - m}:
                bad.append(f"group members differ at coefficients {sorted(diff)}")
        if bad:
            failed += count
            problems.append(f"search {cell}: " + "; ".join(bad))
    return failed, problems


def normalized_verify(stdout: str, seed: int) -> str:
    """The summary with its echoed seed replaced by 0, so one digest covers every seed."""
    token = f'"seed":{seed},'
    if stdout.count(token) != 1:
        raise ValueError("seed not echoed exactly once")
    return stdout.replace(token, '"seed":0,')


def check_verify(items, ops, outputs, digests):
    failed, problems = 0, []
    for (theorem, trials, max_n, seed), count, (code, stdout) in zip(items, ops, outputs):
        key = f"{theorem},{trials},{max_n}"
        try:
            ok = code == 0 and _sha(normalized_verify(stdout, seed)) == digests["verify"].get(key)
        except ValueError:
            ok = False
        if not ok:
            failed += count
            problems.append(f"verify {key} seed {seed}: exit {code}, summary differs from the recorded digest")
    return failed, problems


def is_known_defect(g, kind, result, expected) -> bool:
    """The trace-rule defect: a weighted single arc with beta != 0 comes back
    `Unique` with -beta*m at coefficient n-1 instead of -beta*w."""
    if not (g.m == 1 and g.weights is not None and kind.beta != 0 and isinstance(result, Unique)
            and len(result.poly) == len(expected)):
        return False
    return [k for k, (a, b) in enumerate(zip(result.poly, expected)) if a != b] == [g.n - 1]


def check_roundtrip(items, outputs):
    """Each result against poly_of of the source digraph, and poly_of against
    the symbolic oracle for n <= 7."""
    failed, problems = 0, []
    outcomes = {"recovered": 0, "covered": 0, "missed": 0}
    for item, (text, result) in zip(items, outputs):
        g, kind = load_digraph(item)
        expected = deckpoly.poly_of(g, kind)
        label = f"roundtrip n={g.n} m={g.m} {item['kind']} weighted={g.weights is not None}"
        if g.n <= 7 and deckpoly.poly_of_oracle(g, kind) != expected:
            failed += 1
            problems.append(f"{label}: poly_of disagrees with poly_of_oracle")
            continue
        if isinstance(result, Unique) and result.poly == expected:
            outcome = "recovered"
        elif isinstance(result, OneParameterFamily) and all(
                c == 0 for k, c in enumerate(polynomials.sub(expected, result.base))
                if k != result.free_exponent):
            outcome = "covered"
        else:
            outcome = "missed"
        outcomes[outcome] += 1
        if outcome == "missed":
            failed += 1
            if not is_known_defect(g, kind, result, expected):
                problems.append(f"{label}: {serialize.result_to_obj(result)}")
    return failed, problems, outcomes


def output_bytes(workload, outputs) -> str:
    if workload == "search":
        return "".join(f"{code}\n{stdout}{ndjson}" for code, stdout, ndjson in outputs)
    if workload == "verify":
        return "".join(f"{code}\n{stdout}" for code, stdout in outputs)
    return "".join(text + "\n" + serialize.to_canonical_json(serialize.result_to_obj(result)) + "\n"
                   for text, result in outputs)


RUNNERS = {"search": run_search, "verify": run_verify, "roundtrip": run_roundtrip}


def run_round(spec: dict) -> dict:
    workload, items = spec["workload"], spec["items"]
    info = _poly_of_cached.cache_info()
    cache_start = [info.hits, info.misses]
    timer = Timer()
    tracer = Tracer(timer.clock) if spec.get("trace") else None
    if tracer:
        tracer.install()
    try:
        with timer:
            ops, outputs = RUNNERS[workload](timer, items)
    finally:
        if tracer:
            tracer.uninstall()
    times = timer.scaled()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = _poly_of_cached.cache_info()

    outcomes = {}
    if workload == "roundtrip":
        failed, problems, outcomes = check_roundtrip(items, outputs)
    else:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        check = check_search if workload == "search" else check_verify
        failed, problems = check(items, ops, outputs, digests)
    if cache_start != [0, 0]:
        problems.append(f"poly_of cache not cold at start: hits, misses = {cache_start}")

    layers = None
    if tracer:
        layers = tracer.layer_stats()
        layers.update({
            "graph_polys.cache.hits": info.hits,
            "graph_polys.cache.misses": info.misses,
            "graph_polys.cache.size": info.currsize,
        })
        layers.update({f"reconstruct.outcome.{k}": v for k, v in outcomes.items()})
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    return {
        "ops": sum(ops),
        "work_s": sum(times),
        "raw_work_s": sum(seconds for _, _, seconds in timer.ops),
        "latencies_ms": [t * 1000 for t in times],
        "failed": failed,
        "problems": problems,
        "outputs_sha256": _sha(output_bytes(workload, outputs)),
        "cache_start": cache_start,
        "maxrss_kb": maxrss_kb,
        "layers": layers,
    }


def main() -> int:
    if not Path(deckpoly.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported deckpoly from {deckpoly.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run_round(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
