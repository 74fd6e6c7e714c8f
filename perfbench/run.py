"""deckpoly benchmark.

    python3 perfbench/run.py --workload search|verify|roundtrip|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from
its src/. Each round runs in a fresh child process (child.py), so the
process-wide poly_of cache starts cold, as it does for every CLI
invocation. With --trace 0 the last stdout line holds the end-to-end
metrics. With --trace 1 the same rounds run once untraced and once traced,
and it holds the per-layer metrics. Exit status: 0 when every output
check passed, 1 when one failed, 2 when the checkout has no deckpoly
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 11
SETUP_WARMUP_SPAWNS = 2
CHILD_TIMEOUT_S = 150

# (what ops_per_s counts, what one latency sample is). Latency is per CLI
# invocation on search and verify, the wait a CLI user sees.
OPS = {
    "search": ("labelled digraph covered", "search invocation"),
    "verify": ("identity trial", "verify invocation"),
    "roundtrip": ("digraph round-tripped", "digraph round-tripped"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing deckpoly:
    (scaled by the reference timed just before and after each spawn, raw).

    The first spawns are untimed: they compile bytecode and warm the
    file cache, which a user pays once, not per invocation. No timeout:
    with one, subprocess polls the child with sleeps of up to 50 ms, and
    the samples snap to those polls.
    """
    argv = [sys.executable, "-c", "import deckpoly"]
    scaled, raw = [], []
    for i in range(SETUP_WARMUP_SPAWNS + SETUP_SPAWNS):
        before = workloads.reference_seconds()
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True)
        seconds = perf_counter() - start
        after = workloads.reference_seconds()
        if i >= SETUP_WARMUP_SPAWNS:
            raw.append(seconds)
            scaled.append(seconds * 2 * workloads.REFERENCE_S / (before + after))
    return statistics.median(scaled), statistics.median(raw)


def run_child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")], input=json.dumps(spec), capture_output=True,
        text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child for {spec['workload']} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_rounds(workload: str, seed: int, rounds: int, trace: bool) -> list[dict]:
    results = []
    for rnd in range(rounds):
        spec = workloads.round_spec(workload, seed, rnd)
        spec["trace"] = trace
        spec["spans_path"] = str(OUT / f"spans-{workload}-{rnd}.json") if trace else None
        results.append(run_child(spec))
    return results


def sum_layers(per_round: list[dict]) -> dict:
    """Per-run layer stats: sums, except maxima and the cache hit ratio."""
    total: dict[str, float] = {}
    for layers in per_round:
        for name, value in layers.items():
            if name.endswith(".max_order") or name == "graph_polys.cache.size":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    lookups = total.get("graph_polys.cache.hits", 0) + total.get("graph_polys.cache.misses", 0)
    total["graph_polys.cache.hit_ratio"] = total.get("graph_polys.cache.hits", 0) / lookups if lookups else 0.0
    return total


def end_to_end(results: list[dict], setup_s: float) -> tuple[dict, dict]:
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    latencies = [t for r in results for t in r["latencies_ms"]]
    tail_ms, tail_pct, beyond = workloads.tail(latencies)
    values = {
        "ops_per_s": attempted / sum(r["work_s"] for r in results),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    details = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "raw_ops_per_s": attempted / sum(r["raw_work_s"] for r in results),
        "latency_samples": len(latencies),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_spawns": SETUP_SPAWNS,
    }
    return values, details


def source_info() -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(), "loc_src": loc}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One workload run; returns the result record."""
    rounds = workloads.rounds_for(workload, seconds)
    setup_s, raw_setup_s = (0.0, 0.0) if trace else measure_setup()
    plain = run_rounds(workload, seed, rounds, trace=False)
    problems = [p for r in plain for p in r["problems"]]
    values, details = end_to_end(plain, setup_s)
    details["raw_setup_s"] = raw_setup_s
    if trace:
        traced = run_rounds(workload, seed, rounds, trace=True)
        problems += [p for r in traced for p in r["problems"]]
        problems += [f"round {i}: traced outputs differ from untraced"
                     for i, (a, b) in enumerate(zip(plain, traced))
                     if a["outputs_sha256"] != b["outputs_sha256"]]
        layers = sum_layers([r["layers"] for r in traced])
        layers["trace.overhead_frac"] = (sum(r["work_s"] for r in traced)
                                         / sum(r["work_s"] for r in plain) - 1)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "op": OPS[workload][0],
        "latency_op": OPS[workload][1],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **source_info(),
        **details,
        "problems": problems,
        "correct": not problems,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed; default {workloads.DEFAULT_SEED}, "
                             f"held-out {workloads.HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deckpoly" / "__init__.py").is_file():
        print(f"error: no deckpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in names:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
            records.append(record)
            path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            for problem in record["problems"]:
                print(f"FAILED CHECK {workload}: {problem}", file=sys.stderr)
            for name, metric in record["metrics"].items():
                print(f"{workload} {name} = {metric['value']} {metric['unit']}")
            print(json.dumps({k: v for k, v in record.items() if k != "metrics"}, sort_keys=True))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
