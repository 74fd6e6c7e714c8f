"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Rounds run in real child processes, on inputs small enough to finish in a
few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "search": [[3, 3, "f4"], [3, 4, "f2"], [4, 2, "f3"]],
    "verify": [[theorem, workloads.VERIFY_TRIALS, max_n, seed]
               for seed, (theorem, max_n) in enumerate(workloads.VERIFY_THEOREMS)],
    "roundtrip": workloads.round_spec("roundtrip", workloads.DEFAULT_SEED, 0)["items"][:24],
}


def child(workload, items, trace=False):
    return run.run_child({"workload": workload, "items": items, "trace": trace, "spans_path": None})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_rounds_agree_and_start_cold(workload):
    plain = child(workload, SMALL[workload])
    traced = child(workload, SMALL[workload], trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["outputs_sha256"] == traced["outputs_sha256"]
    assert plain["cache_start"] == traced["cache_start"] == [0, 0]
    assert plain["layers"] is None
    layers = traced["layers"]
    if workload == "verify":
        assert layers["matrices.det_bareiss.calls"] > 0
        assert "graph_polys.poly_of.calls" not in layers
        assert layers["graph_polys.cache.misses"] == 0
    else:
        # Calls made through names bound in other modules are seen too.
        assert layers["graph_polys.poly_of.calls"] > 0
        assert layers["graph_polys.cache.misses"] > 0
        assert layers.get("matrices.det_bareiss.calls", 0) + layers.get("matrices.per_ryser.calls", 0) > 0
    if workload == "search":
        # One deck and one poly_of call per digraph, made through the names
        # `search` imported, and m poly_of calls inside each deck.
        digraphs = sum(map(workloads.search_ops, SMALL["search"]))
        assert layers["digraphs.enumerate_digraphs.yielded"] == layers["graph_polys.deck.calls"] == digraphs
        assert layers["graph_polys.poly_of.calls"] == sum(
            workloads.search_ops(cell) * (cell[1] + 1) for cell in SMALL["search"])
        assert layers["graph_polys.cache.hits"] > 0


def test_weighted_single_arc_with_beta_counts_as_failed_op():
    defect = {"n": 3, "arcs": [[0, 1]], "weights": ["5"], "kind": "f2"}
    control = {"n": 3, "arcs": [[0, 1]], "weights": None, "kind": "f2"}
    result = child("roundtrip", [defect, control], trace=True)
    assert result["failed"] == 1
    assert result["problems"] == []
    assert result["layers"]["reconstruct.outcome.missed"] == 1
    assert result["layers"]["reconstruct.outcome.recovered"] == 1
    values, details = run.end_to_end([result], setup_s=0.1)
    assert (details["attempted"], details["failed"], details["failed_frac"]) == (2, 1, 0.5)
    assert values["ok_frac"] == 0.5


def test_output_mismatch_is_reported():
    result = child("search", [[3, 2, "f1"]])
    assert result["failed"] == workloads.search_ops((3, 2, "f1"))
    assert result["problems"] == ["search 3,2,f1: no recorded digest"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail(range(1, 101)) == (90, 90.0, 10)
    assert workloads.tail([5] * 10 + [1]) == (1, 100 / 11, 10)
    assert workloads.tail(range(10)) == (9, 100.0, 0)
    rounds = [{"ops": 5, "failed": 0, "work_s": 1.0, "raw_work_s": 1.0, "maxrss_kb": 1024,
               "latencies_ms": list(range(k, 100, 4))} for k in range(4)]
    values, details = run.end_to_end(rounds, setup_s=0.1)
    assert values["op_tail_ms"] == 89
    assert (details["latency_samples"], details["tail_percentile"], details["tail_samples_beyond"]) == (100, 90.0, 10)


def test_round_specs_depend_only_on_their_arguments():
    for workload in workloads.WORKLOADS:
        assert workloads.round_spec(workload, 7, 1) == workloads.round_spec(workload, 7, 1)
    assert workloads.round_spec("verify", 7, 1) != workloads.round_spec("verify", 8, 1)
    assert workloads.round_spec("roundtrip", 7, 1) != workloads.round_spec("roundtrip", 7, 2)


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run([sys.executable, *command[1:], "--workload", "search", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
