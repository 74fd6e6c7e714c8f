"""CLI surface: flags, file wiring, exit codes, byte-deterministic output."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from deckpoly import graph_polys, identities
from deckpoly import matrices as mx
from deckpoly import search, serialize
from deckpoly.cli import COMMANDS, main
from deckpoly.digraphs import Digraph
from deckpoly.graph_polys import PolyKind
from deckpoly.serialize import load_json

C3 = {"format_version": 1, "n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}
C4 = {"format_version": 1, "n": 4, "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]]}
EMPTY3 = {"format_version": 1, "n": 3, "arcs": []}
SINGLE_ARC = {"format_version": 1, "n": 2, "arcs": [[0, 1]]}
STAR = {"format_version": 1, "n": 3, "arcs": [[0, 1], [1, 0], [0, 2], [2, 0]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_cycle_characteristic(tmp_path, capsys):
    path = write(tmp_path, "c3.json", C3)
    code, out, _ = run(capsys, "compute", "--kind", "f1", "--input", path)
    assert code == 0
    assert json.loads(out) == ["-1", "0", "0", "1"]


def test_compute_empty_digraph_permanental_laplacian(tmp_path, capsys):
    path = write(tmp_path, "e3.json", EMPTY3)
    code, out, _ = run(capsys, "compute", "--kind", "f5", "--input", path)
    assert code == 0
    assert json.loads(out) == ["0", "0", "0", "1"]


def test_compute_single_arc_laplacian(tmp_path, capsys):
    path = write(tmp_path, "one.json", SINGLE_ARC)
    code, out, _ = run(capsys, "compute", "--kind", "f2", "--input", path)
    assert code == 0
    assert json.loads(out) == ["0", "-1", "1"]


def test_compute_general_kind_matches_named(tmp_path, capsys):
    path = write(tmp_path, "c3.json", C3)
    _, named, _ = run(capsys, "compute", "--kind", "f3", "--input", path)
    _, general, _ = run(capsys, "compute", "--kind", "general:1,1,det", "--input", path)
    assert named == general


def test_compute_rejects_invalid_digraph(tmp_path, capsys):
    path = write(tmp_path, "loop.json", {"n": 1, "arcs": [[0, 0]]})
    code, out, err = run(capsys, "compute", "--kind", "f1", "--input", path)
    assert code == 2
    assert out == ""
    assert "loop" in err


def test_compute_rejects_unknown_kind_and_missing_file(tmp_path, capsys):
    path = write(tmp_path, "c3.json", C3)
    code, _, err = run(capsys, "compute", "--kind", "f9", "--input", path)
    assert code == 2 and "kind" in err
    code, _, err = run(capsys, "compute", "--kind", "f1", "--input",
                       str(tmp_path / "missing.json"))
    assert code == 2 and err


def test_deck_writes_canonical_file(tmp_path, capsys):
    path = write(tmp_path, "c4.json", C4)
    out_path = str(tmp_path / "deck.json")
    code, _, _ = run(capsys, "deck", "--kind", "f1", "--input", path,
                     "--output", out_path)
    assert code == 0
    obj = load_json(out_path)
    assert obj["format_version"] == 1
    assert obj["kind"] == "f1"
    assert obj["polys"] == [["0", "0", "0", "0", "1"]] * 4


def test_deck_of_digon(tmp_path, capsys):
    path = write(tmp_path, "digon.json",
                 {"format_version": 1, "n": 2, "arcs": [[0, 1], [1, 0]]})
    out_path = str(tmp_path / "deck.json")
    run(capsys, "deck", "--kind", "f1", "--input", path, "--output", out_path)
    assert load_json(out_path)["polys"] == [["0", "0", "1"]] * 2


def test_reconstruct_exit_codes(tmp_path, capsys):
    star = write(tmp_path, "star.json", STAR)
    c4 = write(tmp_path, "c4.json", C4)
    star_deck = str(tmp_path / "sd.json")
    c4_f1_deck = str(tmp_path / "cd1.json")
    c4_f2_deck = str(tmp_path / "cd2.json")
    run(capsys, "deck", "--kind", "f1", "--input", star, "--output", star_deck)
    run(capsys, "deck", "--kind", "f1", "--input", c4, "--output", c4_f1_deck)
    run(capsys, "deck", "--kind", "f2", "--input", c4, "--output", c4_f2_deck)

    code, out, _ = run(capsys, "reconstruct", "--deck", star_deck)
    assert code == 0
    assert json.loads(out) == {"result": "unique", "poly": ["0", "-2", "0", "1"]}

    code, out, _ = run(capsys, "reconstruct", "--deck", c4_f1_deck)
    assert code == 3
    assert json.loads(out) == {
        "result": "one_parameter_family",
        "base": ["0", "0", "0", "0", "1"],
        "free_exponent": 0,
    }

    code, out, _ = run(capsys, "reconstruct", "--deck", c4_f2_deck)
    assert code == 0
    assert json.loads(out)["result"] == "unique"


@pytest.mark.parametrize("n, kind", [(17, "f4"), (65, "f1")])
def test_deck_above_the_size_cap_is_a_clean_error(tmp_path, capsys, n, kind):
    path = write(tmp_path, "big.json", {"format_version": 1, "n": n, "arcs": [[0, 1]]})
    out_path = tmp_path / "deck.json"
    code, out, err = run(capsys, "deck", "--kind", kind, "--input", path,
                         "--output", str(out_path))
    assert code == 2 and out == "" and f"capped at {n - 1} vertices" in err
    assert not out_path.exists()


def test_reconstruct_weighted_single_arc_through_the_deck_file(tmp_path, capsys):
    # The deck is x^3 alone whatever the weight; the file carries the weight.
    path = write(tmp_path, "w.json",
                 {"format_version": 1, "n": 3, "arcs": [[0, 1]], "weights": ["5"]})
    deck_path = str(tmp_path / "deck.json")
    assert run(capsys, "deck", "--kind", "f2", "--input", path, "--output", deck_path)[0] == 0
    assert load_json(deck_path)["arc_weight"] == "5"
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    assert code == 0
    assert json.loads(out) == {"result": "unique", "poly": ["0", "0", "-5", "1"]}


@pytest.fixture(scope="module")
def trace_rule_deck(tmp_path_factory):
    # 0->1 (2), 1->2 (3), 2->0 (1/2), 0->2 (1): f2 forces c_2 = -13/2 from
    # the deck, which the written arc_weight of 13/2 matches.
    tmp_path = tmp_path_factory.mktemp("trace_rule")
    path = write(tmp_path, "w.json", {"format_version": 1, "n": 3,
                                      "arcs": [[0, 1], [1, 2], [2, 0], [0, 2]],
                                      "weights": ["2", "3", "1/2", "1"]})
    deck_path = str(tmp_path / "deck.json")
    assert main(["deck", "--kind", "f2", "--input", path, "--output", deck_path]) == 0
    obj = load_json(deck_path)
    assert obj["arc_weight"] == "13/2"
    return obj


@pytest.mark.parametrize("arc_weight", ["7", None], ids=["arc_weight-7", "arc_weight-deleted"])
def test_reconstruct_a_deck_whose_arc_weight_breaks_the_trace_rule_exits_4(
        tmp_path, capsys, trace_rule_deck, arc_weight):
    # The deck as written is unique; an arc_weight of 7, or none (which
    # declares W = m = 4), belongs to no digraph with this deck.
    deck_path = write(tmp_path, "deck.json", trace_rule_deck)
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    assert (code, json.loads(out)) == (0, {"result": "unique", "poly": ["0", "21/2", "-13/2", "1"]})
    obj = {k: v for k, v in trace_rule_deck.items() if k != "arc_weight"}
    if arc_weight is not None:
        obj["arc_weight"] = arc_weight
    deck_path = write(tmp_path, "edited.json", obj)
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    result = json.loads(out)
    assert (code, result["result"]) == (4, "inconsistent") and "trace rule" in result["detail"]


# 3,001 digits: accepted on input, and its products pass Python's default
# 4,300-digit int/str limit.
HUGE = "1" + "0" * 3000


def test_answers_beyond_the_int_string_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    digon = write(tmp_path, "digon.json", {"format_version": 1, "n": 2, "arcs": [[0, 1], [1, 0]],
                                           "weights": [HUGE, HUGE]})
    code, out, _ = run(capsys, "compute", "--kind", "f1", "--input", digon)
    assert code == 0
    assert json.loads(out) == ["-1" + "0" * 6000, "0", "1"]
    # m > n, so the deck pins every coefficient; its members and the
    # answer carry 6,001-digit coefficients through the JSON hop.
    star = write(tmp_path, "star.json", {**STAR, "weights": [HUGE] * 4})
    deck_path = str(tmp_path / "deck.json")
    assert run(capsys, "deck", "--kind", "f1", "--input", star, "--output", deck_path)[0] == 0
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    assert code == 0
    assert json.loads(out) == {"result": "unique", "poly": ["0", "-2" + "0" * 6000, "0", "1"]}
    assert sys.get_int_max_str_digits() == limit


def test_input_rationals_have_a_length_bound(tmp_path, capsys):
    # Reading an integer is quadratic in its length, and the digit limit
    # is lifted, so a longer string is refused before int() sees it.
    long_weight = "1" * (graph_polys.MAX_RATIONAL_CHARS + 1)
    digon = write(tmp_path, "digon.json", {"format_version": 1, "n": 2, "arcs": [[0, 1], [1, 0]],
                                           "weights": [long_weight, "1"]})
    code, out, err = run(capsys, "compute", "--kind", "f1", "--input", digon)
    assert code == 2 and out == ""
    assert f"at most {graph_polys.MAX_RATIONAL_CHARS}" in err and len(err) < 200


@pytest.mark.parametrize("digits", [graph_polys.MAX_RATIONAL_CHARS + 1,
                                    4 * graph_polys.MAX_RATIONAL_CHARS])
def test_json_integer_literals_have_a_length_bound(tmp_path, capsys, digits):
    # A JSON integer literal is read by int() too: without the bound, 400,000
    # digits took seconds to read, and the error echoed every one of them.
    path = tmp_path / "long_n.json"
    path.write_text('{"format_version": 1, "n": 1' + "0" * (digits - 1) + ', "arcs": []}')
    for argv in (["compute", "--kind", "f1", "--input", str(path)],
                 ["reconstruct", "--deck", str(path)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (2, ""), argv
        assert f"integer literal of {digits} characters" in err and len(err) < 200, argv


def test_reconstruct_inconsistent_deck(tmp_path, capsys):
    deck_path = write(tmp_path, "bad.json", {
        "format_version": 1, "n": 2, "kind": "f1", "polys": [["0", "1", "1"]],
    })
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    assert code == 4
    assert json.loads(out)["result"] == "inconsistent"


@pytest.mark.parametrize("n, kind, polys", [
    pytest.param(1, "f2", [["0", "3"], ["0", "-1"]], id="n1-f2"),
    pytest.param(2, "f1", [["0", "0", "3"], ["0", "0", "-1"]], id="n2-f1"),
])
def test_reconstruct_non_monic_deck_exits_4(tmp_path, capsys, n, kind, polys):
    # The leading coefficients sum to m, but no card is monic: no digraph
    # has this deck, so no answer may be unique or a family.
    deck_path = write(tmp_path, "bad.json",
                      {"format_version": 1, "n": n, "kind": kind, "polys": polys})
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    result = json.loads(out)
    assert (code, result["result"]) == (4, "inconsistent") and "leading" in result["detail"]


@pytest.mark.parametrize("deck, detail", [
    pytest.param({"n": 1, "kind": "f1", "polys": [["0", "1"]]}, "more than the 0 arcs",
                 id="n1-one-member"),
    pytest.param({"n": 2, "kind": "f1", "polys": [["0", "0", "1"]] * 3}, "more than the 2 arcs",
                 id="n2-three-members"),
    pytest.param({"n": 2, "kind": "f2", "polys": [["0", "0", "1"]], "arc_weight": "0"},
                 "arc_weight 0", id="n2-zero-arc-weight"),
])
def test_reconstruct_deck_no_digraph_has_exits_4(tmp_path, capsys, deck, detail):
    deck_path = write(tmp_path, "bad.json", {"format_version": 1, **deck})
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    result = json.loads(out)
    assert (code, result["result"]) == (4, "inconsistent") and detail in result["detail"]


def test_reconstruct_malformed_deck_exits_2(tmp_path, capsys):
    deck_path = write(tmp_path, "bad.json", {"format_version": 1, "n": 2,
                                             "kind": "f1", "polys": [["0", "1"]]})
    code, _, err = run(capsys, "reconstruct", "--deck", deck_path)
    assert code == 2 and "degree" in err


# One payload of each kind the CLI reads: its command and what it prints.
PAYLOADS = {
    "digraph": (["compute", "--kind", "f1", "--input"], {"n": 2, "arcs": [[0, 1]]},
                ["0", "0", "1"]),
    "deck": (["reconstruct", "--deck"], {"n": 2, "kind": "f1", "polys": [["0", "0", "1"]]},
             {"poly": ["0", "0", "1"], "result": "unique"}),
}


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "1.0", "string-1"])
@pytest.mark.parametrize("payload", PAYLOADS)
def test_a_format_version_other_than_the_integer_1_exits_2(tmp_path, capsys, payload, version):
    # true and 1.0 compare equal to 1, but only the integer reads, as for "n".
    argv, obj, _ = PAYLOADS[payload]
    path = write(tmp_path, "in.json", {"format_version": version, **obj})
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert f'error: "format_version" must be an integer, got {version!r}' in err


@pytest.mark.parametrize("header", [{"format_version": 1}, {}], ids=["1", "absent"])
@pytest.mark.parametrize("payload", PAYLOADS)
def test_format_version_1_or_absent_reads(tmp_path, capsys, payload, header):
    argv, obj, printed = PAYLOADS[payload]
    path = write(tmp_path, "in.json", {**header, **obj})
    code, out, _ = run(capsys, *argv, path)
    assert (code, json.loads(out)) == (0, printed)


@pytest.mark.parametrize("theorem", ["2.1", "2.2", "2.3", "3.1", "1.7"])
def test_verify_holds_for_every_identity(theorem, capsys):
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--trials", "15",
                       "--max-n", "4", "--seed", "42")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "holds" and obj["violations"] == []


def test_verify_weighted_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.1", "--trials", "10",
                       "--max-n", "5", "--seed", "7", "--weighted")
    assert code == 0
    assert json.loads(out)["weighted"] is True


@pytest.mark.parametrize("theorem", ["2.1", "2.2", "2.3"])
def test_verify_rejects_weighted_for_matrix_theorems(theorem, capsys):
    # Their instances are int matrices, which have no arc weights to draw.
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--trials", "3",
                         "--max-n", "4", "--seed", "7", "--weighted")
    assert code == 2 and out == "" and "--weighted" in err


def test_verify_output_is_byte_identical_across_runs(capsys):
    args = ("verify", "--theorem", "1.7", "--trials", "12", "--max-n", "5",
            "--seed", "99")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_flag_validation(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "2.1", "--trials", "0",
                       "--seed", "1")
    assert code == 2 and err
    code, _, _ = run(capsys, "verify", "--theorem", "9.9", "--trials", "5",
                     "--seed", "1")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--theorem", "2.1", "--trials", "5")
    assert code == 2  # --seed is mandatory


def test_verify_rejects_max_n_above_the_permanent_cap_up_front(capsys):
    # Whether a sweep used to reach an order-17 permanent depended on the seed.
    # Determinant-only theorems are capped at the determinant cap of 64.
    for theorem, max_n in (("2.3", 17), ("3.1", 17), ("1.7", 17), ("2.1", 65), ("2.2", 65)):
        for trials, seed in (("3", "1"), ("1", "17")):
            code, out, err = run(capsys, "verify", "--theorem", theorem, "--trials", trials,
                                 "--max-n", str(max_n), "--seed", seed)
            assert code == 2 and out == "" and f"capped at {max_n - 1}" in err
    # The permanent cap does not bind them.
    code, _, _ = run(capsys, "verify", "--theorem", "2.2", "--trials", "1",
                     "--max-n", "17", "--seed", "17")
    assert code == 0


# sha256 of stdout for (theorem, max-n, trials) at seed 1207, recorded on
# the Ryser permanent and the per-copy validated sweep that preceded Glynn's
# walk, and unchanged by it and by the subset sweeps that replaced it.
VERIFY_DIGESTS = {
    ("2.1", 6, 40): "b6cad25372784da52fc281e14996900a46c04e7712b6c0e4cfdd25a8853826d6",
    ("2.2", 7, 40): "9cc5c468fa80f1d7af0b3be730462f9fc4eed21febf94629056cc665d7f351b6",
    ("2.3", 6, 40): "230cec8ef7f6d4c9741e428163b5f7b89e46dcd7a130880f81f4a6649739c87b",
    ("2.3", 10, 5): "8ccb39edb6898eb29057fc734acb67d380f00dde2da6cd1e151bb9145283ea00",
}


@pytest.mark.parametrize("cell", list(VERIFY_DIGESTS))
def test_verify_output_bytes_are_pinned(capsys, cell):
    theorem, max_n, trials = cell
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--trials", str(trials),
                       "--max-n", str(max_n), "--seed", "1207")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[cell]


MATRIX_CHECKS = {"2.1": identities.check_thm21, "2.2": identities.check_thm22,
                 "2.3": identities.check_thm23}


@pytest.mark.parametrize("theorem", list(MATRIX_CHECKS))
def test_verify_reports_a_faulty_kernel_as_violated(theorem, capsys, monkeypatch):
    det, per = mx.det_bareiss, mx.per_ryser
    monkeypatch.setattr(mx, "det_bareiss", lambda matrix: det(matrix) + 1)
    monkeypatch.setattr(mx, "per_ryser", lambda matrix: per(matrix) + 1)
    # The zeroed copies are evaluated by the sweeps, not one kernel call each.
    for name in ("zeroed_dets", "zeroed_pers"):
        sweep = getattr(mx, name)
        monkeypatch.setattr(mx, name, lambda rows, n, positions, sweep=sweep:
                            [v + 1 for v in sweep(rows, n, positions)])
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--trials", "6",
                       "--max-n", "4", "--seed", "42")
    monkeypatch.undo()
    obj = json.loads(out)
    assert code == 5 and obj["verdict"] == "violated"
    assert len(obj["violations"]) == 6
    for violation in obj["violations"]:
        # With every evaluation one too high, the left side gains
        # len(positions) - n and the right side len(positions), when the
        # zeroed copies go through the faulty kernel too.
        n = len(violation["instance"]["matrix"])
        assert int(violation["lhs"]) - int(violation["rhs"]) == -n
    matrix = [[int(x) for x in row] for row in obj["violations"][0]["instance"]["matrix"]]
    assert MATRIX_CHECKS[theorem](matrix).holds


@pytest.mark.parametrize("theorem", ["2.1", "2.2"])
def test_verify_reports_a_perturbed_shared_pivot_as_violated(theorem, capsys, monkeypatch):
    # A mutant of the elimination step the zeroed copies share, whose pivot
    # is one too high at the last step, the one that leaves a single column;
    # det_bareiss, the left side, is left alone.
    source = inspect.getsource(mx._pivot_step)
    mutant = source.replace("p = a.pop()", "p = a.pop() + (len(cols) == 1)")
    assert mutant != source
    namespace = dict(vars(mx))
    exec(mutant, namespace)
    monkeypatch.setattr(mx, "_pivot_step", namespace["_pivot_step"])
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--trials", "6",
                       "--max-n", "4", "--seed", "42")
    monkeypatch.undo()
    assert code == 5 and json.loads(out)["verdict"] == "violated"


# sha256 of the arguments of every check call that verify --trials 25
# --max-n 6 --seed 1207 makes, with and without --weighted, recorded before
# the theorem table moved from cli to identities. A passing summary holds no
# instance, so VERIFY_DIGESTS cannot see what a trial draws; these can.
VERIFY_INSTANCE_DIGESTS = {
    ("2.1", False):
        "1c8bcc901935000b8f5ffc0a9cc34214c91d5dd629c70507ad0f969f61a1c7fd",
    ("2.2", False):
        "5ba7ba7bd003cf4ca30d15e0acd48fd661123c5efbd85d79773d9b1f3d294d29",
    ("2.3", False):
        "3140f04380224c20d468d5b0e53c429620a03c4688b335af711a5f330192a303",
    ("3.1", False):
        "070f19b2f84c3c0da20bf014772b43ef709b9e6c698b0a30a8c13fcad0e1e974",
    ("3.1", True):
        "5ff52032b8c23732899a8bb4edc3cba49e5ac99a53ce87c61b6837cd01a897ef",
    ("1.7", False):
        "7f9c6400348a166e3052c121035fa96b7457e37a10c4c7b5443b8b6338ee848a",
    ("1.7", True):
        "4c07ab7cffef4919bc54c87dacd2f643443d0773e21342f0ea181dab0d8957ae",
}
CHECKS = ("check_thm21", "check_thm22", "check_thm23", "check_thm31", "check_eq17")


def plain(value):
    """value as JSON reads it: a digraph as its file object, a kind by its
    name, a rational as text; an int matrix or a mode as it is."""
    if isinstance(value, Digraph):
        return serialize.digraph_to_obj(value)
    if isinstance(value, PolyKind):
        return graph_polys.kind_name(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


@pytest.mark.parametrize("cell", list(VERIFY_INSTANCE_DIGESTS),
                         ids=[theorem + "-weighted" * weighted
                              for theorem, weighted in VERIFY_INSTANCE_DIGESTS])
def test_verify_draws_the_pinned_instances(capsys, monkeypatch, cell):
    theorem, weighted = cell
    calls = []
    for name in CHECKS:
        def recorder(*args, name=name, check=getattr(identities, name)):
            calls.append([name, [plain(arg) for arg in args]])
            return check(*args)
        monkeypatch.setattr(identities, name, recorder)
    code, _, _ = run(capsys, "verify", "--theorem", theorem, "--trials", "25", "--max-n", "6",
                     "--seed", "1207", *["--weighted"] * weighted)
    assert code == 0 and len(calls) >= 25
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
    assert digest == VERIFY_INSTANCE_DIGESTS[cell]


def test_search_finds_the_canonical_collision(tmp_path, capsys):
    out_path = str(tmp_path / "groups.ndjson")
    code, out, _ = run(capsys, "search", "--vertices", "4", "--arcs", "4",
                       "--kind", "f1", "--output", out_path)
    assert code == 0
    assert json.loads(out)["digraphs"] == 495
    records = [json.loads(line) for line in open(out_path)]
    assert records
    polys = {tuple(member["poly"]) for rec in records for member in rec["members"]}
    assert ("-1", "0", "0", "0", "1") in polys
    assert ("0", "0", "0", "0", "1") in polys


def test_search_laplacian_finds_nothing(tmp_path, capsys):
    out_path = str(tmp_path / "groups.ndjson")
    code, out, _ = run(capsys, "search", "--vertices", "4", "--arcs", "4",
                       "--kind", "f2", "--output", out_path)
    assert code == 0
    assert json.loads(out)["groups"] == 0
    assert open(out_path).read() == ""


def test_a_search_with_no_group_empties_the_file_an_earlier_search_filled(tmp_path, capsys):
    # The file is rewritten in place and cut to length: the (4, 4, f1)
    # groups must not survive a (3, 4, f2) search, which has none (m > n).
    out_path = tmp_path / "groups.ndjson"
    for vertices, kind in (("4", "f1"), ("3", "f2")):
        code, out, _ = run(capsys, "search", "--vertices", vertices, "--arcs", "4",
                           "--kind", kind, "--output", str(out_path))
        assert code == 0
    assert json.loads(out)["groups"] == 0
    assert out_path.read_bytes() == b""


def _writer_argv(tmp_path, command):
    """A command that writes --output, without that flag."""
    if command == "search":
        return ["search", "--vertices", "4", "--arcs", "4", "--kind", "f1"]
    return ["deck", "--kind", "f1", "--input", write(tmp_path, "c4.json", C4)]


@pytest.mark.parametrize("command", ["search", "deck"])
def test_output_to_dev_null_exits_0(tmp_path, capsys, command):
    # A character device has size 0 and is never truncated: an
    # unconditional ftruncate raises EINVAL on it.
    assert run(capsys, *_writer_argv(tmp_path, command), "--output", os.devnull)[0] == 0


@pytest.mark.parametrize("command", ["search", "deck"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_an_output_path_that_cannot_be_opened_exits_2_and_names_it(tmp_path, capsys, command,
                                                                   target):
    out_path = str(tmp_path if target == "directory" else tmp_path / "missing" / "out.json")
    code, out, err = run(capsys, *_writer_argv(tmp_path, command), "--output", out_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.endswith(f": {out_path!r}\n")


def test_search_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DECKPOLY_BUDGET", "10")
    code, _, err = run(capsys, "search", "--vertices", "4", "--arcs", "4",
                       "--kind", "f1", "--output", str(tmp_path / "g.ndjson"))
    assert code == 2 and "budget" in err
    # The one rational grammar, with denominator 1: int() would take the
    # spaced, underscored, signed and Arabic-Indic values, and a string of
    # any length under the CLI's lifted digit limit.
    for raw in ("not-a-number", " 5", "1_000", "+7", "\u0663", "1/2", "1" * 100_001):
        monkeypatch.setenv("DECKPOLY_BUDGET", raw)
        code, _, err = run(capsys, "search", "--vertices", "3", "--arcs", "1",
                           "--kind", "f1", "--output", str(tmp_path / "g.ndjson"))
        assert code == 2 and "DECKPOLY_BUDGET must be an integer" in err
        assert len(err) < 200  # the length is named, not the value echoed


def test_search_default_budget_refuses_8_6(tmp_path, capsys, monkeypatch):
    # comb(56, 6) = 32,468,436 digraphs, just above the (7, 7) cell's 26,978,328.
    monkeypatch.delenv("DECKPOLY_BUDGET", raising=False)
    code, out, err = run(capsys, "search", "--vertices", "8", "--arcs", "6",
                         "--kind", "f1", "--output", str(tmp_path / "g.ndjson"))
    assert (code, out) == (2, "")
    assert "enumerating 32468436 digraphs exceeds the budget of 26978328" in err


def test_search_rejects_an_empty_or_negative_vertex_set(tmp_path, capsys):
    # At m = 0 the search used to return before anything checked n.
    for vertices in ("0", "-1"):
        out_path = tmp_path / f"groups{vertices}.ndjson"
        code, out, err = run(capsys, "search", "--vertices", vertices, "--arcs", "0",
                             "--kind", "f1", "--output", str(out_path))
        assert code == 2 and out == "" and "vertex count" in err
        assert not out_path.exists()


@pytest.mark.parametrize("vertices, kind", [("17", "f4"), ("65", "f1")])
def test_search_checks_the_size_cap_before_the_arcless_shortcut(tmp_path, capsys,
                                                               vertices, kind):
    # At m = 0 the search used to return one digraph past the mode's cap.
    out_path = tmp_path / "groups.ndjson"
    code, out, err = run(capsys, "search", "--vertices", vertices, "--arcs", "0",
                         "--kind", kind, "--output", str(out_path))
    assert code == 2 and out == "" and "capped at" in err
    assert not out_path.exists()


# sha256 of stdout followed by the ndjson file, recorded on the Fraction-keyed
# search that preceded the integer one.
SEARCH_DIGESTS = {
    (4, 4, "f1"): "fa6470dc5f533770f74d98b29057bfae8988cad7d151c452c06ab5d155c9a546",
    (4, 3, "f6"): "6ab714ac7d476391223fc9639eb36aae16d13a919139a84e6e6da9e31fbc2f9f",
    (3, 3, "f4"): "f2306907ee38f916d87fde083b41c9e67efd44fd361d94357529e3d193baa747",
    (3, 2, "general:1/2,3/4,det"):
        "d1f476178e4ac0ccd21d4688f52940835c76c610ef95da30e0a76d7f09e5ff5d",
    (5, 4, "f1"): "aad4cbb2c885daddc221c4f8344238a85a3153c8e4a1eb08e0ee21e9b0585199",
    (5, 5, "f4"): "f96f8a0b5fd8af7c540951d9064ccff8833e383a65c43d89c37a349e7f855dee",
    (6, 3, "f6"): "f3b0174d0c0a99f63fad8e300d38a6aa93a9dcb47eb35c07bdbbf7f5617435f9",
    (6, 4, "f2"): "b33d552ca5f4b39ec3887b1e4ab0baec522c9d55af12d287d28a4e2120a0f9e4",
}


@pytest.mark.parametrize("cell", list(SEARCH_DIGESTS))
def test_search_output_bytes_are_pinned(tmp_path, capsys, cell):
    n, m, kind = cell
    out_path = tmp_path / "groups.ndjson"
    code, out, _ = run(capsys, "search", "--vertices", str(n), "--arcs", str(m),
                       "--kind", kind, "--output", str(out_path))
    assert code == 0
    digest = hashlib.sha256(out.encode() + out_path.read_bytes()).hexdigest()
    assert digest == SEARCH_DIGESTS[cell]


BAD_RATIONAL_KINDS = [
    ("general:1/0,1,det", "zero denominator"),
    ("general:1,2/0,per", "zero denominator"),
    ("general:1e3,1,det", "'1e3'"),
    ("general:1/2,0.5,per", "'0.5'"),
]


@pytest.mark.parametrize("kind, message", BAD_RATIONAL_KINDS,
                         ids=[kind for kind, _ in BAD_RATIONAL_KINDS])
def test_zero_denominator_kind_is_a_clean_error(tmp_path, kind, message, capsys):
    c3 = write(tmp_path, "c3.json", C3)
    deck_file = write(tmp_path, "deck.json", {"format_version": 1, "n": 2, "kind": kind,
                                              "polys": [["0", "0", "1"]]})
    out_path = tmp_path / "out.json"
    for argv in (["compute", "--kind", kind, "--input", c3],
                 ["deck", "--kind", kind, "--input", c3, "--output", str(out_path)],
                 ["search", "--vertices", "3", "--arcs", "2", "--kind", kind,
                  "--output", str(out_path)],
                 ["reconstruct", "--deck", deck_file]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv
    assert not out_path.exists()


def test_deeply_nested_json_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for argv in (["compute", "--kind", "f1", "--input", str(path)],
                 ["reconstruct", "--deck", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "invalid JSON" in err and "recursion" in err, argv


def test_huge_exponent_kind_fails_fast(tmp_path):
    # Fraction("1e999999999") would build 10^999999999 and never return.
    c3 = write(tmp_path, "c3.json", C3)
    src = os.path.dirname(os.path.dirname(identities.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "deckpoly.cli", "compute", "--kind", "general:1e999999999,1,det",
         "--input", c3],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "'1e999999999'" in proc.stderr


def test_counterexample_output(capsys):
    code, out, _ = run(capsys, "counterexample", "--n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["polynomials"]["f1"]["cycle"] == ["-1", "0", "0", "0", "0", "1"]
    assert obj["polynomials"]["f1"]["path_plus_arc"] == ["0", "0", "0", "0", "0", "1"]
    assert obj["polynomials"]["f4"]["cycle"] == ["-1", "0", "0", "0", "0", "1"]
    assert obj["decks"]["f1"]["cycle"] == obj["decks"]["f1"]["path_plus_arc"]
    assert obj["digraphs"]["cycle"]["arcs"] == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]


def test_counterexample_rejects_n2(capsys):
    code, _, err = run(capsys, "counterexample", "--n", "2")
    assert code == 2 and err


def test_counterexample_checks_the_permanent_cap_first(monkeypatch, capsys):
    def unreachable(n):
        raise AssertionError("the pair was built before the size check")

    monkeypatch.setattr(search, "canonical_counterexample", unreachable)
    code, out, err = run(capsys, "counterexample", "--n", str(mx.RYSER_MAX_ORDER + 1))
    assert (code, out) == (2, "")
    assert "capped at" in err


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_flags_read_as_value_pairs_with_equals_and_as_unique_prefixes(tmp_path, capsys):
    outputs = []
    for argv in (["--theorem", "1.7", "--trials", "4", "--max-n", "4", "--seed", "3",
                  "--weighted"],
                 ["--theorem=1.7", "--trials=4", "--max-n=4", "--seed=3", "--weighted"],
                 ["--th", "1.7", "--tr=4", "--max", "4", "--se", "3", "--w"],
                 # a repeated flag keeps its last value
                 ["--theorem", "2.1", "--theorem", "1.7", "--trials", "9", "--trials", "4",
                  "--max-n", "4", "--seed", "3", "--weighted"]):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, ""), argv
        outputs.append(out)
    assert len(set(outputs)) == 1 and json.loads(outputs[0])["trials"] == 4
    # A value may start with "-" when it is a negative number.
    code, _, err = run(capsys, "search", "--vertices", "-1", "--arcs", "0", "--kind", "f1",
                       "--output", str(tmp_path / "g.ndjson"))
    assert code == 2 and "vertex count" in err and "usage:" not in err


# Each flag's help text, as the help of its command shows it.
HELP_TEXTS = {
    "compute": ['"f1".."f6" or "general:BETA,GAMMA,det|per", read as written',
                "digraph JSON file"],
    "deck": ["deck JSON file to write"],
    "reconstruct": ["deck JSON file"],
    "verify": ["{2.1,2.2,2.3,3.1,1.7}",
               "draw nonzero rational arc weights (theorems 3.1 and 1.7 only)"],
    "search": ["newline-delimited collision groups are written here"],
    "counterexample": ["--n N"],
}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], *(
    [command, flag] for command in COMMANDS for flag in ("-h", "--help"))])
def test_help_goes_to_stdout_and_exits_0(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    command = argv[0] if argv[0] in COMMANDS else None
    assert out.startswith(f"usage: deckpoly {command or '[-h]'}")
    if command is None:
        assert all(f"  {name:<16}{spec[1]}\n" in out for name, spec in COMMANDS.items())
    else:
        assert COMMANDS[command][1] in out
        assert all(f"--{flag}" in out for flag in COMMANDS[command][2])
        assert all(text in out for text in HELP_TEXTS[command])


SEARCH = ["search", "--vertices", "3", "--arcs", "2", "--kind", "f1", "--output", "OUT"]
VERIFY = ["verify", "--theorem", "2.1", "--trials", "3", "--seed", "1"]
USAGE_ERRORS = {
    "unknown-command": ["serach", *SEARCH[1:]],
    "flag-before-command": ["--kind", "f1", *SEARCH],
    "unknown-flag": [*SEARCH, "--budget", "5"],
    "short-flag": [*SEARCH, "-v"],
    "stray-word": [*SEARCH, "extra"],
    "ambiguous-prefix": [*VERIFY, "--t", "3"],
    "empty-flag": [*SEARCH, "--"],
    "missing-required": SEARCH[:5] + SEARCH[7:],
    "missing-value": [*SEARCH[:-1]],
    "flag-as-value": [*SEARCH[:-1], "--kind", "f1"],
    "switch-with-value": [*VERIFY, "--weighted=yes"],
    "help-with-value": [*SEARCH, "--help=1"],
    "bad-theorem": ["verify", "--theorem", "2.4", "--seed", "1"],
    "bad-int": [*SEARCH[:2], "three", *SEARCH[3:]],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_bad_flags_exit_2_with_usage_before_any_file_is_opened(tmp_path, capsys, argv):
    out_path = tmp_path / "groups.ndjson"
    code, out, err = run(capsys, *[str(out_path) if a == "OUT" else a for a in argv])
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: deckpoly") and error.startswith("error: ")
    assert not out_path.exists()


INT_FLAGS = {
    "trials": VERIFY[:3] + VERIFY[5:],
    "max-n": VERIFY,
    "seed": VERIFY[:5],
    "vertices": SEARCH[:1] + SEARCH[3:],
    "arcs": SEARCH[:3] + SEARCH[5:],
    "n": ["counterexample"],
}


@pytest.mark.parametrize("flag", list(INT_FLAGS))
@pytest.mark.parametrize("raw", ["1_000", " 5", "\u0663", "+7", "1/2", "0x10", ""])
def test_int_flags_read_the_rational_grammar_with_denominator_1(tmp_path, capsys, flag, raw):
    # DECKPOLY_BUDGET's rule: int() would take the first four.
    out_path = tmp_path / "groups.ndjson"
    argv = [str(out_path) if a == "OUT" else a for a in INT_FLAGS[flag]]
    code, out, err = run(capsys, *argv, f"--{flag}", raw)
    assert (code, out) == (2, "")
    assert f"error: --{flag} must be an integer, got {raw!r}" in err
    assert not out_path.exists()


def test_a_search_in_a_fresh_process_imports_no_argparse_or_locale(tmp_path):
    # Building argparse parsers imports locale through gettext; that cost
    # landed in the first search of every process.
    src = os.path.dirname(os.path.dirname(identities.__file__))
    script = ("import sys\n"
              "from deckpoly import cli\n"
              "code = cli.main(['search', '--vertices', '3', '--arcs', '3', '--kind', 'f4',\n"
              f"                 '--output', {str(tmp_path / 'g.ndjson')!r}])\n"
              "print(code, 'argparse' in sys.modules, 'locale' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines()[-1] == "0 False False", proc.stderr


def test_one_process_runs_many_commands_without_carrying_state(tmp_path, capsys):
    # Each call of main in one process must read like a fresh process: flags
    # and defaults of one call do not leak into the next, and a bad flag
    # exits 2 without spoiling later calls.
    c3 = write(tmp_path, "c3.json", C3)
    deck_path = str(tmp_path / "deck.json")
    assert main(["deck", "--kind", "f4", "--input", c3, "--output", deck_path]) == 0
    calls = [
        ["verify", "--theorem", "3.1", "--trials", "5", "--max-n", "4", "--seed", "3",
         "--weighted"],
        ["verify", "--theorem", "3.1", "--trials", "5", "--seed", "3"],
        ["compute", "--kind", "f2", "--input", c3],
        ["search", "--vertices", "3", "--arcs", "3", "--kind", "f4", "--output", "OUT"],
        ["verify", "--theorem", "2.3", "--trials", "oops", "--seed", "1"],
        ["reconstruct", "--deck", deck_path],
        ["search", "--vertices", "4", "--arcs", "8", "--kind", "f1", "--output", "OUT"],
        ["counterexample", "--n", "3"],
        ["verify", "--theorem", "2.1", "--trials", "5", "--seed", "3"],
    ]
    src = os.path.dirname(os.path.dirname(identities.__file__))
    codes = []
    for i, argv in enumerate(calls):
        ours, fresh = tmp_path / f"ours{i}.ndjson", tmp_path / f"fresh{i}.ndjson"
        code, out, _ = run(capsys, *[str(ours) if a == "OUT" else a for a in argv])
        proc = subprocess.run(
            [sys.executable, "-m", "deckpoly.cli",
             *[str(fresh) if a == "OUT" else a for a in argv]],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert (code, out) == (proc.returncode, proc.stdout), argv
        if "OUT" in argv:
            assert ours.read_bytes() == fresh.read_bytes(), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 2, 3, 0, 0, 0]
