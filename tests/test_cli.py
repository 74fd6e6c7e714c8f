"""CLI surface: flags, file wiring, exit codes, byte-deterministic output."""

import hashlib
import json

import pytest

from deckpoly import identities
from deckpoly import matrices as mx
from deckpoly.cli import main
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


def test_reconstruct_inconsistent_deck(tmp_path, capsys):
    deck_path = write(tmp_path, "bad.json", {
        "format_version": 1, "n": 2, "kind": "f1", "polys": [["0", "1", "1"]],
    })
    code, out, _ = run(capsys, "reconstruct", "--deck", deck_path)
    assert code == 4
    assert json.loads(out)["result"] == "inconsistent"


def test_reconstruct_malformed_deck_exits_2(tmp_path, capsys):
    deck_path = write(tmp_path, "bad.json", {"format_version": 1, "n": 2,
                                             "kind": "f1", "polys": [["0", "1"]]})
    code, _, err = run(capsys, "reconstruct", "--deck", deck_path)
    assert code == 2 and "degree" in err


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
    for theorem in ("2.3", "3.1", "1.7"):
        for trials, seed in (("3", "1"), ("1", "17")):
            code, out, err = run(capsys, "verify", "--theorem", theorem, "--trials", trials,
                                 "--max-n", "17", "--seed", seed)
            assert code == 2 and out == "" and "capped at 16" in err
    # Determinant-only theorems have no such cap.
    code, _, _ = run(capsys, "verify", "--theorem", "2.2", "--trials", "1",
                     "--max-n", "17", "--seed", "17")
    assert code == 0


# sha256 of stdout for (theorem, max-n, trials) at seed 1207, recorded on
# the Ryser permanent and the per-copy validated sweep that preceded Glynn's.
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
    det_core, per_core = mx._det_bareiss, mx._per_glynn
    monkeypatch.setattr(mx, "_det_bareiss", lambda rows, n: det_core(rows, n) + 1)
    monkeypatch.setattr(mx, "_per_glynn", lambda rows, n: per_core(rows, n) + 1)
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--trials", "6",
                       "--max-n", "4", "--seed", "42")
    monkeypatch.undo()
    obj = json.loads(out)
    assert code == 5 and obj["verdict"] == "violated"
    assert len(obj["violations"]) == 6
    for violation in obj["violations"]:
        # With every evaluation one too high, the left side gains
        # len(positions) - n and the right side len(positions), when the
        # zeroed copies go through the faulty core too.
        n = len(violation["instance"]["matrix"])
        assert int(violation["lhs"]) - int(violation["rhs"]) == -n
    matrix = [[int(x) for x in row] for row in obj["violations"][0]["instance"]["matrix"]]
    assert MATRIX_CHECKS[theorem](matrix).holds


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


def test_search_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DECKPOLY_BUDGET", "10")
    code, _, err = run(capsys, "search", "--vertices", "4", "--arcs", "4",
                       "--kind", "f1", "--output", str(tmp_path / "g.ndjson"))
    assert code == 2 and "budget" in err
    monkeypatch.setenv("DECKPOLY_BUDGET", "not-a-number")
    code, _, err = run(capsys, "search", "--vertices", "3", "--arcs", "1",
                       "--kind", "f1", "--output", str(tmp_path / "g.ndjson"))
    assert code == 2 and "DECKPOLY_BUDGET" in err


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


@pytest.mark.parametrize("kind", ["general:1/0,1,det", "general:1,2/0,per"])
def test_zero_denominator_kind_is_a_clean_error(tmp_path, kind, capsys):
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
        assert "zero denominator" in err, argv
    assert not out_path.exists()


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


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
