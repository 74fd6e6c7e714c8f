"""File formats: round trips, strictness, canonical JSON rendering."""

import builtins
import copy
import errno
import os
import pickle
import re
import sys
from fractions import Fraction

import pytest

from deckpoly import polynomials as poly
from deckpoly import serialize as ser
from deckpoly.digraphs import Digraph, InvalidDigraphError, validate
from deckpoly.graph_polys import F2, MAX_RATIONAL_CHARS, Deck, deck, parse_kind, parse_rational
from deckpoly.identities import check_thm21
from deckpoly.reconstruct import Inconsistent, OneParameterFamily, Unique
from oracles import P


def test_fraction_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    with pytest.raises(ser.FormatError):
        parse_rational("1/0")
    with pytest.raises(ser.FormatError):
        parse_rational(7)
    # Only "p" and "p/q" are read: exponents would build huge ints.
    for text in ("abc", "1e3", "0.5", "1_000", "", "+1", " 1"):
        with pytest.raises(ser.FormatError, match=re.escape(repr(text))):
            parse_rational(text)


def test_poly_round_trip():
    p = P(Fraction(-1, 3), 0, 2)
    assert ser.poly_to_strings(p) == ["-1/3", "0", "2"]
    obj = {"format_version": 1, "n": 2, "kind": "f2", "polys": [ser.poly_to_strings(p)]}
    assert ser.deck_from_obj(obj).polys == (p,)
    for member in ([], "10"):
        with pytest.raises(ser.FormatError, match="non-empty array of coefficient strings"):
            ser.deck_from_obj({**obj, "polys": [member]})


def test_digraph_round_trip():
    g = Digraph(3, ((0, 1), (2, 0)), (Fraction(1, 2), Fraction(-3)))
    obj = ser.digraph_to_obj(g)
    assert obj == {
        "format_version": 1,
        "n": 3,
        "arcs": [[0, 1], [2, 0]],
        "weights": ["1/2", "-3"],
    }
    assert ser.digraph_from_obj(obj) == g
    unweighted = Digraph(2, ((0, 1),))
    assert ser.digraph_from_obj(ser.digraph_to_obj(unweighted)) == unweighted


def test_digraph_from_obj_rejects_malformed_payloads():
    good = {"format_version": 1, "n": 2, "arcs": [[0, 1]]}
    bad_cases = [
        [],
        {**good, "format_version": 2},
        {**good, "n": "2"},
        {**good, "arcs": [[0]]},
        {**good, "arcs": [[0, "1"]]},
        {**good, "arcs": 3},
        {**good, "weights": ["1", "2"]},
        {**good, "weights": "1"},
    ]
    for obj in bad_cases:
        with pytest.raises(ser.FormatError):
            ser.digraph_from_obj(obj)
    # Missing format_version is accepted and treated as current.
    assert ser.digraph_from_obj({"n": 2, "arcs": [[0, 1]]}) == Digraph(2, ((0, 1),))


def test_deck_round_trip_sorts_members():
    d = Deck.from_polys(2, F2, (P(0, -1, 1), P(0, 0, 1)))
    obj = ser.deck_to_obj(d)
    assert obj["kind"] == "f2"
    assert ser.deck_from_obj(obj) == d
    shuffled = {**obj, "polys": list(reversed(obj["polys"]))}
    assert ser.deck_from_obj(shuffled) == d
    assert "arc_weight" not in obj
    weighted = Deck.from_polys(2, F2, d.polys, Fraction(-7, 2))
    obj = ser.deck_to_obj(weighted)
    assert obj["arc_weight"] == "-7/2"
    assert ser.deck_from_obj(obj) == weighted


def test_arc_weight_equal_to_the_member_count_reads_as_absent():
    d = deck(Digraph(3, ((0, 1), (1, 2))), F2)
    obj = ser.deck_to_obj(d)
    assert d.arc_weight is None and "arc_weight" not in obj
    for arc_weight in ("2", "4/2"):
        twin = ser.deck_from_obj({**obj, "arc_weight": arc_weight})
        assert twin.arc_weight is None
        assert twin == d and hash(twin) == hash(d)
        assert ser.to_canonical_json(ser.deck_to_obj(twin)) == ser.to_canonical_json(obj)
    for twin in (Deck.from_polys(d.n, d.kind, d.polys, 2),
                 Deck(d.kind, d.coefficients, d.denominators, Fraction(2))):
        assert twin == d and twin.arc_weight is None
        assert pickle.loads(pickle.dumps(twin)) == copy.deepcopy(twin) == d
    assert ser.deck_from_obj({**obj, "arc_weight": "3"}).arc_weight == 3


def test_deck_from_obj_rejects_wrong_degree_and_bad_kind():
    with pytest.raises(ser.FormatError):
        ser.deck_from_obj({"format_version": 1, "n": 3, "kind": "f1",
                           "polys": [["0", "0", "1"]]})
    with pytest.raises(ser.FormatError):
        ser.deck_from_obj({"format_version": 1, "n": 2, "kind": "f9",
                           "polys": [["0", "0", "1"]]})
    with pytest.raises(ser.FormatError):
        ser.deck_from_obj({"format_version": 1, "n": 2, "kind": "f1", "polys": []})
    with pytest.raises(ser.FormatError):
        ser.deck_from_obj({"format_version": 1, "n": 0, "kind": "f1",
                           "polys": [["1"]]})
    for arc_weight in (5, "1/0", "x"):
        with pytest.raises(ser.FormatError):
            ser.deck_from_obj({"format_version": 1, "n": 2, "kind": "f1",
                               "polys": [["0", "0", "1"]], "arc_weight": arc_weight})


@pytest.mark.parametrize("kind, got", [(1, "1"), (["f1"], "['f1']"), (None, "None")])
def test_deck_reader_names_a_kind_that_is_not_a_string(kind, got):
    # Once the reader's own "'int' object has no attribute 'startswith'".
    with pytest.raises(ser.FormatError) as excinfo:
        ser.deck_from_obj({"format_version": 1, "n": 2, "kind": kind, "polys": [["0", "0", "1"]]})
    assert str(excinfo.value) == f'bad deck kind: "kind" must be a string, got {got}'


GOOD_VALUES = ("3", "-1/2", "0/5")
BAD_VALUES = ("1e3", "+1", " 1", "1_000", "", "1/0", "0x1", "\u0661", "1,2", 7)
OVER_LENGTH = "1" * (MAX_RATIONAL_CHARS + 1)


@pytest.mark.parametrize("value", [*GOOD_VALUES, *BAD_VALUES,
                                   pytest.param(OVER_LENGTH, id="over-length")])
def test_deck_member_values_are_read_strictly(value):
    """One rational grammar at every entry point that reads a rational: a
    digraph's weights, a deck's arc_weight, deck members (checked as a
    whole, then read again value by value) and a kind's BETA. Each reads a
    good value as the same Fraction, and each error names the bad value, or
    its length when it is too long. "\u0661" is an Arabic-Indic digit,
    which int() accepts."""
    deck_obj = {"format_version": 1, "n": 2, "kind": "f1", "polys": [["0", "0", "1"]]}
    entries = [
        (ser.FormatError, lambda: ser.digraph_from_obj({"n": 2, "arcs": [[0, 1]],
                                                        "weights": [value]}).weights[0]),
        (ser.FormatError, lambda: ser.deck_from_obj({**deck_obj, "arc_weight": value}).arc_weight),
        (ser.FormatError, lambda: ser.deck_from_obj({**deck_obj, "polys": [[value, "0", "1"]]})
         .polys[0][0]),
        (ser.FormatError, lambda: ser.deck_from_obj({**deck_obj, "polys": [["1/2", value, "1"]]})
         .polys[0][1]),
    ]
    # A kind is text split at commas, so only a string free of them reaches
    # its reader whole.
    if isinstance(value, str) and "," not in value:
        entries.append((ValueError, lambda: parse_kind(f"general:{value},1,det").beta))
    named = f"{MAX_RATIONAL_CHARS + 1} characters" if value == OVER_LENGTH else repr(value)
    for error, entry in entries:
        if value in GOOD_VALUES:
            assert entry() == Fraction(value)
        else:
            with pytest.raises(error, match=re.escape(named)):
                entry()


def test_deck_member_values_have_a_length_bound():
    obj = {"format_version": 1, "n": 2, "kind": "f1"}
    for long in ("1" * (MAX_RATIONAL_CHARS + 1), "-" + "1" * MAX_RATIONAL_CHARS,
                 "1/" + "1" * (MAX_RATIONAL_CHARS - 1)):
        with pytest.raises(ser.FormatError, match=f"{MAX_RATIONAL_CHARS + 1} characters"):
            ser.deck_from_obj({**obj, "polys": [["0", long, "1"]]})
    # A value of exactly the bound is within it, so the bad value after it
    # is the one named.
    with pytest.raises(ser.FormatError, match="bad rational 'x'"):
        ser.deck_from_obj({**obj, "polys": [["0", "1" * MAX_RATIONAL_CHARS, "x"]]})


HUGE = 10**5000  # past Python's default 4,300-digit limit on str(int)


@pytest.mark.parametrize("call, error, named", [
    pytest.param(lambda: ser.deck_from_obj({"n": -HUGE, "kind": "f1", "polys": [["1"]]}),
                 ser.FormatError, '"n" must be >= 1, got <negative int of 16610 bits>', id="deck-n"),
    pytest.param(lambda: ser.digraph_from_obj({"format_version": HUGE, "n": 2, "arcs": []}),
                 ser.FormatError, "unsupported format_version <int of 16610 bits>", id="format-version"),
    pytest.param(lambda: validate(Digraph(-HUGE)), InvalidDigraphError,
                 "vertex count must be >= 1, got <negative int of 16610 bits>", id="vertex-count"),
    pytest.param(lambda: validate(Digraph(3, [(0, HUGE)])), InvalidDigraphError,
                 "arc (0, <int of 16610 bits>) outside vertex range [0, 3)", id="arc-endpoint"),
])
def test_an_int_past_the_digit_limit_is_named_by_its_bit_length(call, error, named):
    # Under the default limit repr raises ValueError on such an int, so a
    # library call outside the CLI, which lifts the limit, names it so.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(error, match=re.escape(named)):
            call()
    finally:
        sys.set_int_max_str_digits(limit)


def test_deck_members_read_in_any_terms():
    obj = {"format_version": 1, "n": 2, "kind": "f1"}
    half = ser.deck_from_obj({**obj, "polys": [["1/2", "-3", "1"], ["0", "1/3", "1"]]})
    for polys in ([["2/4", "-6/2", "1", "0", "0/5"], ["0/7", "2/6", "3/3", "0"]],
                  [["1/2", "-3", "1/1"], ["0", "1/3", "1"]]):
        twin = ser.deck_from_obj({**obj, "polys": polys})
        assert twin == half and hash(twin) == hash(half)
        assert twin.denominators == half.denominators == (2, 3, 1)
        assert ser.deck_to_obj(twin) == ser.deck_to_obj(half)
    assert half == Deck.from_polys(2, half.kind, [P(Fraction(1, 2), -3, 1), P(0, Fraction(1, 3), 1)])


def test_deck_from_obj_accepts_non_monic_members():
    # Malformed decks must load; reconstruct reports them as inconsistent.
    d = ser.deck_from_obj({"format_version": 1, "n": 2, "kind": "f1",
                           "polys": [["0", "0", "2"]]})
    assert d.polys == (P(0, 0, 2),)


def test_result_serialization():
    assert ser.result_to_obj(Unique(P(0, 1))) == {"result": "unique", "poly": ["0", "1"]}
    assert ser.result_to_obj(OneParameterFamily(P(0, 0, 1), 0)) == {
        "result": "one_parameter_family",
        "base": ["0", "0", "1"],
        "free_exponent": 0,
    }
    assert ser.result_to_obj(Inconsistent("boom")) == {
        "result": "inconsistent",
        "detail": "boom",
    }
    with pytest.raises(TypeError):
        ser.result_to_obj("nope")


def test_report_serialization_shape():
    obj = ser.report_to_obj(check_thm21([[1, 2], [3, 4]]))
    assert obj["identity"] == "2.1"
    assert obj["verdict"] == "holds"
    assert obj["lhs"] == "-4" and obj["rhs"] == "-4"
    assert obj["instance"] == {"matrix": [["1", "2"], ["3", "4"]]}


def test_value_to_obj_covers_scalars_and_polys():
    assert ser.value_to_obj(Fraction(5, 3)) == "5/3"
    assert ser.value_to_obj(P(1, 2)) == ["1", "2"]


def test_canonical_json_is_key_sorted_and_compact():
    assert ser.to_canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_load_json_errors(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ser.FormatError):
        ser.load_json(str(path))


def test_a_rewrite_in_place_equals_a_fresh_write(tmp_path):
    # A 4-arc deck, then a 1-arc one (shorter), into one path; then a short
    # text, a longer one and none. Each file holds exactly the new bytes.
    path = tmp_path / "out"
    star = Digraph(n=3, arcs=((0, 1), (1, 0), (0, 2), (2, 0)))
    single = Digraph(n=3, arcs=((0, 1),))
    for g in (star, single):
        obj = ser.deck_to_obj(deck(g, parse_kind("f1")))
        ser.dump_json(obj, str(path))
        assert path.read_bytes() == (ser.to_canonical_json(obj) + "\n").encode()
    for text in ("ab\n", "a longer text\n" * 50, ""):
        ser.write_text(str(path), text)
        assert path.read_bytes() == text.encode()


def test_a_new_file_gets_mode_0o666_less_the_umask(tmp_path):
    for umask in (0o022, 0o077):
        old = os.umask(umask)
        try:
            path = tmp_path / f"new-{umask:o}"
            ser.write_text(str(path), "x\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


class _FailsMidway:
    """A file object whose first write takes half the bytes, then whose
    next write raises ENOSPC, as a file system running out of room does."""

    def __init__(self, fh):
        self.fh, self.calls = fh, 0

    def write(self, data):
        self.calls += 1
        if self.calls > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data[:max(1, len(data) // 2)])

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_a_write_that_fails_midway_leaves_no_old_byte(tmp_path, monkeypatch):
    path = tmp_path / "out"
    path.write_text("old content " * 100)
    wrappers = []

    def failing_open(*args, **kwargs):
        wrappers.append(_FailsMidway(builtins.open(*args, **kwargs)))
        return wrappers[-1]

    monkeypatch.setattr(ser, "open", failing_open, raising=False)
    with pytest.raises(OSError) as raised:
        ser.write_text(str(path), "new text, shorter\n")
    assert raised.value.errno == errno.ENOSPC and wrappers[0].calls == 2
    assert path.read_bytes() == b""
