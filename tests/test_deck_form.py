"""Deck's scaled-integer form: byte-identical JSON, one canonical form by
every route, and the pair parser (tests/test_properties.py holds the
string helper's property test)."""

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from deckpoly import polynomials as poly
from deckpoly import serialize as ser
from deckpoly.graph_polys import F1, F5, Deck, deck, parse_kind, parse_rational
from deckpoly.identities import random_digraph
from oracles import deck_sum

# The six named kinds, the roundtrip benchmark's general kind and one more
# general kind per mode.
PINNED_KINDS = ("f1", "f2", "f3", "f4", "f5", "f6", "general:1/2,-3/2,det",
                "general:-2/3,3/4,per", "general:0,5/2,det")
# sha256 of the newline-joined canonical deck JSON of pinned_decks(),
# recorded when decks still held Fraction tuples.
PINNED_SHA256 = "499e399760ba181e889581e1d275fa1a8e7addb94d0dc16bd6b4072dbd3ceb0e"


def pinned_decks():
    """176 decks: 12 unweighted and 12 weighted random digraphs per kind,
    n <= 12 in det mode and n <= 7 in per mode, arcless ones skipped."""
    rng = random.Random(2305)
    for name in PINNED_KINDS:
        kind = parse_kind(name)
        max_n = 12 if kind.mode == "det" else 7
        for _ in range(12):
            for weighted in (False, True):
                g = random_digraph(rng, max_n, weighted)
                if g.m:
                    yield deck(g, kind)


def test_deck_json_bytes_are_pinned():
    texts = [ser.to_canonical_json(ser.deck_to_obj(d)) for d in pinned_decks()]
    assert len(texts) == 176
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == PINNED_SHA256


def test_every_route_gives_one_canonical_deck():
    for d in pinned_decks():
        shuffled = list(d.polys)
        random.Random(len(shuffled)).shuffle(shuffled)
        routes = (
            Deck.from_polys(d.n, d.kind, shuffled, d.arc_weight),
            ser.deck_from_obj(json.loads(ser.to_canonical_json(ser.deck_to_obj(d)))),
        )
        for other in routes:
            assert other == d and hash(other) == hash(d)
        polys = d.polys
        assert list(polys) == sorted(polys)
        for k, den in enumerate(d.denominators):
            assert den == lcm(*(p[k].denominator for p in polys))
        sums = [sum(column, Fraction(0)) for column in zip(*polys)]
        assert deck_sum(d) == poly.normalize(sums)


def test_from_polys_strips_trailing_zeros_and_checks_the_degree():
    d = Deck.from_polys(2, F1, [(0, Fraction(1, 2), 1, 0), (Fraction(-1, 3), 0, 1)])
    assert d.coefficients == ((-1, 0, 1), (0, 1, 1))
    assert d.denominators == (3, 2, 1)
    assert d.polys == ((Fraction(-1, 3), 0, 1), (0, Fraction(1, 2), 1))
    with pytest.raises(ValueError, match="degree 1, expected 2"):
        Deck.from_polys(2, F1, [(0, 1, 0)])
    empty = Deck.from_polys(3, F5, ())
    assert empty.coefficients == () and empty.polys == ()


def test_an_all_zero_member_is_named_as_degree_0():
    # Stripping trailing zeros keeps the constant term, so the zero
    # polynomial has degree 0 and the error says so.
    for read in (lambda: Deck.from_polys(2, F1, [(0, 0, 0)]),
                 lambda: ser.deck_from_obj({"n": 2, "kind": "f1", "polys": [["0", "0", "0"]]})):
        with pytest.raises(ser.FormatError, match=r"degree 0, expected 2$"):
            read()


def test_an_empty_deck_keeps_its_degree():
    empty = Deck.from_polys(3, F5, ())
    assert empty.n == 3 and empty.denominators == (1, 1, 1, 1)


def test_a_directly_built_deck_is_canonical():
    built = Deck(F1, ((0, 0, 2),), (1, 1, 2))
    routed = Deck.from_polys(2, F1, [(0, 0, 1)])
    assert built == routed and hash(built) == hash(routed)
    assert Deck(F1, ((2, 1), (0, 1)), (4, 1)) == Deck.from_polys(1, F1, [(Fraction(1, 2), 1), (0, 1)])


@pytest.mark.parametrize("coefficients, denominators, message", [
    (((0, 1),), (1, 1, 1), "3 coefficients"),
    (((0, 0, 1), (0, 1)), (1, 1, 1), "3 coefficients"),
    (((0, 0, 1),), (1, 1), "2 coefficients"),
    (((0, 0, 1),), (1, 1, 1, 1), "4 coefficients"),
    (((0, 0, 1),), (1, 0, 1), "denominators must be >= 1"),
    (((0, 0, 1),), (1, -2, 1), "denominators must be >= 1"),
])
def test_deck_rejects_a_malformed_form(coefficients, denominators, message):
    with pytest.raises(ValueError, match=message):
        Deck(F1, coefficients, denominators)


def test_rational_pair_is_reduced():
    for text, pair in (("6/4", (3, 2)), ("-6/3", (-2, 1)), ("0/7", (0, 1)), ("-12", (-12, 1))):
        value = parse_rational(text)
        assert (value.numerator, value.denominator) == pair
