"""Deck-sum reconstruction: forced coefficients, side constraints, families."""

import random
from fractions import Fraction

import pytest

from deckpoly import polynomials as poly
from deckpoly.digraphs import Digraph, directed_cycle, enumerate_digraphs
from deckpoly.graph_polys import F1, F2, F4, F5, SIX_KINDS, Deck, PolyKind, deck, poly_of
from deckpoly.identities import random_digraph
from deckpoly.reconstruct import (
    Inconsistent,
    OneParameterFamily,
    Unique,
    reconstruct,
    verify_roundtrip,
)
from deckpoly.search import canonical_counterexample
from oracles import P, deck_sum, xpow

STAR_OF_DIGONS = Digraph(3, ((0, 1), (1, 0), (0, 2), (2, 0)))


def test_deck_sum_examples():
    for n in range(3, 6):
        assert deck_sum(deck(directed_cycle(n), F1)) == P(*([0] * n + [n]))
    assert deck_sum(Deck.from_polys(2, F1, (xpow(2),))) == xpow(2)
    assert deck_sum(deck(STAR_OF_DIGONS, F1)) == P(0, -4, 0, 4)


def test_reconstruct_empty_deck_raises():
    with pytest.raises(ValueError):
        reconstruct(Deck.from_polys(2, F1, ()))


def test_reconstruct_star_of_digons_is_unique():
    # Divisions: c3 = 4/4, c2 = 0/3, c1 = -4/2, c0 = 0/1.
    result = reconstruct(deck(STAR_OF_DIGONS, F1))
    assert result == Unique(P(0, -2, 0, 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reconstruct_cycle_f1_is_one_parameter_family(n):
    result = reconstruct(deck(directed_cycle(n), F1))
    assert isinstance(result, OneParameterFamily)
    assert result.free_exponent == 0
    assert result.base == xpow(n)
    # Both genuine preimages sit inside the family: they differ from the
    # base only in the constant coefficient.
    for truth in (poly_of(directed_cycle(n), F1), poly_of(canonical_counterexample(n)[1], F1)):
        diff = poly.sub(truth, result.base)
        assert all(c == 0 for k, c in enumerate(diff) if k != 0)


def test_every_family_member_satisfies_the_deck_equation():
    # base + C * x^free_exponent must solve (m-n)*g + x*g' = deck sum for all C.
    for n in (3, 4):
        d = deck(directed_cycle(n), F1)
        result = reconstruct(d)
        assert isinstance(result, OneParameterFamily)
        s = deck_sum(d)
        m = len(d.polys)
        for c in (0, 1, -2):
            g = poly.add(result.base, poly.scale(xpow(result.free_exponent), c))
            # Coefficient k of (m - n) * g + x * g' is (m - n + k) * c_k.
            lhs = P(*((m - n + k) * coeff for k, coeff in enumerate(g)))
            assert lhs == s


def test_reconstruct_m_equals_n_laplacian_is_pinned_to_zero_constant():
    # Any det kind with beta = -gamma has c_0 = 0, not only f2.
    for g, kind in ((directed_cycle(3), F2), (directed_cycle(4), F2),
                    (canonical_counterexample(4)[1], F2),
                    (directed_cycle(4), PolyKind(2, -2, "det"))):
        result = reconstruct(deck(g, kind))
        assert result == Unique(poly_of(g, kind))
        assert result.poly[0] == 0


def test_reconstruct_single_arc_laplacian_uses_trace_rule():
    d = Deck.from_polys(2, F2, (xpow(2),))
    assert reconstruct(d) == Unique(P(0, -1, 1))
    # Same deck under f1: the trace rule pins coefficient 1 to zero.
    assert reconstruct(Deck.from_polys(2, F1, (xpow(2),))) == Unique(xpow(2))


def test_reconstruct_weighted_single_arc_uses_the_total_arc_weight():
    # Every single-arc deck is x^n alone, so the weight must travel in the deck.
    g = Digraph(3, ((0, 1),), (Fraction(5),))
    d = deck(g, F2)
    assert d.polys == (xpow(3),) and d.arc_weight == 5
    assert reconstruct(d) == Unique(P(0, 0, -5, 1)) == Unique(poly_of(g, F2))
    # A total equal to m, weighted or not, leaves the field unset.
    assert deck(Digraph(3, ((0, 1),), (Fraction(1),)), F2).arc_weight is None
    assert deck(Digraph(3, ((0, 1), (1, 2)), (Fraction(1, 2), Fraction(3, 2))), F2).arc_weight is None
    assert deck(STAR_OF_DIGONS, F2).arc_weight is None


def test_reconstruct_m_greater_than_n_exhaustive_small():
    for m in range(4, 7):
        for g in enumerate_digraphs(3, m):
            for kind in SIX_KINDS:
                assert reconstruct(deck(g, kind)) == Unique(poly_of(g, kind))


def test_unique_results_are_monic():
    rng = random.Random(53)
    for _ in range(20):
        g = random_digraph(rng, 5)
        if g.m == 0:
            continue
        for kind in (F1, F5):
            result = reconstruct(deck(g, kind))
            if isinstance(result, Unique):
                assert result.poly[-1] == 1


def test_m_equals_n_decks_have_vanishing_constant_sum():
    rng = random.Random(59)
    checked = 0
    for _ in range(3000):
        if checked == 15:
            break
        g = random_digraph(rng, 5)
        if g.m != g.n:
            continue
        for kind in SIX_KINDS:
            s = deck_sum(deck(g, kind))
            assert poly.evaluate(s, 0) == 0
        checked += 1
    assert checked == 15


def test_inconsistent_when_annihilated_sum_is_nonzero():
    # m=1, n=2: coefficient 1 must vanish in the deck sum, x^2 + x breaks it.
    result = reconstruct(Deck.from_polys(2, F1, (P(0, 1, 1),)))
    assert isinstance(result, Inconsistent)
    assert "coefficient 1" in result.detail


def test_inconsistent_when_leading_sum_is_wrong():
    result = reconstruct(Deck.from_polys(2, F1, (P(0, 0, 2),)))
    assert isinstance(result, Inconsistent)
    assert "leading" in result.detail


@pytest.mark.parametrize("n, kind, polys, arc_weight, detail", [
    pytest.param(1, F1, [P(0, 1)], None, "more than the 0 arcs", id="n1-one-member"),
    pytest.param(2, F1, [xpow(2)] * 3, None, "more than the 2 arcs", id="n2-three-members"),
    pytest.param(2, F2, [xpow(2)], Fraction(0), "arc_weight 0", id="n2-zero-arc-weight"),
])
def test_decks_no_digraph_has_are_inconsistent(n, kind, polys, arc_weight, detail):
    # More members than the n(n - 1) arcs a loopless digraph on n vertices
    # can have, or a single arc of weight 0.
    result = reconstruct(Deck.from_polys(n, kind, polys, arc_weight))
    assert isinstance(result, Inconsistent) and detail in result.detail


def test_leading_sum_reads_rational_leading_coefficients():
    # A leading sum of m is not enough: 1/2 + 3/2 = m, but every member must
    # be monic, its leading entry read over the column's denominator.
    half, three_halves = P(0, 0, Fraction(1, 2)), P(0, 0, Fraction(3, 2))
    result = reconstruct(Deck.from_polys(2, F1, (half, three_halves)))
    assert isinstance(result, Inconsistent) and "coefficient 1/2 != 1" in result.detail
    result = reconstruct(Deck.from_polys(2, F1, (three_halves,)))
    assert isinstance(result, Inconsistent) and "coefficient 3/2 != 1" in result.detail
    # A monic member passes whatever the other columns' denominators.
    result = reconstruct(Deck.from_polys(2, F1, (P(Fraction(1, 2), 0, 1),)))
    assert result == Unique(P(Fraction(-1, 2), 0, 1))


def test_roundtrip_outcomes():
    assert verify_roundtrip(STAR_OF_DIGONS, F1).outcome == "recovered"
    report = verify_roundtrip(directed_cycle(4), F1)
    assert report.outcome == "covered"
    assert isinstance(report.result, OneParameterFamily)
    assert verify_roundtrip(directed_cycle(4), F2).outcome == "recovered"
    assert verify_roundtrip(directed_cycle(4), F4).outcome == "covered"


def test_roundtrip_never_misses_on_unweighted_digraphs():
    rng = random.Random(61)
    for _ in range(25):
        g = random_digraph(rng, 5)
        if g.m == 0:
            continue
        for kind in SIX_KINDS:
            report = verify_roundtrip(g, kind)
            assert report.outcome in ("recovered", "covered")
            if g.m > g.n:
                assert report.outcome == "recovered"
