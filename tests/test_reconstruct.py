"""Deck-sum reconstruction: forced coefficients, side constraints, families."""

import random
from fractions import Fraction

import pytest

from deckpoly import polynomials as poly
from deckpoly.digraphs import Digraph, all_arc_slots, directed_cycle, enumerate_digraphs
from deckpoly.graph_polys import (
    F1,
    F2,
    F4,
    F5,
    SIX_KINDS,
    Deck,
    PolyKind,
    deck,
    parse_kind,
    poly_of,
)
from deckpoly.identities import random_digraph, random_nonzero_rational
from deckpoly.reconstruct import (
    Inconsistent,
    OneParameterFamily,
    Unique,
    outcome,
    reconstruct,
)
from deckpoly.search import canonical_counterexample
from oracles import P, deck_sum, evaluate, xpow

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
            g = poly.sub(result.base, P(*([0] * result.free_exponent), -c))
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


@pytest.mark.parametrize("arcs, weights", [
    pytest.param(((0, 1), (1, 2), (2, 0), (0, 2)), (2, 3, Fraction(1, 2), 1), id="m4-unique"),
    pytest.param(((0, 1), (1, 2)), (2, 3), id="m2-family"),
])
def test_a_set_arc_weight_the_forced_trace_disagrees_with_is_inconsistent(arcs, weights):
    # At m >= 2 the column sums force c_{n-1}, and every pencil polynomial
    # has c_{n-1} = -beta * W, W the total arc weight.
    g = Digraph(3, arcs, tuple(map(Fraction, weights)))
    d = deck(g, F2)
    expected = outcome(reconstruct(d), poly_of(g, F2))
    assert d.arc_weight == sum(g.weights) and expected in ("recovered", "covered")
    edited = Deck(d.kind, d.coefficients, d.denominators, Fraction(7))
    result = reconstruct(edited)
    assert isinstance(result, Inconsistent) and "trace rule" in result.detail
    # Without the field W reads as m, which these weights do not sum to, so
    # the deck is inconsistent too; with beta = 0, c_{n-1} is 0 whatever W.
    bare = reconstruct(Deck(d.kind, d.coefficients, d.denominators))
    assert isinstance(bare, Inconsistent)
    assert bare.detail.endswith(f"the trace rule gives -beta * W = {-len(arcs)} "
                                f"for the arc weight W = {len(arcs)}")
    d1 = deck(g, F1)
    assert outcome(reconstruct(Deck(F1, d1.coefficients, d1.denominators, Fraction(7))),
                   poly_of(g, F1)) in ("recovered", "covered")


@pytest.mark.parametrize("arc_weight", [None, Fraction(7)])
def test_an_f1_deck_whose_forced_trace_is_not_0_is_inconsistent(arc_weight):
    # Under f1 beta = 0, so c_{n-1} = 0 whatever W; one member's c_2 raised
    # by 1 forces c_2 = 1/3.
    members = list(map(list, deck(STAR_OF_DIGONS, F1).polys))
    members[0][2] += 1
    result = reconstruct(Deck.from_polys(3, F1, members, arc_weight))
    assert isinstance(result, Inconsistent) and "coefficient 2 is 1/3" in result.detail


def test_no_edited_deck_is_answered_unique_and_wrong():
    # Aim 3's first rule on seeded random digraphs with m >= 2, half of them
    # unweighted (a deck without arc_weight): a true deck is recovered or
    # covered, and a deck with its arc_weight deleted or replaced, or one
    # member's c_{n-1} raised by 1, is never Unique with another polynomial.
    rng = random.Random(2305)
    kinds = (*SIX_KINDS, parse_kind("general:1/2,-3/2,det"))
    for _ in range(100):
        n = rng.randint(2, 5)
        arcs = tuple(sorted(rng.sample(all_arc_slots(n), rng.randint(2, n * (n - 1)))))
        weights = None if rng.random() < 0.5 else tuple(random_nonzero_rational(rng) for _ in arcs)
        g = Digraph(n, arcs, weights)
        for kind in kinds:
            expected, d = poly_of(g, kind), deck(g, kind)
            assert outcome(reconstruct(d), expected) in ("recovered", "covered")
            raised = [list(p) for p in d.polys]
            raised[rng.randrange(len(raised))][n - 1] += 1
            weight = len(arcs) if d.arc_weight is None else d.arc_weight
            for edited in (Deck(kind, d.coefficients, d.denominators),
                           Deck(kind, d.coefficients, d.denominators, weight + 1),
                           Deck.from_polys(n, kind, raised, d.arc_weight)):
                result = reconstruct(edited)
                assert not isinstance(result, Unique) or result.poly == expected, (g, kind)


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
            assert evaluate(s, 0) == 0
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
    star, c4 = STAR_OF_DIGONS, directed_cycle(4)
    assert outcome(reconstruct(deck(star, F1)), poly_of(star, F1)) == "recovered"
    result = reconstruct(deck(c4, F1))
    assert outcome(result, poly_of(c4, F1)) == "covered"
    assert isinstance(result, OneParameterFamily)
    assert outcome(reconstruct(deck(c4, F2)), poly_of(c4, F2)) == "recovered"
    assert outcome(reconstruct(deck(c4, F4)), poly_of(c4, F4)) == "covered"


def test_outcome_reads_each_result():
    family = OneParameterFamily(P(-1, 0, 0, 1), 0)
    assert outcome(Unique(xpow(3)), xpow(3)) == "recovered"
    assert outcome(Unique(xpow(3)), P(1, 0, 0, 1)) == "missed"
    # A family covers any value at its free exponent, and nothing else.
    assert outcome(family, xpow(3)) == outcome(family, P(5, 0, 0, 1)) == "covered"
    assert outcome(family, P(-1, 1, 0, 1)) == "missed"
    assert outcome(family, P(-1, 0, 1)) == "missed"
    assert outcome(Inconsistent("no digraph"), xpow(3)) == "missed"


def test_outcome_reads_a_missing_coefficient_as_0():
    # A polynomial of another length than the base: the coefficients one
    # side lacks are 0, so x^2 + 1 with x free covers neither 1 nor
    # x^3 + x^2 + 1.
    family = OneParameterFamily(P(1, 0, 1), 1)
    assert outcome(family, P(1)) == outcome(family, P(1, 0, 1, 1)) == "missed"
    assert outcome(family, P(1, 5, 1)) == "covered"


def test_roundtrip_never_misses_on_unweighted_digraphs():
    rng = random.Random(61)
    for _ in range(25):
        g = random_digraph(rng, 5)
        if g.m == 0:
            continue
        for kind in SIX_KINDS:
            verdict = outcome(reconstruct(deck(g, kind)), poly_of(g, kind))
            assert verdict in ("recovered", "covered")
            if g.m > g.n:
                assert verdict == "recovered"
