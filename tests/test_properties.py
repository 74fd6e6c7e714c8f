"""Property tests: relabelling invariance, serialize round trips, and no
missed round trip, on weighted digraphs with up to 6 vertices; and the
relabelling rules of the permanental kernel and the zeroing sweeps on
integer matrices.

Examples are derandomized, so the suite is deterministic.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from deckpoly import matrices as mx  # noqa: E402
from deckpoly import serialize as ser  # noqa: E402
from deckpoly.digraphs import Digraph, all_arc_slots  # noqa: E402
from deckpoly.graph_polys import SIX_KINDS, PolyKind, deck, poly_of  # noqa: E402
from deckpoly.reconstruct import outcome, reconstruct  # noqa: E402
from oracles import adjugate_entries  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
nonzero_rationals = rationals.filter(bool)


@st.composite
def weighted_digraphs(draw, max_n=6, min_m=0):
    n = draw(st.integers(1 if min_m == 0 else 2, max_n))
    slots = all_arc_slots(n)
    arcs = draw(st.lists(st.sampled_from(slots), min_size=min_m, unique=True)) if slots else []
    if draw(st.booleans()):
        return Digraph(n, tuple(arcs))
    return Digraph(n, tuple(arcs), tuple(draw(nonzero_rationals) for _ in arcs))


kinds = st.one_of(
    st.sampled_from(SIX_KINDS),
    st.builds(PolyKind, rationals, nonzero_rationals, st.sampled_from(("det", "per"))),
)


def relabel(g, perm):
    return Digraph(g.n, tuple((perm[s], perm[t]) for s, t in g.arcs), g.weights)


@PROPERTY
@given(weighted_digraphs(min_m=1), kinds, st.randoms(use_true_random=False))
def test_poly_of_and_deck_are_invariant_under_relabelling(g, kind, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert poly_of(h, kind) == poly_of(g, kind)
    assert deck(h, kind) == deck(g, kind)


@st.composite
def matrices_and_wanted(draw, max_n=6):
    """An integer matrix of small, zero and 40-bit entries, and a `wanted`
    of random (t, j) entries."""
    n = draw(st.integers(1, max_n))
    values = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**40, 2**40))
    matrix = [[draw(values) for _ in range(n)] for _ in range(n)]
    wanted = {}
    for t, j in draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        wanted.setdefault(t, set()).add(j)
    return matrix, wanted


@PROPERTY
@given(matrices_and_wanted(), st.data())
def test_per_adjugate_rows_commutes_with_relabelling(case, data):
    # With (P M P^T)[p[i]][p[j]] = M[i][j], x*I - P M P^T = P (x*I - M) P^T:
    # the permanent is the same, and the minor without row j and column t,
    # read off the card of (j, t, 1, 0), is the one without row p[j] and
    # column p[t].
    matrix, wanted = case
    n = len(matrix)
    p = data.draw(st.permutations(range(n)))
    moved = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            moved[p[i]][p[j]] = v
    coeffs, entries = adjugate_entries(mx.per_cards, matrix, wanted)
    moved_wanted = {p[t]: {p[j] for j in js} for t, js in wanted.items()}
    moved_coeffs, moved_entries = adjugate_entries(mx.per_cards, moved, moved_wanted)
    assert (moved_coeffs, moved_entries) == (
        coeffs, {(p[t], p[j]): entry for (t, j), entry in entries.items()})


@PROPERTY
@given(matrices_and_wanted(), st.data())
def test_zeroing_sweeps_commute_with_relabelling(case, data):
    # Zeroing entry (i, j) of M zeroes entry (p[i], p[j]) of P M P^T, whose
    # det and per are M's: relabelling the positions permutes the values.
    matrix, _ = case
    n = len(matrix)
    p = data.draw(st.permutations(range(n)))
    moved = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            moved[p[i]][p[j]] = v
    positions = [(i, j) for i in range(n) for j in range(n)]
    for sweep in (mx.zeroed_dets, mx.zeroed_pers):
        assert sweep(moved, n, [(p[i], p[j]) for i, j in positions]) == sweep(matrix, n, positions)


@PROPERTY
@given(weighted_digraphs(), kinds)
def test_digraph_and_deck_payloads_round_trip(g, kind):
    text = ser.to_canonical_json(ser.digraph_to_obj(g))
    assert ser.digraph_from_obj(json.loads(text)) == g
    if g.m:
        d = deck(g, kind)
        text = ser.to_canonical_json(ser.deck_to_obj(d))
        assert ser.deck_from_obj(json.loads(text)) == d
        total = sum(g.arc_weights(), Fraction(0))
        assert d.arc_weight == (None if total == g.m else total)


@PROPERTY
@given(weighted_digraphs(min_m=1), kinds)
def test_roundtrip_never_misses_on_weighted_digraphs(g, kind):
    assert outcome(reconstruct(deck(g, kind)), poly_of(g, kind)) in ("recovered", "covered")


@settings(PROPERTY, max_examples=500)
@given(st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30)),
       st.one_of(st.integers(1, 12), st.integers(1, 10**30)))
def test_rational_str_is_str_of_fraction(p, q):
    # The small ranges hit the reducing branches (q divides p, common factors).
    assert ser._rational_str(p, q) == str(Fraction(p, q))
