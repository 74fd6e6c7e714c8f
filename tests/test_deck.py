"""deck by column linearity against the deletion oracle, and past
poly_of_oracle's cap against the functional-subdigraph expansion; and its
two card kernels against sympy, the permutation expansion, Glynn's
formula, Berkowitz and Horner: each card against the updated pencil, and
each adjugate entry read off a card (oracles.adjugate_entries)."""

import random
from fractions import Fraction
from itertools import product

import pytest

from deckpoly import digraphs as dg
from deckpoly import matrices as mx
from deckpoly import polynomials as poly
from deckpoly.digraphs import Digraph
from deckpoly.graph_polys import F1, F4, SIX_KINDS, PolyKind, deck, parse_kind, poly_of
from deckpoly.identities import random_digraph, random_nonzero_rational
from oracles import (adjugate_entries, choice_matrix, deletion_deck, functional_expansion, glynn_permanent,
                     horner_adjugate_rows, l_scaled_matrix, permutation_expansion, random_kind)

GENERAL_KINDS = (PolyKind(Fraction(1, 3), Fraction(-5, 2), "det"),
                 PolyKind(Fraction(-2, 3), Fraction(3, 4), "per"))


@pytest.mark.parametrize("n, kinds", [
    (2, SIX_KINDS + GENERAL_KINDS),
    (3, SIX_KINDS + GENERAL_KINDS),
    (4, (F1, F4)),
])
def test_deck_matches_deletion_oracle_exhaustively(n, kinds):
    for m in range(1, n * (n - 1) + 1):
        for g in dg.enumerate_digraphs(n, m):
            for kind in kinds:
                assert deck(g, kind).polys == deletion_deck(g, kind), (g, kind)


# Digons (0,1)/(1,0) and (2,3)/(3,2), head 2 of in-degree 3, and heads 0,
# 1, 2, 3 that are also tails.
TANGLE = Digraph(5, ((0, 1), (1, 0), (0, 2), (1, 2), (3, 2), (2, 3), (4, 3)))


@pytest.mark.parametrize("mode, max_n", [("det", 10), ("per", 8)])
def test_deck_matches_deletion_oracle_on_random_weighted_digraphs(mode, max_n):
    rng = random.Random(83 if mode == "det" else 89)
    named = [kind for kind in SIX_KINDS if kind.mode == mode]
    weights = tuple(random_nonzero_rational(rng) for _ in TANGLE.arcs)
    cases = [TANGLE, Digraph(TANGLE.n, TANGLE.arcs, weights)]
    cases += [random_digraph(rng, max_n, weighted=bool(rng.getrandbits(1))) for _ in range(25)]
    for g in cases:
        if g.m == 0:
            continue
        for kind in (rng.choice(named), random_kind(rng, mode)):
            d = deck(g, kind)
            assert d.polys == deletion_deck(g, kind), (g, kind)
            total = sum(g.arc_weights(), Fraction(0))
            assert d.arc_weight == (None if g.weights is None or total == g.m else total)


# Arcs into head 2 of weights -3 and 3 cancel in M = L*B: its diagonal
# entry at 2 is 0 under general:3,-1,per (beta = 3), but deleting either arc
# leaves beta*w = -9 or 9 there. So a card's row can sum past M's, and a
# packing bound from M alone, B = 9, decodes a card coefficient 540 > 2^8
# as -28.
CANCELLING_HEAD = Digraph(3, ((0, 1), (0, 2), (1, 0), (1, 2)), tuple(map(Fraction, (-3, -3, -2, 3))))


def test_deck_packing_bound_covers_the_cards():
    kind = parse_kind("general:3,-1,per")
    polys = deck(CANCELLING_HEAD, kind).polys
    assert polys == deletion_deck(CANCELLING_HEAD, kind)
    assert (-540, -75, 6, 1) in polys and (540, 195, 24, 1) in polys


@pytest.mark.parametrize("mode", ["det", "per"])
def test_kernels_match_the_functional_expansion_past_the_oracle_cap(mode):
    # poly_of_oracle stops at 7 vertices; the expansion walks the functional
    # arc sets, few on a sparse digraph, so it reaches the permanent cap.
    rng = random.Random(97 if mode == "det" else 101)
    named = [kind for kind in SIX_KINDS if kind.mode == mode]
    for trial in range(30):
        n = rng.randint(8, 16)
        arcs = tuple(sorted(rng.sample(dg.all_arc_slots(n), rng.randint(1, n + 4))))
        weights = tuple(random_nonzero_rational(rng) for _ in arcs) if trial % 2 else None
        g = Digraph(n, arcs, weights)
        for kind in (rng.choice(named), random_kind(rng, mode)):
            poly, cards = functional_expansion(g, kind)
            assert poly_of(g, kind) == poly, (g, kind)
            assert deck(g, kind).polys == tuple(sorted(cards)), (g, kind)


def sympy_adjugate_entries(matrix, wanted):
    """Entries (t, j) of the polynomial and the permanental adjugate of
    x*I - M, from sympy's cofactors and Matrix.per() minors, as ascending
    coefficients."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    n = len(matrix)
    q = x * sympy.eye(n) - sympy.Matrix(matrix)

    def coeffs(expr):
        out = [0] * n
        for (k,), c in sympy.Poly(expr, x).terms():
            out[k] = int(c)
        return out

    det, per = {}, {}
    for t, cols in wanted.items():
        for j in cols:
            minor = q.minor_submatrix(j, t)
            det[t, j] = coeffs((-1) ** (t + j) * minor.det() if n > 1 else 1)
            per[t, j] = coeffs(minor.per() if n > 1 else 1)
    return det, per


def test_adjugate_kernels_match_sympy():
    # Every entry up to order 3; one row (all columns) at orders 4 and 5,
    # where sympy's symbolic permanents get slow.
    rng = random.Random(97)
    for n in (1, 2, 2, 3, 3, 4, 5):
        density = rng.choice((0.4, 0.7, 1.0))
        matrix = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
                  for _ in range(n)]
        rows = range(n) if n < 4 else [rng.randrange(n)]
        wanted = {t: list(range(n)) for t in rows}
        det, per = sympy_adjugate_entries(matrix, wanted)
        assert adjugate_entries(mx.det_cards, matrix, wanted) == (mx.charpoly_berkowitz(matrix), det)
        assert adjugate_entries(mx.per_cards, matrix, wanted) == (mx.per_cards(matrix, [])[0], per)


def test_adjugate_kernels_return_only_the_wanted_entries():
    # One card per update, in update order: the entries (1, 0), (1, 1) and
    # (2, 2), and a card whose d enters at (2, 2) alone.
    matrix = [[0, 2, 0], [1, 0, 3], [0, -1, 0]]
    updates = [(0, 1, 1, 0), (1, 1, 1, 0), (2, 2, 1, 0), (1, 2, 0, 5)]
    for kernel in (mx.det_cards, mx.per_cards):
        coeffs, cards = kernel(matrix, updates)
        assert len(cards) == len(updates)
        assert cards[3] == kernel(matrix, updates[3:])[1][0]
    # Entry (2, 2): det and per of the leading 2x2 block of x*I - M, which
    # is what the card of (2, 2, 1, 0) adds to K.
    _, det = adjugate_entries(mx.det_cards, matrix, {1: [0, 1], 2: [2]})
    _, per = adjugate_entries(mx.per_cards, matrix, {1: [0, 1], 2: [2]})
    assert list(det) == list(per) == [(1, 0), (1, 1), (2, 2)]
    assert det[2, 2] == [-2, 0, 1]
    assert per[2, 2] == [2, 0, 1]


def test_adjugate_kernels_check_their_inputs():
    with pytest.raises(ValueError):
        mx.det_cards([[Fraction(1, 2)]], [(0, 0, 1, 0)])
    with pytest.raises(ValueError):
        mx.per_cards([[0] * 17 for _ in range(17)], [(0, 0, 1, 0)])


def check_adjugate(matrix, signed):
    """det_cards (signed) or per_cards with every entry read off a card
    against the permutation expansion of x*I - M and of its minors at
    integer x: the polynomial is interpolated from x = 0..n, as
    test_matrices.interpolated does, and each minor, which has n
    coefficients, is compared at x = 0..n-1, where its values fix it
    (interpolating all n^2 minors in Fractions would take most of the
    time). Entry (t, j) of the adjugate is the minor without row j and
    column t, signed by (-1)^(t+j) in det mode."""
    n = len(matrix)
    kernel = mx.det_cards if signed else mx.per_cards
    coeffs, entries = adjugate_entries(kernel, matrix, {t: range(n) for t in range(n)})
    assert sorted(entries) == [(t, j) for t in range(n) for j in range(n)]
    assert {len(e) for e in entries.values()} == {n}
    points = []
    for x in range(n + 1):
        pencil = [[int(i == j) * x - matrix[i][j] for j in range(n)] for i in range(n)]
        points.append((x, permutation_expansion(pencil, signed)))
        if x == n:
            break
        for (t, j), entry in entries.items():
            rows = [row[:t] + row[t + 1:] for r, row in enumerate(pencil) if r != j]
            # The minor of an order-1 matrix is the empty product, 1.
            want = permutation_expansion(rows, signed) if n > 1 else 1
            if signed and (t + j) % 2:
                want = -want
            assert sum(c * x ** k for k, c in enumerate(entry)) == want, (matrix, t, j, x)
    assert poly.normalize(coeffs) == poly.interpolate(points), matrix


# Order 1 is one extension of the empty state, and its minor is the empty
# product, 1. Small 0/1 and sign matrices make sweep states that cancel to
# 0, rows whose only nonzero is the diagonal x, and row powers that vanish
# early.
SMALL_MATRIX_VALUES = ((1, (-1, 0, 1)), (2, (-1, 0, 1)), (3, (0, 1)))


def small_matrices():
    for n, values in SMALL_MATRIX_VALUES:
        for flat in product(values, repeat=n * n):
            yield [list(flat[i * n:(i + 1) * n]) for i in range(n)]


def sparse_matrices():
    rng = random.Random(1409)
    for _ in range(300):
        density = rng.choice((0.5, 0.7, 0.85))
        yield choice_matrix(rng, rng.randint(4, 6), density, 2)


def test_per_adjugate_rows_matches_expansion_on_every_small_matrix():
    for matrix in small_matrices():
        check_adjugate(matrix, signed=False)


def test_per_adjugate_rows_matches_expansion_on_random_sparse_matrices():
    for matrix in sparse_matrices():
        check_adjugate(matrix, signed=False)


def test_adjugate_rows_matches_expansion_on_every_small_matrix():
    for matrix in small_matrices():
        check_adjugate(matrix, signed=True)


def test_adjugate_rows_matches_expansion_on_random_sparse_matrices():
    for matrix in sparse_matrices():
        check_adjugate(matrix, signed=True)


def packing_cases():
    """Orders 1-9, dense and sparse, mixed signs and each single sign; and
    a zero row, whose row of x*I - M is x on the diagonal alone, so both
    sweeps extend each state at that row by that one entry. All entries
    <= 0 is the worst case for the packing bound: x*I - M is then
    nonnegative for x >= 0, so no sum of terms cancels and every
    coefficient takes its largest magnitude for the given |M|."""
    rng = random.Random(2311)
    for n in range(1, 10):
        for density, sign in ((1.0, 0), (0.5, 0), (1.0, -1), (1.0, 1), (0.5, -1)):
            yield l_scaled_matrix(rng, n, density, sign)
        matrix = l_scaled_matrix(rng, n, 1.0, -1)
        matrix[rng.randrange(n)] = [0] * n
        yield matrix


def at(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


def check_per_against_glynn(matrix, coeffs, entries):
    """coeffs and entries, as per_cards gives them for `matrix`,
    against Glynn's formula (glynn_permanent, which shares no code with the
    subset sweeps) on the pencil at x = 0..n and on each minor in `entries`
    at x = 0..n-1, which fix polynomials of n + 1 and n coefficients."""
    n = len(matrix)
    for x in range(n + 1):
        pencil = [[x * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(matrix)]
        assert at(coeffs, x) == glynn_permanent(pencil), (matrix, x)
        if x == n:
            break
        for (t, j), entry in entries.items():
            minor = [row[:t] + row[t + 1:] for r, row in enumerate(pencil) if r != j]
            # The minor of an order-1 matrix is the empty product, 1.
            assert at(entry, x) == (glynn_permanent(minor) if n > 1 else 1), (matrix, t, j, x)


def test_per_adjugate_rows_packing_holds_on_large_entries():
    """Every coefficient and minor of the packed sweeps against Glynn's formula."""
    for matrix in packing_cases():
        n = len(matrix)
        coeffs, entries = adjugate_entries(mx.per_cards, matrix, {t: range(n) for t in range(n)})
        assert len(coeffs) == n + 1 and len(entries) == n * n
        check_per_against_glynn(matrix, coeffs, entries)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_per_adjugate_rows_matches_per_ryser_at_orders_10_to_12(n):
    """Every entry wanted, so the backward sweep runs to layer n - 1; the
    pencil and a sample of the minors, which always holds a minor of row
    0, one of row n - 1 and one with t = j, checked as the packing cases
    are, against Glynn's formula (the name is from when per_ryser ran it).
    Dense with entries <= 0 (the packing bound's worst case), dense
    with mixed signs, and sparse with mixed signs."""
    rng = random.Random(2309 + n)
    for density, sign in ((1.0, -1), (1.0, 0), (0.4, 0)):
        matrix = l_scaled_matrix(rng, n, density, sign)
        coeffs, entries = adjugate_entries(mx.per_cards, matrix, {t: range(n) for t in range(n)})
        assert list(entries) == [(t, j) for t in range(n) for j in range(n)]
        t = rng.randrange(n)
        sample = [(rng.randrange(n), 0), (rng.randrange(n), n - 1), (t, t)]
        sample += rng.sample(sorted(entries), 3)
        check_per_against_glynn(matrix, coeffs, {key: entries[key] for key in sample})


def test_per_adjugate_rows_reads_end_rows_and_diagonal_entries():
    """Wanted rows j = 0 alone (the backward sweep runs to layer n - 1),
    j = n - 1 alone (it stops at layer 0), and the diagonal entries t = j
    alone; each must return exactly the wanted keys, in order, with the
    values the every-entry call gives, and match Glynn's formula."""
    rng = random.Random(2333)
    for n in range(1, 9):
        matrix = choice_matrix(rng, n, rng.choice((0.0, 0.3, 0.6)), 3)
        _, every = adjugate_entries(mx.per_cards, matrix, {t: range(n) for t in range(n)})
        heads = rng.sample(range(n), rng.randint(1, n))
        for wanted in ({t: [0] for t in heads}, {t: [n - 1] for t in heads},
                       {t: [t] for t in heads}, {t: [n - 1, t, 0] for t in heads}):
            coeffs, entries = adjugate_entries(mx.per_cards, matrix, wanted)
            assert list(entries) == list(dict.fromkeys((t, j) for t in heads for j in wanted[t]))
            assert entries == {key: every[key] for key in entries}, (matrix, wanted)
            check_per_against_glynn(matrix, coeffs, entries)


def test_per_adjugate_rows_with_states_that_cancel_to_zero():
    """Rows 0 and 1 of M put [[1, 1], [-1, 1]] on columns 2 and 3, and rows
    2 and 3 put [[1, 1], [1, -1]] on columns 0 and 1, so the forward state
    of rows 0, 1 on columns {2, 3} and the backward state of rows 2, 3 on
    columns {0, 1} are permanents that vanish as polynomials: the sweeps
    drop them, and every value must still be right. Orders 4-6, with the
    other entries random."""
    rng = random.Random(2339)
    for n in (4, 4, 5, 6):
        matrix = choice_matrix(rng, n, 0.5, 2)
        matrix[0][2:4], matrix[1][2:4] = [1, 1], [-1, 1]
        matrix[2][0:2], matrix[3][0:2] = [1, 1], [1, -1]
        assert permutation_expansion([row[2:4] for row in matrix[:2]], False) == 0
        assert permutation_expansion([row[0:2] for row in matrix[2:4]], False) == 0
        coeffs, entries = adjugate_entries(mx.per_cards, matrix, {t: range(n) for t in range(n)})
        check_per_against_glynn(matrix, coeffs, entries)


def updated(matrix, update):
    """M less the update (s, t, a, d) at (s, t) and (t, t), so that x*I less
    it is x*I - M with a added at (s, t) and d at (t, t)."""
    s, t, a, d = update
    out = [list(row) for row in matrix]
    out[s][t] -= a
    out[t][t] -= d
    return out


def random_updates(rng, n, magnitude):
    """Updates at random positions, some with s = t, some with a or d 0."""
    values = (0, 1, -1, rng.randint(-magnitude, magnitude))
    return [(rng.randrange(n), rng.randrange(n), rng.choice(values), rng.choice(values))
            for _ in range(rng.randint(1, 2 * n))]


def test_det_cards_match_berkowitz_on_the_updated_matrix():
    rng = random.Random(2521)
    cases = [m for m in small_matrices() if rng.random() < 0.05]
    cases += [choice_matrix(rng, n, rng.choice((0.2, 0.6, 0.9)), 9) for n in [*range(1, 17), 32]]
    cases += [l_scaled_matrix(rng, n, 0.7, 0) for n in (2, 5, 9)]
    for matrix in cases:
        updates = random_updates(rng, len(matrix), 10**9)
        coeffs, cards = mx.det_cards(matrix, updates)
        assert coeffs == mx.charpoly_berkowitz(matrix)
        assert cards == [mx.charpoly_berkowitz(updated(matrix, u)) for u in updates], matrix


def check_per_cards(matrix, updates):
    """Each card of per_cards, and K, against Glynn's formula on the updated
    pencil at x = 0..n, which fix polynomials of n + 1 coefficients."""
    n = len(matrix)
    coeffs, cards = mx.per_cards(matrix, updates)
    assert len(cards) == len(updates)
    for x in range(n + 1):
        pencil = [[x * (i == j) - v for j, v in enumerate(row)] for i, row in enumerate(matrix)]
        assert at(coeffs, x) == glynn_permanent(pencil), (matrix, x)
        for card, update in zip(cards, updates):
            pencil = [[x * (i == j) - v for j, v in enumerate(row)]
                      for i, row in enumerate(updated(matrix, update))]
            assert at(card, x) == glynn_permanent(pencil), (matrix, update, x)


def test_per_cards_match_glynn_on_the_updated_pencil():
    """Small matrices with unit updates, and the packing cases, whose
    entries reach 60 bits, with updates of up to 2^70 that push a card's
    row sums far past M's."""
    rng = random.Random(2531)
    for matrix in small_matrices():
        if rng.random() < 0.05:
            check_per_cards(matrix, random_updates(rng, len(matrix), 1))
    for matrix in packing_cases():
        check_per_cards(matrix, random_updates(rng, len(matrix), 2**70))


def wanted_sets(matrix, rng):
    """Wanted rows for the det entries: the deck's (each nonzero column t
    wants its nonzero rows and t), every entry up to order 16, and a random
    set, which need not cover M's nonzero columns, plus the zero columns
    alone."""
    n = len(matrix)
    heads = [t for t in range(n) if any(row[t] for row in matrix)]
    yield {t: {s for s in range(n) if matrix[s][t]} | {t} for t in heads}
    if n <= 16:
        yield {t: range(n) for t in range(n)}
    yield {t: rng.sample(range(n), rng.randint(0, n)) for t in rng.sample(range(n), rng.randint(1, n))}
    zero = [t for t in range(n) if t not in heads]
    if zero:
        yield {t: range(n) for t in zero}


def check_against_horner(matrix, rng):
    for wanted in wanted_sets(matrix, rng):
        wanted = {t: list(cols) for t, cols in wanted.items()}
        got = adjugate_entries(mx.det_cards, matrix, wanted)
        assert got == horner_adjugate_rows(matrix, wanted), (matrix, wanted)
        assert got[0] == mx.charpoly_berkowitz(matrix)


def test_adjugate_rows_matches_horner_on_every_small_matrix():
    rng = random.Random(2503)
    for matrix in small_matrices():
        check_against_horner(matrix, rng)


@pytest.mark.parametrize("density, orders", [
    (0.15, [*range(1, 17), 32, 64]),
    (0.4, range(1, 17)),
    (1.0, range(1, 17)),
])
def test_adjugate_rows_matches_horner_on_random_sparse_matrices(density, orders):
    """Up to order 6 the whole adjugate is also checked against the
    permutation expansion."""
    rng = random.Random(2507)
    for n in orders:
        matrix = choice_matrix(rng, n, 1 - density, rng.choice((1, 3, 9)))
        check_against_horner(matrix, rng)
        if n <= 6:
            check_adjugate(matrix, signed=True)


def test_adjugate_rows_on_zero_and_order_one_matrices():
    for n in (1, 2, 5, 9):
        coeffs, entries = adjugate_entries(mx.det_cards, [[0] * n for _ in range(n)],
                                           {t: range(n) for t in range(n)})
        # adj(x*I) = x^(n-1) * I
        assert coeffs == [0] * n + [1]
        assert entries == {(t, j): [0] * (n - 1) + [int(t == j)] for t in range(n) for j in range(n)}
    for a in (-3, 0, 1, 7):
        assert mx.det_cards([[a]], [(0, 0, 1, 0)]) == ([-a, 1], [[1 - a, 1]])


def test_adjugate_rows_on_acyclic_beta_zero_pencils():
    """f1 pencils of acyclic digraphs: M is nilpotent, every c_k but c_n is
    0, and B_k = M^(n-1-k), whose kept rows vanish after the longest path."""
    rng = random.Random(2511)
    for n in (2, 3, 5, 8, 16, 32):
        order = rng.sample(range(n), n)
        matrix = [[0] * n for _ in range(n)]
        for _ in range(2 * n):
            s, t = sorted(rng.sample(range(n), 2))
            matrix[order[s]][order[t]] = rng.choice((1, -2, 5))
        check_against_horner(matrix, rng)
        g = Digraph(n, tuple((s, t) for s in range(n) for t in range(n) if matrix[s][t]))
        if g.m and n <= 8:
            assert deck(g, F1).polys == deletion_deck(g, F1)


def test_only_coefficient_calls_run_berkowitz(monkeypatch):
    """poly_of reads Berkowitz's coefficients; a det deck's one kernel pass
    takes them from its own traces."""
    orders = []
    berkowitz = mx.charpoly_berkowitz
    monkeypatch.setattr(mx, "charpoly_berkowitz", lambda m: orders.append(len(m)) or berkowitz(m))
    g = Digraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)), (1, Fraction(-1, 2), 3, 2))
    for kind in (F1, GENERAL_KINDS[0]):
        deck(g, kind)
        assert orders == []
        poly_of(g, kind)
        assert orders == [4]
        orders.clear()
