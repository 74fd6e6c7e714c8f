"""The zeroing sweeps against each zeroed copy evaluated on its own.

matrices.zeroed_dets and zeroed_pers give det or per of X with one entry
set to 0, for many entries at once. Each value must equal the scalar core
(_det_bareiss, _per_glynn) on the explicit copy and the n!-term
permutation expansion, exhaustively on small {-1, 0, 1} matrices and on
seeded random ones; the hand cases pin the branches of the shared Bareiss
trunk. The relabelling property is in test_properties.py.
"""

import random
from itertools import product

import pytest

from deckpoly import matrices as mx
from deckpoly.identities import check_thm21, check_thm22, check_thm23, random_matrix
from oracles import permutation_expansion

SWEEPS = [
    pytest.param(mx.zeroed_dets, mx._det_bareiss, True, id="det"),
    pytest.param(mx.zeroed_pers, mx._per_glynn, False, id="per"),
]


def entries(n):
    return [(i, j) for i in range(n) for j in range(n)]


def zeroed(matrix, i, j):
    copy = [list(row) for row in matrix]
    copy[i][j] = 0
    return copy


def copies_one_by_one(core, matrix, positions):
    n = len(matrix)
    return [core(zeroed(matrix, i, j), n) for i, j in positions]


@pytest.mark.parametrize("sweep, core, signed", SWEEPS)
def test_every_small_sign_matrix_at_every_entry(sweep, core, signed):
    for n in (1, 2, 3):
        positions = entries(n)
        matrices = [[list(values[i * n:(i + 1) * n]) for i in range(n)]
                    for values in product((-1, 0, 1), repeat=n * n)]
        values = [core([list(row) for row in m], n) for m in matrices]
        assert values == [permutation_expansion(m, signed) for m in matrices]
        # A zeroed copy is in the list too: entry (i, j) is base-3 digit
        # x_ij + 1 of the index, with weight 3^(n*n - 1 - i*n - j).
        for index, m in enumerate(matrices):
            copies = [index - m[i][j] * 3 ** (n * n - 1 - i * n - j) for i, j in positions]
            assert sweep(m, n, positions) == [values[c] for c in copies], m


@pytest.mark.parametrize("sweep, core, signed", SWEEPS)
@pytest.mark.parametrize("zero_density", [0.0, 0.3, 0.6, 0.9])
def test_random_matrices_on_all_entries_and_on_the_support(sweep, core, signed, zero_density):
    rng = random.Random(1807)
    for n in range(1, 10 if signed else 9):
        for _ in range(3):
            m = random_matrix(rng, n, zero_density)
            support = [(i, j) for i, j in entries(n) if m[i][j]]
            for positions in (entries(n), support):
                got = sweep(m, n, positions)
                assert got == copies_one_by_one(core, m, positions), m
                if n <= 4:
                    assert got == [permutation_expansion(zeroed(m, i, j), signed)
                                   for i, j in positions], m


def test_order_one():
    assert mx.zeroed_dets([[5]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_pers([[5]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_dets([[0]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_pers([[-3]], 1, []) == []


def test_zero_pivot_swaps_a_carried_copy_in_and_one_out():
    # Step 0 leaves (1, 1) = 4 * 1 - 2 * 2 = 0, so step 1 swaps rows 1 and 2.
    # The copy at (2, 2) is in the incoming pivot row: it moves to row 1 and
    # is carried as column 2 to the last step; the copy at (1, 2) moves out
    # to row 2 and is carried there as an entry.
    m = [[1, 2, 3], [2, 4, 7], [5, 6, 8]]
    assert permutation_expansion(m, True) == 4
    assert mx.zeroed_dets(m, 3, [(2, 2), (1, 2)]) == [4, -24]
    assert mx.zeroed_dets(m, 3, entries(3)) == copies_one_by_one(mx._det_bareiss, m, entries(3))


def test_zero_pivot_at_step_zero_moves_a_carried_copy_down():
    # Column 0 pivots on row 2, so the copies in row 0 move to row 2 as
    # entries, and the copy at (2, 1) moves to row 0 and becomes column 1.
    m = [[0, 3, 1], [0, 2, 5], [4, 1, 1]]
    positions = [(0, 1), (0, 2), (2, 1), (1, 2)]
    assert mx.zeroed_dets(m, 3, positions) == [
        permutation_expansion(zeroed(m, i, j), True) for i, j in positions] == [-8, 60, 52, -8]


def test_singular_trunk_with_a_nonsingular_copy_in_its_zero_column():
    # After step 0 column 1 of the trunk is zero from row 1 down, so X is
    # singular, but at step 1 the copy zeroed at (1, 1) becomes row 1, which
    # branches before the copies left are given det 0.
    m = [[1, 1, 1], [1, 1, 1], [1, 1, 2]]
    assert mx.det_bareiss(m) == 0
    assert mx.zeroed_dets(m, 3, [(1, 1)]) == [-1]
    assert mx.zeroed_dets(m, 3, entries(3)) == copies_one_by_one(mx._det_bareiss, m, entries(3))


def expansions(m, positions):
    return [permutation_expansion(zeroed(m, i, j), True) for i, j in positions]


# Every leading principal minor is nonzero (2, 5, 16, 12), so the trunk
# finds each pivot in place and swaps no rows.
UNSWAPPED = [[2, 1, 1, 3], [1, 3, 2, 1], [1, 1, 4, 2], [3, 2, 1, 5]]
# Step 0 leaves (1, 1) and (2, 1) at 0, so step 1 swaps rows 1 and 3.
SWAPPED = [[1, 2, 3, 4], [2, 4, 1, 1], [3, 6, 2, 3], [3, 1, 1, 2]]


@pytest.mark.parametrize("m, positions, dets", [
    # (2, 0) and (3, 0) become rows 2 and 3 at step 0, (3, 1) becomes row 3
    # at step 1; each row takes its own update at every step it is carried.
    pytest.param(UNSWAPPED, [(2, 0), (3, 0), (3, 1)], [19, 87, 2],
                 id="row-carried-from-step-j-to-step-i"),
    # (0, 2) and (0, 3) become columns at step 0; the trunk's swap of rows 1
    # and 3 at step 1 must swap their entries too.
    pytest.param(SWAPPED, [(0, 2), (0, 3)], [-25, 40],
                 id="column-carried-across-a-row-swap"),
    # At step 1 row 3 is the trunk's pivot row: the swap moves the copies at
    # (3, 2) and (3, 3) to row 1, where every row below subtracts a multiple
    # of their entry, so each is carried on as its column. The copies at
    # (1, 2) and (1, 3) move out to row 3.
    pytest.param(SWAPPED, [(3, 2), (3, 3), (1, 2), (1, 3)], [20, 20, -25, 55],
                 id="entry-in-the-incoming-pivot-row-becomes-a-column"),
    # (2, 0) and (3, 0) are rows 2 and 3 after step 0. At step 1 the trunk
    # pivots on row 3, at or below both, while each copy has a nonzero in
    # column 1 of its own row: both must branch at step 1, before row 2.
    pytest.param(SWAPPED, [(2, 0), (3, 0)], [41, -4],
                 id="row-branches-when-the-trunk-pivot-lies-at-or-below-it"),
    # Column 1 is twice column 0, so X is singular and the trunk has no
    # pivot at step 1. Row 2 of the copy zeroed at (2, 0) is carried from
    # step 0 and still has a nonzero in column 1: it branches, and that copy
    # is nonsingular. The copy zeroed at (0, 3), carried as column 3, keeps
    # the zero column and has det 0.
    pytest.param([[1, 2, 3, 4], [2, 4, 1, 1], [3, 6, 2, 3], [1, 2, 5, 7]],
                 [(2, 0), (3, 0), (0, 3), (1, 2)], [6, -8, 0, 0],
                 id="row-or-column-open-when-the-trunk-turns-singular"),
])
def test_carried_rows_and_columns(m, positions, dets):
    assert mx.zeroed_dets(m, len(m), positions) == expansions(m, positions) == dets


def test_each_copy_branches_at_step_max_i_j_when_the_trunk_swaps_no_rows(monkeypatch):
    # Every leading principal minor is nonzero (2, 5, 16, 12, 24). A copy
    # whose max(i, j) is the last step ends on its own entry (4, 4) there,
    # without an elimination of its own.
    m = [[2, 1, 1, 3, 1], [1, 3, 2, 1, 2], [1, 1, 4, 2, 1], [3, 2, 1, 5, 1], [1, 2, 3, 1, 4]]
    n = len(m)
    starts = []
    bareiss = mx._bareiss

    def recording(rows, n, start, prev, sign):
        starts.append(start)
        return bareiss(rows, n, start, prev, sign)

    monkeypatch.setattr(mx, "_bareiss", recording)
    for i, j in entries(n):
        starts.clear()
        assert mx.zeroed_dets(m, n, [(i, j)]) == expansions(m, [(i, j)])
        assert starts == ([max(i, j)] if max(i, j) < n - 1 else []), (i, j)


def test_zeroing_a_zero_entry_gives_the_matrix_itself():
    m = [[2, 0, 1], [1, 3, 0], [0, 1, 4]]
    zeros = [(0, 1), (1, 2), (2, 0)]
    assert mx.zeroed_dets(m, 3, zeros) == [mx.det_bareiss(m)] * 3 == [25] * 3
    assert mx.zeroed_pers(m, 3, zeros) == [mx.per_ryser(m)] * 3 == [25] * 3


def test_each_copy_has_its_own_column_sums():
    # per [[1, 1], [1, 1]] = 2, but each single zeroing leaves one
    # permutation: a copy's term must use its own column sum s_j - d_i * x_ij.
    assert mx.zeroed_pers([[1, 1], [1, 1]], 2, entries(2)) == [1, 1, 1, 1]
    assert mx.zeroed_pers([[1, 2], [3, 4]], 2, entries(2)) == [6, 4, 4, 6]


def test_the_sweeps_leave_their_input_alone():
    m = [[0, 3, 1], [0, 2, 5], [4, 1, 1]]
    for sweep in (mx.zeroed_dets, mx.zeroed_pers):
        sweep(m, 3, entries(3))
        assert m == [[0, 3, 1], [0, 2, 5], [4, 1, 1]]


@pytest.mark.parametrize("check, sweep, core, n, support", [
    pytest.param(check_thm21, mx.zeroed_dets, mx._det_bareiss, 20, False, id="2.1"),
    pytest.param(check_thm22, mx.zeroed_dets, mx._det_bareiss, 20, True, id="2.2"),
    pytest.param(check_thm23, mx.zeroed_pers, mx._per_glynn, 12, True, id="2.3"),
])
def test_large_orders_match_explicit_copies(check, sweep, core, n, support):
    # Past the random tests' orders. Theorem 2.3 stops at order 12: the
    # permanent cap is 16, and at order 16 each explicit copy takes seconds.
    m = random_matrix(random.Random(n), n)
    positions = [(i, j) for i, j in entries(n) if m[i][j] or not support]
    assert sweep(m, n, positions) == copies_one_by_one(core, m, positions)
    assert check(m).holds
