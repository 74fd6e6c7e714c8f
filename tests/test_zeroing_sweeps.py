"""The zeroing sweeps against each zeroed copy evaluated on its own.

matrices.zeroed_dets and zeroed_pers give det or per of X with one entry
set to 0, for many entries at once. Each value must equal the scalar
kernel (det_bareiss, per_ryser) on the explicit copy and the n!-term
permutation expansion, exhaustively on small {-1, 0, 1} matrices and on
seeded random ones. The hand cases pin the det sweep's column pivots,
dependent rows and sharing: one trunk over X's rows, which each row's
copies leave to finish on the rows after it. The relabelling property is
in test_properties.py.
"""

import random
from collections import Counter
from itertools import product

import pytest

from deckpoly import matrices as mx
from deckpoly.identities import check_thm21, check_thm22, check_thm23, random_matrix
from oracles import permutation_expansion

SWEEPS = [
    pytest.param(mx.zeroed_dets, mx.det_bareiss, True, id="det"),
    pytest.param(mx.zeroed_pers, mx.per_ryser, False, id="per"),
]


def entries(n):
    return [(i, j) for i in range(n) for j in range(n)]


def zeroed(matrix, i, j):
    copy = [list(row) for row in matrix]
    copy[i][j] = 0
    return copy


def copies_one_by_one(kernel, matrix, positions):
    return [kernel(zeroed(matrix, i, j)) for i, j in positions]


@pytest.mark.parametrize("sweep, kernel, signed", SWEEPS)
def test_every_small_sign_matrix_at_every_entry(sweep, kernel, signed):
    for n in (1, 2, 3):
        positions = entries(n)
        matrices = [[list(values[i * n:(i + 1) * n]) for i in range(n)]
                    for values in product((-1, 0, 1), repeat=n * n)]
        values = [kernel(m) for m in matrices]
        assert values == [permutation_expansion(m, signed) for m in matrices]
        # A zeroed copy is in the list too: entry (i, j) is base-3 digit
        # x_ij + 1 of the index, with weight 3^(n*n - 1 - i*n - j).
        for index, m in enumerate(matrices):
            copies = [index - m[i][j] * 3 ** (n * n - 1 - i * n - j) for i, j in positions]
            assert sweep(m, n, positions) == [values[c] for c in copies], m


@pytest.mark.parametrize("sweep, kernel, signed", SWEEPS)
@pytest.mark.parametrize("zero_density", [0.0, 0.3, 0.6, 0.9])
def test_random_matrices_on_all_entries_and_on_the_support(sweep, kernel, signed, zero_density):
    rng = random.Random(1807)
    for n in range(1, 10 if signed else 9):
        for _ in range(3):
            m = random_matrix(rng, n, zero_density)
            support = [(i, j) for i, j in entries(n) if m[i][j]]
            for positions in (entries(n), support):
                got = sweep(m, n, positions)
                assert got == copies_one_by_one(kernel, m, positions), m
                if n <= 4:
                    assert got == [permutation_expansion(zeroed(m, i, j), signed)
                                   for i, j in positions], m


def test_order_one():
    assert mx.zeroed_dets([[5]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_pers([[5]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_dets([[0]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_pers([[-3]], 1, []) == []


# Each hand case is named after what it asks of the elimination of X's
# other rows that the copies of each row i of the positions get: which
# column each step pivots on, and whether those rows are dependent.


def test_column_pivot_at_the_last_step_for_one_row_and_none_for_another():
    # Without row 2, step 0 leaves row 1 as (0, 1): step 1 pivots on column 2.
    # Without row 1, every step pivots on the first column left.
    m = [[1, 2, 3], [2, 4, 7], [5, 6, 8]]
    assert permutation_expansion(m, True) == 4
    assert mx.zeroed_dets(m, 3, [(2, 2), (1, 2)]) == [4, -24]
    assert mx.zeroed_dets(m, 3, entries(3)) == copies_one_by_one(mx.det_bareiss, m, entries(3))


def test_every_row_pivots_on_column_one_at_step_zero():
    # Column 0's one nonzero is in row 2, which is never the first of X's
    # other rows: step 0 pivots on column 1 for every row i.
    m = [[0, 3, 1], [0, 2, 5], [4, 1, 1]]
    positions = [(0, 1), (0, 2), (2, 1), (1, 2)]
    assert mx.zeroed_dets(m, 3, positions) == [
        permutation_expansion(zeroed(m, i, j), True) for i, j in positions] == [-8, 60, 52, -8]


def test_singular_x_with_a_nonsingular_copy_and_dependent_rows_for_row_2():
    # X is singular, but rows 0 and 2 are independent: the copy zeroed at
    # (1, 1) is nonsingular. Without row 2, rows 0 and 1 are equal, so every
    # copy in row 2 has det 0.
    m = [[1, 1, 1], [1, 1, 1], [1, 1, 2]]
    assert mx.det_bareiss(m) == 0
    assert mx.zeroed_dets(m, 3, [(1, 1)]) == [-1]
    assert mx.zeroed_dets(m, 3, entries(3)) == copies_one_by_one(mx.det_bareiss, m, entries(3))


def expansions(m, positions):
    return [permutation_expansion(zeroed(m, i, j), True) for i, j in positions]


# Every leading principal minor is nonzero (2, 5, 16, 12), so X's
# elimination swaps no rows, and each row's elimination of the other rows
# pivots on the first column left at every step.
UNSWAPPED = [[2, 1, 1, 3], [1, 3, 2, 1], [1, 1, 4, 2], [3, 2, 1, 5]]
# Step 0 leaves (1, 1) and (2, 1) at 0, so X's elimination swaps rows 1
# and 3 at step 1, and every row's elimination of the other rows pivots on
# column 2 at step 1; row 3's pivots on column 3 at step 2.
SWAPPED = [[1, 2, 3, 4], [2, 4, 1, 1], [3, 6, 2, 3], [3, 1, 1, 2]]


@pytest.mark.parametrize("m, positions, dets", [
    pytest.param(UNSWAPPED, [(2, 0), (3, 0), (3, 1)], [19, 87, 2],
                 id="no-pivot-two-copies-in-one-row"),
    pytest.param(SWAPPED, [(0, 2), (0, 3)], [-25, 40],
                 id="copy-zeroed-in-step-1-pivot-column"),
    pytest.param(SWAPPED, [(3, 2), (3, 3), (1, 2), (1, 3)], [20, 20, -25, 55],
                 id="rows-with-different-pivot-columns"),
    pytest.param(SWAPPED, [(2, 0), (3, 0)], [41, -4],
                 id="copies-zeroed-in-step-0-pivot-column"),
    # Column 1 is twice column 0, so X is singular, but the copy zeroed at
    # (2, 0) is not: every row's step 1 skips column 1, whose entries
    # step 0 left at 0, and pivots on column 2.
    pytest.param([[1, 2, 3, 4], [2, 4, 1, 1], [3, 6, 2, 3], [1, 2, 5, 7]],
                 [(2, 0), (3, 0), (0, 3), (1, 2)], [6, -8, 0, 0],
                 id="singular-x-nonsingular-copy"),
])
def test_column_pivots(m, positions, dets):
    assert mx.zeroed_dets(m, len(m), positions) == expansions(m, positions) == dets


# Rows 0 and 2 are equal, so X without row 1 or row 3 has dependent rows,
# though neither row 1 nor row 3 is in the span of the others; a copy
# zeroed in row 0 or row 2 can be nonsingular.
DEPENDENT = [[1, 2, 0, 1], [0, 1, 3, 2], [1, 2, 0, 1], [2, 0, 1, 1]]
# Without row 3, every row is 0 at column 0, and row 1 at column 1 too:
# steps 0, 1 and 2 pivot on columns 1, 2 and 3, each at index 1 of the
# columns left.
PIVOTED = [[0, 3, 1, 2], [0, 0, 2, 5], [0, 1, 4, 1], [4, 1, 1, 3]]


@pytest.mark.parametrize("m, positions", [
    pytest.param(DEPENDENT, entries(4), id="other-rows-dependent"),
    pytest.param(PIVOTED, entries(4), id="column-pivot"),
    pytest.param([[7]], [(0, 0), (0, 0)], id="order-1"),
    pytest.param(SWAPPED, [(1, 2), (3, 0), (1, 2), (1, 2), (3, 0)], id="repeated-positions"),
    pytest.param(PIVOTED, [(i, 1) for i in range(4)], id="one-column"),
])
def test_shared_elimination_values(m, positions):
    assert mx.zeroed_dets(m, len(m), positions) == expansions(m, positions)


class Traced(int):
    """An int that keeps the entries (row, column) of X it was computed
    from: each operation the det sweep applies unites its operands'."""

    def __new__(cls, value, sources):
        self = super().__new__(cls, value)
        self.sources = sources
        return self

    def _joined(self, other, value):
        return Traced(value, self.sources | sources(other))

    def __mul__(self, other):
        return self._joined(other, int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self._joined(other, int(self) - int(other))

    def __rsub__(self, other):
        return self._joined(other, int(other) - int(self))

    def __floordiv__(self, other):
        return self._joined(other, int(self) // int(other))

    def __rfloordiv__(self, other):
        return self._joined(other, int(other) // int(self))

    def __neg__(self):
        return Traced(-int(self), self.sources)


def sources(value):
    return getattr(value, "sources", frozenset())


def test_one_trunk_pivots_each_row_once_and_no_copy_reads_its_own_row(monkeypatch):
    m = [[2, 1, 1, 3, 1], [1, 3, 2, 1, 2], [1, 1, 4, 2, 1], [3, 2, 1, 5, 1], [1, 2, 3, 1, 4]]
    positions = [(3, 1), (0, 0), (1, 4), (3, 1), (1, 2), (0, 3), (3, 4)]
    traced = [[Traced(x, frozenset({(i, j)})) for j, x in enumerate(row)] for i, row in enumerate(m)]
    # Each step pivots on the row last in every column. Its entries come
    # from the rows pivoted before it in the same elimination and its own,
    # the largest of them: (pivot row, the rows pivoted before it).
    steps = []
    pivot_step = mx._pivot_step

    def recording(cols, prev):
        rows = {i for col in cols for i, _ in sources(col[-1])}
        steps.append((max(rows), frozenset(rows) - {max(rows)}))
        return pivot_step(cols, prev)

    monkeypatch.setattr(mx, "_pivot_step", recording)
    dets = mx.zeroed_dets(traced, 5, positions)
    assert dets == expansions(m, positions)
    # The trunk pivots on rows 0, 1 and 2 in order, on the rows before each,
    # and stops short of row 3, the last with copies; row 4 has none.
    trunk = [(k, frozenset(range(k))) for k in range(3)]
    assert [step for step in steps if step[1] == frozenset(range(step[0]))] == trunk
    # Row i's copies finish on rows i+1..4, pivoted after rows 0..i-1
    # once for all of them, and no elimination pivots on a row twice.
    finishes = [(r, frozenset(range(r)) - {i}) for i in (0, 1, 3) for r in range(i + 1, 5)]
    assert Counter(steps) == Counter(trunk + finishes)
    # No copy reads X's row i unzeroed: det X_ij is computed without x_ij.
    for (i, j), det in zip(positions, dets):
        assert (i, j) not in sources(det)
        assert {(r, c) for r in range(5) for c in range(5) if r != i} <= sources(det)


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


@pytest.mark.parametrize("check, sweep, kernel, n, support", [
    pytest.param(check_thm21, mx.zeroed_dets, mx.det_bareiss, 20, False, id="2.1"),
    pytest.param(check_thm22, mx.zeroed_dets, mx.det_bareiss, 20, True, id="2.2"),
    pytest.param(check_thm23, mx.zeroed_pers, mx.per_ryser, 12, True, id="2.3"),
])
def test_large_orders_match_explicit_copies(check, sweep, kernel, n, support):
    # Past the random tests' orders. Theorem 2.3 stops at order 12: the
    # permanent cap is 16, and at order 16 each explicit copy takes seconds.
    m = random_matrix(random.Random(n), n)
    positions = [(i, j) for i, j in entries(n) if m[i][j] or not support]
    assert sweep(m, n, positions) == copies_one_by_one(kernel, m, positions)
    assert check(m).holds
