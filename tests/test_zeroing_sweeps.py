"""The zeroing sweeps against each zeroed copy evaluated on its own.

matrices.zeroed_dets and zeroed_pers give det or per of X with one entry
set to 0, for many entries at once. Each value must equal a scalar kernel
on the explicit copy (det_bareiss; for the permanent Glynn's formula,
glynn_permanent, since per_ryser and zeroed_pers share the subset sweeps)
and the n!-term permutation expansion, exhaustively on small {-1, 0, 1}
matrices and on seeded random ones. Both sweeps give each copy its own
expansion along its row. The hand cases pin how the det sweep reads row
i's cofactors off a Gauss-Jordan elimination of X's other rows: its column
pivots, the free column and its sign, dependent rows, and the sharing of
one trunk over X's rows, which each row's elimination leaves to finish on
the rows after it, with no step reading every row of X, so that det X is
never formed. For the per sweep they pin the copies, each its own sum over
the minors of its row, on entries of about 60 bits, and with no subset
state at all n columns, so that per X is never formed. The relabelling
property is in test_properties.py.
"""

import random
from collections import Counter
from itertools import product

import pytest

from deckpoly import matrices as mx
from deckpoly.identities import check_thm21, check_thm22, check_thm23, random_matrix
from oracles import choice_matrix, glynn_permanent, l_scaled_matrix, permutation_expansion

SWEEPS = [
    pytest.param(mx.zeroed_dets, mx.det_bareiss, True, id="det"),
    pytest.param(mx.zeroed_pers, glynn_permanent, False, id="per"),
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
            m = choice_matrix(rng, n, zero_density)
            support = [(i, j) for i, j in entries(n) if m[i][j]]
            for positions in (entries(n), support):
                got = sweep(m, n, positions)
                assert got == copies_one_by_one(kernel, m, positions), m
                if n <= 4:
                    assert got == [permutation_expansion(zeroed(m, i, j), signed)
                                   for i, j in positions], m
            # Zero rows, which the support skips: the first, the last, or
            # every row but one.
            for zero_rows in ({0}, {n - 1}, set(range(n)) - {n // 2}) if 3 <= n <= 5 else ():
                z = [[0] * n if r in zero_rows else row for r, row in enumerate(m)]
                for positions in (entries(n), [(i, j) for i, j in entries(n) if z[i][j]]):
                    assert sweep(z, n, positions) == [permutation_expansion(zeroed(z, i, j), signed)
                                                      for i, j in positions], z


def test_order_one():
    assert mx.zeroed_dets([[5]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_pers([[5]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_dets([[0]], 1, [(0, 0)]) == [0]
    assert mx.zeroed_pers([[-3]], 1, []) == []


# Each hand case is named after what it asks of the elimination of X's
# other rows that gives the cofactors of each row i of the positions: which
# column each step pivots on, which column is left free, and whether those
# rows are dependent.


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
    # Rows 0 and 2 are 0 at column 0, so row 1's elimination pivots on
    # columns 1 and 2 and leaves column 0 free: each copy of row 1 is
    # x_10 * C_10 = 3 * (-1) * (2 * 2 - 1 * 5) and, zeroed there, 0.
    pytest.param([[0, 2, 1], [3, 1, 4], [0, 5, 2]], [(1, 0), (1, 1), (1, 2)], [0, 3, 3],
                 id="free-column-0"),
    # The trunk pivots on row 0 at column 0 and on row 1 at column 2, and
    # then, without row 3, on row 2 at column 3. Row 1's finish pivots on
    # row 2 at column 2 and on row 3 at column 1: its pivot columns are
    # 0, 2, 1, not in the trunk's order.
    pytest.param([[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 2, 3], [2, 3, 1, 1]],
                 [(1, 0), (1, 1), (1, 2), (1, 3), (3, 2)], [2, 4, 0, 3, 3],
                 id="finish-pivots-in-another-order"),
    # Order 2 at every position: each copy is one product, and in the
    # second matrix row 0 pivots on column 1, an odd move.
    pytest.param([[2, 3], [5, 7]], entries(2), [-15, 14, 14, -15], id="order-2"),
    pytest.param([[0, 3], [5, 7]], entries(2), [-15, 0, 0, -15], id="order-2-pivot-on-column-1"),
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
    # Row 3 is row 0 plus row 1, so X's other rows are dependent for row 2
    # alone. Rows 0, 1 and 2, which the trunk pivots on, are independent:
    # row 2's finish meets the dependence at row 3, and its copies are 0.
    pytest.param([[1, 2, 0, 1], [0, 1, 3, 2], [2, 0, 1, 1], [1, 3, 3, 3]], entries(4),
                 id="other-rows-dependent-in-a-finish"),
    pytest.param(PIVOTED, entries(4), id="column-pivot"),
    pytest.param([[7]], [(0, 0), (0, 0)], id="order-1"),
    pytest.param(SWAPPED, [(1, 2), (3, 0), (1, 2), (1, 2), (3, 0)], id="repeated-positions"),
    pytest.param(PIVOTED, [(i, 1) for i in range(4)], id="one-column"),
])
def test_shared_elimination_values(m, positions):
    assert mx.zeroed_dets(m, len(m), positions) == expansions(m, positions)


@pytest.mark.parametrize("deficiency", [1, 2])
def test_rank_deficient_matrices_match_explicit_copies(deficiency):
    # X of rank n - 1 or n - 2: rows drawn as in verify, then n - rank of
    # them replaced by integer combinations of the others and the rows
    # shuffled, so that the dependence falls in the trunk, in a finish or in
    # the last row. At rank n - 2 every copy has det 0, and no row of X gets
    # its cofactors; at rank n - 1 some copies are nonsingular.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5303 + deficiency)
    for n in range(2, 10):
        for zero_density in (0.0, 0.3):
            for _ in range(3):
                rank = n - deficiency
                basis = choice_matrix(rng, n, zero_density)[:rank]
                m = basis + [[sum(c * row[j] for c, row in zip(combination, basis)) for j in range(n)]
                             for combination in ([rng.randint(-2, 2) for _ in basis]
                                                 for _ in range(deficiency))]
                rng.shuffle(m)
                if sympy.Matrix(m).rank() != rank:
                    continue
                support = [(i, j) for i, j in entries(n) if m[i][j]]
                for positions in (entries(n), support):
                    assert (mx.zeroed_dets(m, n, positions)
                            == copies_one_by_one(mx.det_bareiss, m, positions)), m


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

    def __add__(self, other):
        return self._joined(other, int(self) + int(other))

    __radd__ = __add__

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
    # Each step pivots on rows[r]. Its entries in the free columns come from
    # the rows pivoted before it in the same elimination and its own, the
    # largest of them: (pivot row, the rows pivoted before it).
    steps = []
    step = mx._step

    def recording(rows, r, cols, prev):
        read = {i for c in cols[r:] for i, _ in sources(rows[r][c])}
        steps.append((max(read), frozenset(read) - {max(read)}))
        return step(rows, r, cols, prev)

    assert [i for i, _ in mx._cofactors(m, 5)] == list(range(5))
    monkeypatch.setattr(mx, "_step", recording)
    dets = mx.zeroed_dets(traced, 5, positions)
    assert dets == expansions(m, positions)
    # The trunk pivots on rows 0, 1, 2 and 3 in order, on the rows before
    # each, and stops short of row 4, the last row of X, though rows 2 and 4
    # have no copies.
    trunk = [(k, frozenset(range(k))) for k in range(4)]
    assert [step for step in steps if step[1] == frozenset(range(step[0]))] == trunk
    # Every row i gets a finish on rows i+1..4, pivoted after rows 0..i-1
    # once for all of them (row 4's has no step left), and no elimination
    # pivots on a row twice.
    finishes = [(r, frozenset(range(r)) - {i}) for i in range(5) for r in range(i + 1, 5)]
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
    # permutation: each copy's sum must drop its own column j, and only its
    # own, from row i's terms x_ic * P_ic.
    assert mx.zeroed_pers([[1, 1], [1, 1]], 2, entries(2)) == [1, 1, 1, 1]
    assert mx.zeroed_pers([[1, 2], [3, 4]], 2, entries(2)) == [6, 4, 4, 6]


def test_the_sweeps_leave_their_input_alone():
    m = [[0, 3, 1], [0, 2, 5], [4, 1, 1]]
    for sweep in (mx.zeroed_dets, mx.zeroed_pers):
        sweep(m, 3, entries(3))
        assert m == [[0, 3, 1], [0, 2, 5], [4, 1, 1]]


def test_zeroed_pers_holds_large_entries():
    """Dense single-sign matrices of entries of about 60 bits, where no sum
    of terms cancels, at orders 1-9: as drawn, and with a diagonal 2^20
    times its row's sum, which puts nearly all of per(|X|) on one
    permutation; and one with a zero row. Every entry against Glynn's
    formula on the explicit copy."""
    rng = random.Random(2347)
    cases = []
    for n in range(1, 10):
        for sign in (1, -1):
            cases += [l_scaled_matrix(rng, n, 1.0, sign) for _ in range(3)]
            for r, row in enumerate(cases[-1]):
                row[r] = sum(row) << 20
    cases.append(l_scaled_matrix(rng, 6, 1.0, 1))
    cases[-1][rng.randrange(6)] = [0] * 6
    for m in cases:
        n = len(m)
        assert mx.zeroed_pers(m, n, entries(n)) == copies_one_by_one(glynn_permanent, m, entries(n)), m


def test_zeroed_pers_never_forms_per_x(monkeypatch):
    # Every state of either sweep is a permanent of X's rows above row i,
    # or below it, for a row i with copies, so no state has all n columns.
    # per_ryser is the control: its forward sweep reaches them.
    popcounts = set()
    sweep = mx._sweep

    def recording(rows, depth):
        for k, layer in sweep(rows, depth):
            popcounts.update(map(int.bit_count, layer))
            yield k, layer

    monkeypatch.setattr(mx, "_sweep", recording)
    rng = random.Random(2411)
    for n in range(1, 9):
        for zero_density in (0.0, 0.3):
            m = choice_matrix(rng, n, zero_density)
            for positions in (entries(n), [(i, j) for i, j in entries(n) if m[i][j]]):
                popcounts.clear()
                mx.zeroed_pers(m, n, positions)
                assert max(popcounts, default=0) < n, m
            popcounts.clear()
            mx.per_ryser(m)
            assert max(popcounts) == n, m


def test_zeroed_dets_never_forms_det_x(monkeypatch):
    # Every entry of an elimination is a minor of the rows it has pivoted on
    # and one more row. Row i's elimination leaves row i out, and the trunk,
    # which covers every row, leaves row n - 1 out of its step on row n - 2,
    # so no entry a step makes reads every row of X. A trunk that kept row
    # n - 1 would make +-det X at that step.
    made = []
    step = mx._step

    def recording(rows, r, cols, prev):
        p = step(rows, r, cols, prev)
        if p:
            made.extend([p, *(row[c] for row in rows for c in cols[r + 1:])])
        return p

    monkeypatch.setattr(mx, "_step", recording)
    rng = random.Random(2417)
    for n in range(1, 8):
        for zero_density in (0.0, 0.3):
            m = choice_matrix(rng, n, zero_density)
            traced = [[Traced(x, frozenset({(i, j)})) for j, x in enumerate(row)]
                      for i, row in enumerate(m)]
            support = [(i, j) for i, j in entries(n) if m[i][j]]
            for positions in (entries(n), support):
                made.clear()
                dets = mx.zeroed_dets(traced, n, positions)
                assert dets == copies_one_by_one(mx.det_bareiss, m, positions), m
                assert made or n == 1
                assert all({r for r, _ in sources(v)} != set(range(n)) for v in made), m


@pytest.mark.parametrize("check, sweep, kernel, n, support, sample", [
    pytest.param(check_thm21, mx.zeroed_dets, mx.det_bareiss, 20, False, 0, id="2.1"),
    pytest.param(check_thm22, mx.zeroed_dets, mx.det_bareiss, 20, True, 0, id="2.2"),
    pytest.param(check_thm23, mx.zeroed_pers, glynn_permanent, 16, True, 8, id="2.3"),
])
def test_large_orders_match_explicit_copies(check, sweep, kernel, n, support, sample):
    # Past the random tests' orders, theorem 2.3 at the permanent cap. An
    # explicit order-16 copy takes Glynn's formula about 33 ms, so theorem
    # 2.3 checks a seeded sample of its copies, always with one in row 0,
    # one in row n - 1 and one zeroed at a zero entry, which the sweep gets
    # besides the support.
    rng = random.Random(n)
    m = random_matrix(rng, n)
    positions = checked = [(i, j) for i, j in entries(n) if m[i][j] or not support]
    if sample:
        positions = positions + [rng.choice([(i, j) for i, j in entries(n) if not m[i][j]])]
        ends = [next(p for p in positions if p[0] == i) for i in (0, n - 1)]
        checked = ends + positions[-1:] + rng.sample(positions, sample)
    values = dict(zip(positions, sweep(m, n, positions)))
    assert [values[p] for p in checked] == copies_one_by_one(kernel, m, checked)
    assert check(m).holds
