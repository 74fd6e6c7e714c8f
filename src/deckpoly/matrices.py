"""Dense integer matrices with determinant and permanent kernels.

A matrix is a plain list of equal-length rows of Python ints; every
public kernel but the zeroing sweeps goes through order_of, which rejects
any other entry type (a Fraction included), because Bareiss's exact
division is only exact on integers. A caller with rational entries clears
denominators first, as graph_polys does. No public function mutates its
input.

det_bareiss and per_ryser give one scalar value. zeroed_dets and
zeroed_pers give one value per zeroed copy X_ij of X (X with entry (i, j)
set to 0), for the zeroed-entry identities, by one rule (_expansions):
each copy is its own expansion along row i, the sum over the columns
c != j of x_ic times the minor of X without row i and column c. Those
minors read only X's other rows, so they are the copy's too, and the
copies of row i share them. The det sweep reads row i's cofactors off a
fraction-free Gauss-Jordan elimination of X's other rows, from one trunk
over X's rows in order that row i's elimination leaves just before the
trunk pivots on row i, about n^4 / 6 multiplication pairs for all n rows.
The per sweep pairs the subset states of X's rows above row i with those
of the rows below it. No copy reads det X or per X or is a row total less
a cofactor term, neither sweep forms det X or per X, and every value
either sweep shares with X is a value of the copy too. Both skip input
checks: the caller has validated X with the scalar kernel.

Every permanent here is one algorithm: expansion along the rows over
column subsets (_sweep), forward from the top row and backward from the
bottom one, for per_ryser, zeroed_pers and per_adjugate_rows alike. So
_sweep states their one cap: a sweep over more than RYSER_MAX_ORDER rows
raises ValueError before its first layer.

charpoly_berkowitz gives every coefficient of det(x*I - M) at once.
adjugate_rows and per_adjugate_rows share one contract: (M, wanted) gives
every coefficient of det(x*I - M), or of per(x*I - M), and chosen entries
of the matching adjugate of x*I - M: the signed cofactors, or the
permanental minors, down one column, which is what a change to that column
needs (column linearity). adjugate_rows runs the Faddeev-LeVerrier
recurrence on the rows of the adjugate at M's nonzero columns and the
wanted heads, whose traces give the coefficients, so one pass gives both
(with nothing wanted it returns Berkowitz's coefficients);
per_adjugate_rows expands per(x*I - M) along its rows in two sweeps over
column subsets, one from the top row down and one from the bottom row up,
and reads each wanted minor off pairs of their states, on polynomials
packed into ints at x = 2^B (Kronecker substitution). Everything is in
Python ints.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from math import prod
from operator import neg

Matrix = list[list[int]]

# Hard cap on every permanent, checked in _sweep: one subset sweep makes up
# to n * 2^n extensions and holds up to 2^n column-subset states.
RYSER_MAX_ORDER = 16


def order_of(matrix: Matrix) -> int:
    """Return n for an n-by-n int matrix, rejecting empty or ragged input
    and any entry whose type is not int."""
    n = len(matrix)
    if n == 0 or set(map(len, matrix)) != {n}:
        raise ValueError("matrix must be square with order >= 1")
    bad = set(map(type, chain.from_iterable(matrix))) - {int}
    if bad:
        raise ValueError("matrix entries must be int, got "
                         + ", ".join(sorted(t.__name__ for t in bad)))
    return n


def permutation_sign(perm) -> int:
    """Sign of the permutation i -> perm[i]: (-1)^(n - number of cycles)."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            while not seen[start]:
                seen[start] = True
                start = perm[start]
    return -1 if (len(perm) - cycles) & 1 else 1


def det_bareiss(matrix: Matrix) -> int:
    """Exact determinant by fraction-free elimination with row pivoting
    (Bareiss 1968, Math. Comp. 22).

    Step k, with the pivot in place at (k, k), makes rows k+1..
    (a_ij * a_kk - a_ik * a_kj) / prev over columns k+1..; column k below
    the pivot keeps its values, since no later step reads it. After step k
    each updated entry is a (k+1)-minor of the (row-swapped) integer
    matrix, so the division by the previous pivot is exact. A column with
    no usable pivot means the matrix is singular.
    """
    n = order_of(matrix)
    rows = [list(row) for row in matrix]
    prev, sign = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        row_k = rows[k]
        pkk = row_k[k]
        for row_i in rows[k + 1:]:
            rik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - rik * row_k[j]) // prev
        prev = pkk
    return sign * rows[n - 1][n - 1]


def zeroed_dets(rows: Matrix, n: int, positions: list[tuple[int, int]]) -> list[int]:
    """det(X_ij) for each (i, j) in `positions`, in order, where X_ij is the
    int matrix X = `rows` with entry (i, j) set to 0; no input checks, and
    `rows` is not modified.

    Expanding X_ij along its row i (_expansions),

        det(X_ij) = sum over the columns c != j of x_ic * C_ic,

    where C_ic is the cofactor of X at (i, c): it reads only X's other
    rows, so it is X_ij's cofactor too. Row i's cofactors come from one
    fraction-free Gauss-Jordan elimination (Bareiss 1968, see det_bareiss)
    of X's other n - 1 rows in order. It pivots by column and never swaps
    rows: the step on row r pivots on that row's first nonzero among the
    columns not yet pivoted. At a step with pivot p and previous pivot
    prev, an entry v of every other row, pivoted before or not, in a column
    c not yet pivoted, becomes (v * p - a * w) / prev, where a is the row's
    entry in the pivot column and w the pivot row's entry in column c; the
    pivot row keeps its entries.

    After k steps, on pivot columns p_1..p_k, an entry in column c of a
    row not yet pivoted is the minor of order k + 1 on the k pivot rows and
    its own row, and on columns p_1..p_k and c; an entry of a pivot row is
    the minor of order k on the pivot rows and columns, with c in place of
    the row's own pivot column (Cramer's rule), and the last pivot D, the
    minor on the pivot columns, in its own. So each division is exact and
    no pivot is 0. If a pivot row has no nonzero left, it is a combination
    of the rows pivoted before it: the other rows are dependent, and every
    C_ic and every copy of row i is 0. Otherwise the n - 1 steps leave one
    free column q, and each pivot row holds D on its pivot column and one
    entry v on column q. With row i moved last, past n - 1 - i rows, and
    the columns in the order p_1, ..., p_{n-1}, q, each step's pivot column
    moving to the front of those left, the sign e of that reordering gives
    C_iq = e * D and C_ic = -e * v at the pivot column c of each pivot row.

    Row i's elimination pivots on rows 0..i-1 in the same order as that of
    every later row, so those steps are shared: one trunk eliminates X's
    rows in order, and just before it pivots on row i, row i's elimination
    branches off, drops row i and finishes on rows i+1..n-1. Every row of
    X gets its finish, whichever rows the positions name. The trunk stops
    at row n - 1 without pivoting on it, and drops row n - 1 before its
    step on row n - 2, so that its state there is row n - 1's elimination:
    no step reads all of X's rows, and det X is never formed. The trunk
    costs about n^3 / 2 multiplication pairs and row i's finish about
    n * (n - i)^2 / 2, so all n rows cost about n^4 / 6, and the copies'
    sums n^3.

    Each copy's value is thus its own expansion along row i. It shares with
    X only the cofactors of row i, minors of X's other rows, which X_ij and
    X have in common; X's row i enters only as x_ic, c != j, and det X and
    the term x_ij * C_ij are never read. The zeroed-entry identities need
    this: they are proved from det(X_ij) = det(X) - x_ij * C_ij, and a
    sweep built on it would check a tautology.
    """
    return _expansions(rows, n, positions, _cofactors)


def _cofactors(rows: Matrix, n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (i, terms) for the rows i of X in order: terms[c] = x_ic * C_ic,
    C_ic the cofactor of X at (i, c), from the trunk and the finishes that
    zeroed_dets describes. A row whose other rows are dependent, so that
    every C_ic is 0, is left out."""
    # Column c holds the entries of the pivoted rows, the latest first, then
    # those of the rows still to pivot, from the last to the first, so that
    # the next pivot row is always last. labels holds the indices of the
    # columns left, then of the pivot columns, the latest first.
    cols = [list(col) for col in zip(*reversed(rows))]
    labels, prev, parity = list(range(n)), 1, 0
    for k in range(n):
        # Row k's elimination is the trunk without row k, its last row; at
        # row n - 1 the trunk has left row n - 1 out already, unless n = 1.
        fcols = cols if k == n - 1 > 0 else [col[:-1] for col in cols]
        flabels, fprev, fparity = labels[:], prev, parity + n - 1 - k
        for _ in range(n - 1 - k):
            if (step := _pivot_step(fcols, fprev)) is None:
                break
            q, fprev, fcols = step
            fparity += q
            flabels.insert(len(fcols), flabels.pop(q))
        else:
            # C_kq = e * D at the free column, first in flabels, and
            # C_kc = -e * v at the pivot column c of each pivot row.
            cofactors = zip(flabels, [-fprev, *fcols[0]] if fparity & 1 else [fprev, *map(neg, fcols[0])])
            yield k, [rows[k][c] * m for c, m in sorted(cofactors)]
        if k == n - 2:
            cols = [col[:-2] + col[-1:] for col in cols]  # row n - 1 leaves the trunk
        if k == n - 1 or (step := _pivot_step(cols, prev)) is None:
            return  # done, or rows 0..k are dependent: so are every later row's other rows
        q, prev, cols = step
        parity += q
        labels.insert(len(cols), labels.pop(q))


def _pivot_step(cols: Matrix, prev: int) -> tuple[int, int, Matrix] | None:
    """One step of the elimination that zeroed_dets describes, on the row
    that is last in each column of `cols`, with previous pivot `prev`:
    (q, p, the other columns with that row moved first), where the pivot p
    is the row's first nonzero, in column q. None when the row has no
    nonzero. Consumes `cols`."""
    for q, col in enumerate(cols):
        if col[-1]:
            a = cols.pop(q)
            p = a.pop()
            return q, p, [[w, *[(v * p - x * w) // prev for v, x in zip(col, a)]]
                          for col in cols for w in [col[-1]]]
    return None


def per_ryser(matrix: Matrix) -> int:
    """Exact permanent by expansion along the rows over column subsets: the
    forward sweep that per_adjugate_rows runs on x*I - M, here on M, whose
    layer k holds, for each k-subset S of the columns, the permanent of
    rows 0..k-1 on the columns S. per(M) is the state at all columns, or 0
    when a row ends the sweep with no state left. Layer k holds at most
    comb(n, k) states, so the sweep makes at most 2^n times d extensions,
    d the most nonzeros in a row. The name stays because
    perfbench/tracer.py and perfbench/tests bind it.
    """
    n = order_of(matrix)
    for _, layer in _sweep([[(1 << c, v) for c, v in enumerate(row) if v] for row in matrix], n):
        pass
    return layer.get((1 << n) - 1, 0)


def zeroed_pers(rows: Matrix, n: int, positions: list[tuple[int, int]]) -> list[int]:
    """per(X_ij) for each (i, j) in `positions`, in order, where X_ij is the
    int matrix X = `rows` with entry (i, j) set to 0; no input checks, and
    `rows` is not modified.

    Expanding X_ij along its row i (_expansions) over the sweeps of
    per_ryser, with F[S] the forward state of rows 0..i-1 on the i-subset S
    of the columns and G[T] the backward state of rows i+1..n-1 on T,

        per(X_ij) = sum over the columns c != j of x_ic * P_ic,
        P_ic = sum over the S without c of F[S] * G[all - S - {c}],

    where P_ic is the permanent of X without row i and column c. Row i's
    copies share one pass over forward layer i and backward layer n-1-i,
    which gives P_ic at each nonzero column c of row i; then each copy sums
    its own terms, every column of row i but its own. Every row of X gets
    its pass, whichever rows the positions name: the backward sweep runs
    first, to layer n-1, keeping its layers, and the forward sweep stops at
    layer n-1, which row n-1 reads.

    Each copy's value is thus its own expansion along row i. It shares with
    X only the states F and G and the minors P_ic, permanents of rows other
    than row i, which X_ij and X have in common; neither sweep passes every
    row, so per X is never formed, and no copy is a row total less
    x_ij * P_ij, the shortcut the zeroed-entry identities are proved from
    (see zeroed_dets for why that matters).
    """
    return _expansions(rows, n, positions, _permanental_minors)


def _permanental_minors(rows: Matrix, n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (i, terms) for the rows i of X in order: terms[c] = x_ic * P_ic,
    P_ic at each nonzero column c of row i from the sweeps that zeroed_pers
    describes, and 0 at the other columns."""
    sets = [[(1 << c, v) for c, v in enumerate(row) if v] for row in rows]
    # Backward layers 0..n-1 by index: row i reads layer n-1-i, the last left.
    backward = [layer for _, layer in _sweep(sets[::-1], n - 1)]
    full = (1 << n) - 1
    for i, layer in _sweep(sets, n - 1):
        # minors[bit of c] = P_ic, at each nonzero column c of row i.
        back, minors = backward.pop(), {bit: 0 for bit, _ in sets[i]}
        for s, f in layer.items():
            rest = full ^ s
            for bit, _ in sets[i]:
                if rest & bit and (g := back.get(rest ^ bit)):
                    minors[bit] += f * g
        terms = [0] * n
        for bit, x in sets[i]:
            terms[bit.bit_length() - 1] = x * minors[bit]
        yield i, terms


def _expansions(rows: Matrix, n: int, positions: list[tuple[int, int]], terms) -> list[int]:
    """The values of zeroed_dets or zeroed_pers, one rule for both:
    terms(rows, n) yields (i, [x_ic * M_ic for each column c]) for the rows
    i of X, M_ic the signed or permanental minor of X without row i and
    column c, and copy (i, j) is the sum of the terms at the columns before
    j and after it, never a row total less x_ij * M_ij. A row left out has
    copies of 0."""
    row_terms = [[0] * n] * n
    for i, row in terms(rows, n):
        row_terms[i] = row
    return [sum(row_terms[i][:j]) + sum(row_terms[i][j + 1:]) for i, j in positions]


def charpoly_berkowitz(matrix: Matrix) -> list[int]:
    """Coefficients, constant term first, of det(x*I - M), by Berkowitz's
    division-free algorithm (Berkowitz 1984, Inf. Process. Lett. 18).

    The leading principal submatrix M_r is bordered by row R, column C and
    diagonal entry a; then charpoly(M_{r+1}) = T * charpoly(M_r), where T
    is lower-triangular Toeplitz with first column
    (1, -a, -R*C, -R*M_r*C, ..., -R*M_r^(r-1)*C). Only ring operations
    are used, so everything stays in Python ints. Products skip
    zero entries: a matrix with z nonzeros costs O(n^2 * (n + z)), not
    O(n^4).
    """
    n = order_of(matrix)
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in matrix]
    poly = [1]  # charpoly(M_r), leading coefficient first
    for r in range(n):
        border_row = [(j, v) for j, v in nonzero[r] if j < r]
        vec = [matrix[i][r] for i in range(r)]
        toeplitz = [1, -matrix[r][r]] + [0] * r
        if border_row and any(vec):
            sub = [[(j, v) for j, v in nonzero[i] if j < r] for i in range(r)]
            for k in range(r):
                toeplitz[k + 2] = -sum(v * vec[j] for j, v in border_row)
                if k == r - 1:
                    break
                vec = [sum(v * vec[j] for j, v in row) for row in sub]
                if not any(vec):
                    break
        out = [0] * (r + 2)
        for d, t in enumerate(toeplitz):
            if t:
                for j in range(min(r + 1, r + 2 - d)):
                    out[j + d] += t * poly[j]
        poly = out
    return poly[::-1]


def adjugate_rows(matrix: Matrix, wanted: dict[int, Iterable[int]]
                  ) -> tuple[list[int], dict[tuple[int, int], list[int]]]:
    """(coefficients of det(x*I - M), entries), both constant term first:
    entry (t, j) of adj(x*I - M), for each row t of `wanted` and each j in
    wanted[t], as n coefficients. With nothing wanted the coefficients come
    from charpoly_berkowitz.

    adj(x*I - M)[t][j] is the cofactor of entry (j, t) of x*I - M. With
    c_0..c_n the coefficients of det(x*I - M), adj(x*I - M) = sum_k x^k B_k,
    and the Faddeev-LeVerrier recurrence gives, for k = n-1, ..., 0,

        B_{n-1} = I,  c_k = -tr(B_k * M) / (n - k),  B_{k-1} = c_k * I + B_k * M.

    Row t of B_{k-1} follows from row t of B_k alone, and tr(B_k * M) sums
    (row t of B_k) . (column t of M) over the t whose column of M is not
    zero. So the kernel keeps only the rows of B_k at M's nonzero columns
    and at the wanted heads, which for a deck pencil are the same rows, the
    arc heads; one pass gives every coefficient and every entry. Row t of
    B_k is zero outside M's nonzero columns and t, so its product with M
    reads only M's rows at kept indices: a kept row costs O(n * (n + z))
    over all k, for z nonzeros in those rows. Once every kept row is zero,
    every later c_k and row is zero too.

    Each c_k is an int, so each trace divides exactly; a remainder is a
    kernel bug, raised even under -O. A coefficient-only call would keep
    every row at M's nonzero columns, which costs more than Berkowitz.
    """
    if not wanted:
        return charpoly_berkowitz(matrix), {}
    n = order_of(matrix)
    columns = [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(n)]
    rows = {t: [int(j == t) for j in range(n)] for t in range(n) if columns[t] or t in wanted}
    nonzero = [(i, nz) for i in rows if (nz := [(j, v) for j, v in enumerate(matrix[i]) if v])]
    traced = [(t, columns[t]) for t in rows if columns[t]]
    entries = {(t, j): [0] * n for t, cols in wanted.items() for j in cols}
    coeffs = [0] * n + [1]
    for k in range(n - 1, -1, -1):
        for (t, j), entry in entries.items():
            entry[k] = rows[t][j]
        c, rest = divmod(-sum([rows[t][i] * v for t, col in traced for i, v in col]), n - k)
        if rest:
            raise AssertionError(f"tr(B_{k} * M) is not divisible by {n - k}")
        coeffs[k] = c
        if not k:
            break
        for t, row in rows.items():  # row t of B_{k-1} from row t of B_k alone
            out = [0] * n
            out[t] = c
            for i, nz in nonzero:
                x = row[i]
                if x:
                    for j, v in nz:
                        out[j] += x * v
            rows[t] = out
        if not any(map(any, rows.values())):
            break
    return coeffs, entries


def per_adjugate_rows(matrix: Matrix, wanted: dict[int, Iterable[int]]
                      ) -> tuple[list[int], dict[tuple[int, int], list[int]]]:
    """(coefficients of per(x*I - M), entries), both constant term first:
    entry (t, j), for each row t of `wanted` and each j in wanted[t], is the
    permanent of x*I - M without row j and column t, as n coefficients.

    Two sweeps over column subsets of P = x*I - M give them all. The
    forward sweep's layer k holds F[S], for each k-subset S of the columns,
    the permanent of rows 0..k-1 of P on the columns S; the backward
    sweep's layer k holds G[T], the permanent of the last k rows on the
    columns T. Both start from the empty set with value 1, and a layer
    gives the next by expanding along the next row (row k forward, row
    n-1-k backward): each state S is extended by each nonzero entry of that
    row in a column c outside S, adding its value times the entry to state
    S + {c}. Then per(P) is F[all columns], and expanding the minor without
    row j and column t at the rows above j,

        entry (t, j) = sum over the j-subsets S without t of F[S] * G[all - S - {t}].

    A coefficient-only call runs the forward sweep alone. Otherwise the
    backward sweep runs first, up to layer n-1-j for the least wanted row j,
    keeping the layers the wanted rows read, and the forward sweep pairs
    each layer j a wanted row reads with backward layer n-1-j as it passes.
    Layer k holds at most comb(n, k) states, so a sweep makes at most 2^n
    times d extensions, d the most nonzeros in a row of P.

    Each polynomial is one int, its value at x = X = 2^B (Kronecker
    substitution): evaluation at X commutes with sums and products, so each
    state is the value at X of its permanent, an extension is one int
    multiply-add, and the results are per(P) and the minors at X. A state
    is an exact int that is never decoded, so one of value 0 would add 0 to
    every state and entry it reaches: it is dropped, not extended. Only the
    results are decoded, once each, as balanced base-X digits, which are
    their coefficients if all are below 2^(B-1) in absolute value. They are
    for B = bit_length(Q) + 1, Q = prod_r (1 + sum_c |M[r][c]|): entry
    (r, c) of P has absolute coefficients summing to [r = c] + |M[r][c]|,
    so those of per(P) sum to at most per(I + |M|), and those of a minor to
    at most the same minor of I + |M|; a nonnegative matrix's permanent is
    at most the product of its row sums, and that product is at most Q.
    """
    n = order_of(matrix)
    keys = list(dict.fromkeys((t, j) for t, rows in wanted.items() for j in rows))
    heads: dict[int, list] = {}  # row j -> (bit of t, index of entry (t, j)) per head t that wants it
    for i, (t, j) in enumerate(keys):
        heads.setdefault(j, []).append((1 << t, i))
    bits = prod(1 + sum(map(abs, row)) for row in matrix).bit_length() + 1
    x = 1 << bits
    rows = [[(1 << c, x - v if c == r else -v) for c, v in enumerate(row) if v or c == r]
            for r, row in enumerate(matrix)]
    # Backward layer n-1-j, keyed by the wanted row j that reads it.
    backward = {n - 1 - k: layer for k, layer in _sweep(rows[::-1], n - 1 - min(heads))
                if n - 1 - k in heads} if heads else {}
    full, acc = (1 << n) - 1, [0] * len(keys)
    for j, layer in _sweep(rows, n):
        back = backward.pop(j, None)
        if back is not None:
            for s, f in layer.items():
                rest = full ^ s
                for bit, i in heads[j]:
                    if rest & bit and (g := back.get(rest ^ bit)):
                        acc[i] += f * g
    return _unpacked(layer.get(full, 0), n + 1, bits), {k: _unpacked(v, n, bits) for k, v in zip(keys, acc)}


def _sweep(rows: list[list[tuple[int, int]]], depth: int):
    """Yield (k, layer k) for k = 0..depth: layer 0 is {0: 1}, and layer
    k + 1 extends each state S of layer k by each (bit c, value) of rows[k]
    with c outside S, as per_adjugate_rows describes; a state of value 0 is
    not extended. A layer maps column bitsets to ints. More than
    RYSER_MAX_ORDER rows raise ValueError before the first layer."""
    if len(rows) > RYSER_MAX_ORDER:
        raise ValueError(f"permanents are capped at order {RYSER_MAX_ORDER}, got {len(rows)}")
    layer = {0: 1}
    yield 0, layer
    for k, row in enumerate(rows[:depth]):
        last, layer = layer, {}
        get = layer.get
        for s, v in last.items():
            if v:
                for bit, a in row:
                    if not s & bit:
                        u = s | bit
                        layer[u] = get(u, 0) + v * a
        yield k + 1, layer


def _unpacked(value: int, count: int, bits: int) -> list[int]:
    """The `count` coefficients, constant term first, packed in `value` at x = 2^bits:
    balanced digits in [-2^(bits-1), 2^(bits-1)), the last taking what is left."""
    half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
    for _ in range(count - 1):
        out.append(((value + half) & mask) - half)
        value = (value - out[-1]) >> bits
    return out + [value]
