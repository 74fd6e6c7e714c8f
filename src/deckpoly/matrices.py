"""Dense integer matrices with determinant and permanent kernels.

A matrix is a plain list of equal-length rows of Python ints; every
public kernel but the zeroing sweeps goes through order_of, which rejects
any other entry type (a Fraction included), because Bareiss's exact
division is only exact on integers. A caller with rational entries clears
denominators first, as graph_polys does. No public function mutates its
input.

det_bareiss and per_ryser (Glynn's formula) give one scalar value.
zeroed_dets and zeroed_pers give one value per zeroed copy X_ij of X (X
with entry (i, j) set to 0), for the zeroed-entry identities: each copy
gets its own elimination, or its own Glynn sum, and a copy shares with X
only the intermediate values that are equal in both. So the det sweep runs
one fraction-free elimination trunk over X's rows in order, which row i's
copies leave just before it pivots on row i, to finish on rows i+1..n-1
together; each copy carries only its own row, about 7n^4 / 12
multiplication pairs for all n^2 copies. The per sweep walks the Glynn sign
vectors once and forms each copy's product of column sums.
Neither reads det X, per X or a cofactor of X, and every value either
sweep shares with X is a value of the copy too. Both skip input checks:
the caller has validated X with the scalar kernel.

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

from collections.abc import Iterable
from itertools import accumulate, chain
from math import prod
from operator import mul

Matrix = list[list[int]]

# Hard cap: per_adjugate_rows holds up to 2^n column-subset states per
# sweep, Glynn's walk (per_ryser) covers 2^(n-1) sign vectors.
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

    Copy X_ij is evaluated by a fraction-free elimination (Bareiss, see
    det_bareiss) of X's other n - 1 rows in order, with the copy's own row,
    X's row i with entry j set to 0, carried below them. It pivots by
    column and never swaps rows: the step on row r pivots on that row's
    first nonzero among the columns not yet pivoted. At a step with pivot p
    and previous pivot prev, an entry v of a row below the pivot row, in a
    column c not yet pivoted, becomes (v * p - a * w) / prev, where a is the
    row's entry in the pivot column and w the pivot row's entry in column c.

    This is Bareiss's elimination of the copy with row i moved last and its
    columns in pivot order p_0, p_1, ... So after s + 1 steps every entry is
    an (s+1)-minor of the copy: the one on the s + 1 pivot rows and the
    entry's own row, and on columns p_0..p_s and c. The pivot p is such a
    minor too, on the rows and columns of the steps so far, so each division
    is exact and no pivot is 0. If a pivot row has no nonzero left, every
    minor on it and the pivot rows before it is 0 while the last pivot is
    not, so that row is a combination of the rows before it: the other rows
    are dependent, and every copy in row i has det 0. Otherwise the one
    entry left in a copy's row is det X_ij, times the signs of moving row i
    last, past n - 1 - i rows, and of the column order, each step's pivot
    column moving to the front of those left.

    The copies of row i pivot on rows 0..i-1 in the same order as every
    copy of a later row, so those steps are shared: one trunk eliminates
    X's rows in order, pivoting on row k once for every row after it, and
    carries each copy as a row of its own. Just before the trunk pivots on
    row i, row i's copies leave it and finish on rows i+1..n-1, which they
    share with one another; the trunk stops at the last row that has
    copies, so det X is never formed. The trunk costs about n^3 / 3
    multiplication pairs, row i's finish about (n - i)^3 / 3 and a copy
    about n^2 / 2, so all n^2 copies cost about 7n^4 / 12.

    Each copy's value is thus its own elimination's. The values a copy of
    row i shares are the entries of its pivot rows: rows 0..i-1 as the
    trunk leaves them, and rows i+1..n-1 as the trunk hands them to row i's
    finish and its steps leave them. Each is a minor of X on that row and
    the pivot rows before it, none of them row i, and X_ij differs from X
    only in row i, so each is a minor of X_ij too. The copy's own row starts
    as X_ij's row i; X's row i, det X and the cofactors of X are never
    read. The zeroed-entry identities need this: they are proved from
    det(X_ij) = det(X) - x_ij * C_ij, and a sweep built on it would check a
    tautology.
    """
    by_row: dict[int, list[tuple[int, int]]] = {}
    for t, (i, j) in enumerate(positions):
        by_row.setdefault(i, []).append((t, j))
    out = [0] * len(positions)
    if not by_row:
        return out
    # Column c holds each copy's entry, the copies of each row together and
    # the rows in order, then X's rows from the last to the first, so that
    # the next pivot row is always last and the next copies to leave first.
    order = sorted(by_row)
    copies = [c for i in order for c in by_row[i]]
    cols = [list(col) for col in zip(*[rows[i] for i in order for _ in by_row[i]], *reversed(rows))]
    for s, (_, j) in enumerate(copies):
        cols[j][s] = 0
    carried, prev, parity = len(copies), 1, 0
    for k in range(order[-1] + 1):
        leaving = len(by_row.get(k, ()))
        if leaving:
            finish = [col[:leaving] + col[carried:-1] for col in cols]
            fprev, fparity = prev, parity + n - 1 - k
            for _ in range(n - 1 - k):
                step = _pivot_step(finish, fprev)
                if step is None:
                    break
                q, fprev, finish = step
                fparity += q
            else:
                for (t, _), det in zip(by_row[k], finish[0]):
                    out[t] = -det if fparity & 1 else det
            if k == order[-1]:
                break
            cols = [col[leaving:] for col in cols]
            carried -= leaving
        step = _pivot_step(cols, prev)
        if step is None:
            break  # rows 0..k are dependent: every later copy has det 0
        q, prev, cols = step
        parity += q
    return out


def _pivot_step(cols: Matrix, prev: int) -> tuple[int, int, Matrix] | None:
    """One step of the elimination that zeroed_dets describes, on the row
    that is last in each column of `cols`, with previous pivot `prev`:
    (q, p, the other columns without that row), where the pivot p is the
    row's first nonzero, in column q. None when the row has no nonzero.
    Consumes `cols`."""
    for q, col in enumerate(cols):
        if col[-1]:
            break
    else:
        return None
    a = cols.pop(q)
    p = a.pop()
    return q, p, [[(v * p - x * w) // prev for v, x in zip(col, a)] for col in cols for w in [col[-1]]]


def per_ryser(matrix: Matrix) -> int:
    """Exact permanent by Glynn's formula (Glynn 2010, European J. Combin. 31):

        per(M) = 2^-(n-1) * sum_d (prod_i d_i) * prod_j sum_i d_i * M[i][j]

    over d in {+1, -1}^n with d_0 = +1, in Gray-code order: step g flips one
    d_i, so prod_i d_i = (-1)^g, and moves the column sums by twice one row.
    The name stays because perfbench/tracer.py and perfbench/tests bind it.
    """
    n = order_of(matrix)
    if n > RYSER_MAX_ORDER:
        raise ValueError(f"per_ryser is capped at order {RYSER_MAX_ORDER}, got {n}")
    total = 0
    for g, sums in _glynn_walk(matrix, n):
        if 0 not in sums:
            total += -prod(sums) if g & 1 else prod(sums)
    return _glynn_quotient(total, n)


def _glynn_walk(rows: Matrix, n: int):
    """Yield (g, sums) for g = 0 .. 2^(n-1) - 1: the column sums
    sums[j] = sum_i d_i * rows[i][j] at the g-th sign vector d in Gray-code
    order, where d_0 = +1 and d_i = -1 exactly when bit i of
    (g ^ (g >> 1)) << 1 is set, so that prod_i d_i = (-1)^g. `sums` is one
    list, updated in place between yields."""
    doubled = [[(j, 2 * v) for j, v in enumerate(row) if v] for row in rows[1:]]
    sums = [sum(col) for col in zip(*rows)]
    yield 0, sums
    for g in range(1, 1 << (n - 1)):
        bit = (g & -g).bit_length() - 1
        if (g ^ (g >> 1)) >> bit & 1:
            for j, v in doubled[bit]:
                sums[j] -= v
        else:
            for j, v in doubled[bit]:
                sums[j] += v
        yield g, sums


def _glynn_quotient(total: int, n: int) -> int:
    """A Glynn sum over 2^(n-1), which must divide it."""
    per, rest = divmod(total, 1 << (n - 1))
    if rest:
        raise AssertionError(f"Glynn sum {total} is not divisible by 2^{n - 1}")
    return per


def zeroed_pers(rows: Matrix, n: int, positions: list[tuple[int, int]]) -> list[int]:
    """per(X_ij) for each (i, j) in `positions`, in order, where X_ij is the
    int matrix X = `rows` with entry (i, j) set to 0; no input checks, and
    `rows` is not modified.

    One Glynn walk (see per_ryser) serves every copy. At sign vector d,
    copy (i, j) has X's column sums s but for column j's, which is
    s_j - d_i * x_ij. So the products of all column sums but column j's,
    excl_j, are formed once by prefix and suffix products, and copy (i, j)
    adds its own Glynn term (prod_i d_i) * excl_j * (s_j - d_i * x_ij), the
    product of its own column sums; each copy's sum is then divided by
    2^(n-1). Each copy's value is thus its own Glynn sum, sharing only the
    column sums equal in the copy and in X; per X, or a permanental minor
    of X, is never read (see zeroed_dets for why that matters).
    """
    copies = [(i, j, rows[i][j]) for i, j in positions]
    acc = [0] * len(copies)
    for g, sums in _glynn_walk(rows, n):
        negative = (g ^ (g >> 1)) << 1  # bit i set: d_i = -1
        # excl[j] = (prod_i d_i) * the product of every column sum but s_j.
        head = accumulate(sums, mul, initial=-1 if g & 1 else 1)
        tail = list(accumulate(reversed(sums), mul, initial=1))
        excl = list(map(mul, head, reversed(tail[:-1])))
        for k, (i, j, x) in enumerate(copies):
            acc[k] += excl[j] * (sums[j] + x if negative >> i & 1 else sums[j] - x)
    return [_glynn_quotient(total, n) for total in acc]


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
    if n > RYSER_MAX_ORDER:
        raise ValueError(f"per_adjugate_rows is capped at order {RYSER_MAX_ORDER}, got {n}")
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
    not extended. A layer maps column bitsets to ints."""
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
