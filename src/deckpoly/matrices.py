"""Dense integer matrices with determinant and permanent kernels.

A matrix is a plain list of equal-length rows of Python ints; every
public kernel but the zeroing sweeps goes through order_of (the cores
_det_bareiss and _per_glynn skip it too), which rejects any other entry
type (a Fraction included), because Bareiss's exact division is only exact
on integers. A caller with rational entries clears denominators first, as
graph_polys does. No public function mutates its input.

det_bareiss and per_ryser (Glynn's formula) give one scalar value.
zeroed_dets and zeroed_pers give one value per zeroed copy X_ij of X (X
with entry (i, j) set to 0), for the zeroed-entry identities: each copy
gets its own elimination, or its own Glynn sum, and a copy shares with X
only the intermediate values that are equal in both. So the det sweep runs,
for each row i, one fraction-free elimination of X's other n - 1 rows,
which every copy in row i shares, and each copy carries only its own row
through it, about 5n^4 / 6 multiplication pairs for all n^2 copies; the
per sweep walks the Glynn sign vectors once and forms each copy's product
of column sums.
Neither reads det X, per X or a cofactor of X, and every value either
sweep shares with X is a value of the copy too. Both skip input checks:
the caller has validated X with the scalar kernel.

charpoly_berkowitz gives every coefficient of det(x*I - M) at once.
adjugate_rows and per_adjugate_rows share one contract: (M, wanted) gives
every coefficient of det(x*I - M), or of per(x*I - M), and chosen entries
of the matching adjugate of x*I - M: the signed cofactors, or the
permanental minors, down one column, which is what a change to that column
needs (column linearity). adjugate_rows reads its entries off Berkowitz's
coefficients by Horner's rule in M; per_adjugate_rows gets the permanent and
every minor from one Gray-code Ryser walk on polynomials packed into ints
at x = 2^B (Kronecker substitution). Everything is in Python ints.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate, chain
from math import prod
from operator import mul

Matrix = list[list[int]]

# Hard cap: Ryser costs 2^n subsets, Glynn 2^(n-1).
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

    After step k each updated entry is a (k+1)-minor of the (row-swapped)
    integer matrix, so the division by the previous pivot is exact.
    A column with no usable pivot means the matrix is singular.
    """
    n = order_of(matrix)
    return _det_bareiss([list(row) for row in matrix], n)


def _det_bareiss(rows: Matrix, n: int) -> int:
    """det_bareiss without input checks, eliminating in place in `rows`.

    Step k, with the pivot in place at (k, k), makes rows k+1..
    (a_ij * a_kk - a_ik * a_kj) / prev over columns k+1..; column k below
    the pivot keeps its values, since no later step reads it."""
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

    Every copy in row i has X's other n - 1 rows, so one fraction-free
    elimination of those rows (Bareiss, see det_bareiss) serves them all.
    It pivots by column and never swaps rows: step s pivots on row s's
    first nonzero among the columns not yet pivoted. Each copy carries only
    its own row through the same steps: X's row i with entry j set to 0.
    At step s, with pivot p and previous pivot prev (1 at step 0), an entry
    v of a row below the pivot row, in a column c not yet pivoted, becomes
    (v * p - a * w) / prev, where a is the row's entry in the pivot column
    and w the pivot row's entry in column c.

    This is Bareiss's elimination of the copy with row i moved last and its
    columns in pivot order p_0, p_1, ... So after step s every entry is an
    (s+1)-minor of the copy: the one on its rows 0..s of the other rows and
    the entry's own row, and on columns p_0..p_s and c. The pivot p is such
    a minor too, on the rows and columns of steps 0..s, so each division is
    exact and no pivot is 0. If row s has no nonzero left, every minor on
    its rows 0..s is 0 while the last pivot is not, so row s is a
    combination of the rows before it: the other rows are dependent, and
    every copy in row i has det 0. Otherwise the one entry left in a copy's
    row is det X_ij, times the signs of moving row i last, past n - 1 - i
    rows, and of the column order, each step's pivot column moving to the
    front of those left.

    The elimination costs about n^3 / 3 multiplication pairs per row and a
    copy about n^2 / 2, so all n^2 copies cost about 5n^4 / 6.

    Each copy's value is thus its own elimination's: the shared steps read
    only the rows that X_ij and X have in common, and the copy's own row
    gets its own arithmetic. det X and the cofactors of X are never read,
    and every minor that the shared steps form avoids row i, so it is a
    minor of X_ij too. The zeroed-entry identities need this: they are
    proved from det(X_ij) = det(X) - x_ij * C_ij, and a sweep built on it
    would check a tautology.
    """
    by_row: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(positions):
        by_row.setdefault(i, []).append((k, j))
    out = [0] * len(positions)
    for i, copies in by_row.items():
        dets = _stacked_dets(rows[:i] + rows[i + 1:], rows[i], [j for _, j in copies])
        sign = -1 if (n - 1 - i) & 1 else 1
        for (k, _), det in zip(copies, dets):
            out[k] = sign * det
    return out


def _stacked_dets(others: Matrix, row: list[int], zeroed: list[int]) -> list[int]:
    """The determinant of the n - 1 rows `others` stacked over `row` with
    entry j set to 0, for each j in `zeroed`, in order, by the elimination
    that zeroed_dets describes."""
    # Column c holds each stacked row's entry, then the other rows' from
    # the last to the first, so that the next pivot row is always last.
    cols = [[x] * len(zeroed) for x in row]
    for col, rest in zip(cols, zip(*reversed(others))):
        col += rest
    for t, j in enumerate(zeroed):
        cols[j][t] = 0
    prev, parity = 1, 0
    for _ in others:
        for q, col in enumerate(cols):
            if col[-1]:
                break
        else:
            return [0] * len(zeroed)
        parity += q
        a = cols.pop(q)
        p = a.pop()
        cols = [[(v * p - x * w) // prev for v, x in zip(col, a)] for col in cols for w in [col[-1]]]
        prev = p
    return [-v for v in cols[0]] if parity & 1 else cols[0]


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
    return _per_glynn(matrix, n)


def _per_glynn(rows: Matrix, n: int) -> int:
    """per_ryser without input checks; `rows` is not modified."""
    total = 0
    for g, sums in _glynn_walk(rows, n):
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
        if sums.count(0) > 1:
            continue  # every copy keeps a zero column sum
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
    the coefficients from charpoly_berkowitz, and entry (t, j) of
    adj(x*I - M), for each row t of `wanted` and each j in wanted[t], as n
    coefficients.

    adj(x*I - M)[t][j] is the cofactor of entry (j, t) of x*I - M. With
    c_0..c_n the coefficients of det(x*I - M), the Cayley-Hamilton identity
    (x*I - M) * adj(x*I - M) = det(x*I - M) * I gives adj(x*I - M) =
    sum_k x^k B_k with B_{n-1} = I and, by Horner's rule (the
    Faddeev-LeVerrier recurrence),

        B_{k-1} = c_k * I + B_k * M,

    so row t of each B_k follows from the one before by a sparse
    vector-matrix product and is read at the wanted columns. Row t then
    costs O(n * (z + c)) for z nonzeros and c wanted columns. Once the row
    is zero and c_1..c_k are all zero, every later B_k row is zero too.
    """
    charpoly = charpoly_berkowitz(matrix)
    if not wanted:
        return charpoly, {}
    n = len(charpoly) - 1
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in matrix]
    lowest = next(k for k in range(1, n + 1) if charpoly[k])  # c_n = 1
    out = {}
    for t, cols in wanted.items():
        entries = {(t, j): [0] * n for j in cols}
        row = [0] * n
        row[t] = 1
        for k in range(n - 1, -1, -1):
            for (_, j), entry in entries.items():
                entry[k] = row[j]
            if not k or k < lowest and not any(row):
                break
            nxt = [0] * n
            nxt[t] = charpoly[k]
            for i, x in enumerate(row):
                if x:
                    for j, v in nonzero[i]:
                        nxt[j] += x * v
            row = nxt
        out.update(entries)
    return charpoly, out


def per_adjugate_rows(matrix: Matrix, wanted: dict[int, Iterable[int]]
                      ) -> tuple[list[int], dict[tuple[int, int], list[int]]]:
    """(coefficients of per(x*I - M), entries), both constant term first:
    entry (t, j), for each row t of `wanted` and each j in wanted[t], is the
    permanent of x*I - M without row j and column t, as n coefficients.

    One Gray-code Ryser walk over the column subsets S gives them all. Over
    S, row r of x*I - M sums to x*[r in S] - u_r with u_r = sum_{c in S}
    M[r][c], and the signs of Ryser's formula (see per_ryser) cancel:

        per(x*I - M) = sum_S T_S,  T_S = prod_{r not in S} u_r * prod_{r in S} (x - u_r).

    Minor (t, j) sums, over the S without t, T_S with row j's factor divided
    out: T_S / u_j when j is not in S, -T_S / (x - u_j) when it is. So each
    subset forms T_S once, divides each wanted row out once, and adds the
    quotient to every head t outside S that wants that row. A zero u_r
    outside S makes T_S zero: if it is the only one and row r is wanted,
    the subset adds to row r's minors alone, otherwise the subset is
    dropped. In Gray-code order each step updates u by the nonzeros of one
    column.

    Each polynomial is one int, its value at x = X = 2^B (Kronecker
    substitution): a product is a few int multiplications, each division
    above an exact int division, a sum one int addition. Each result is read
    once as balanced base-X digits, its coefficients if all are below
    2^(B-1) in absolute value, as they are for B = bit_length(2^n * P) + 1,
    P = prod_r (1 + sum_c |M[r][c]|): |u_r| is at most row r's absolute
    sum, so the absolute coefficients of T_S, with or without one factor,
    sum to at most P, and a result adds <= 2^n of them.
    """
    n = order_of(matrix)
    if n > RYSER_MAX_ORDER:
        raise ValueError(f"per_adjugate_rows is capped at order {RYSER_MAX_ORDER}, got {n}")
    keys = list(dict.fromkeys((t, j) for t, rows in wanted.items() for j in rows))
    heads: dict[int, list] = {}  # row j -> (t, index of entry (t, j)) per head t that wants it
    for i, (t, j) in enumerate(keys):
        heads.setdefault(j, []).append((t, i))
    masks = {j: sum(1 << t for t, _ in ts) for j, ts in heads.items()}
    columns = [[(i, matrix[i][j]) for i in range(n) if matrix[i][j]] for j in range(n)]
    # Zero rows of M have u_r = 0 for every S: apply the zero rule to them by bit mask.
    empty, wants = sum(1 << r for r in range(n) if not any(matrix[r])), sum(1 << j for j in heads)
    bits = (prod(1 + sum(map(abs, row)) for row in matrix) << n).bit_length() + 1
    x = 1 << bits
    sums, total, acc = [0] * n, 0, [0] * len(keys)
    for g in range(1 << n):
        gray = g ^ (g >> 1)
        if g:
            col = (g & -g).bit_length() - 1
            if gray >> col & 1:
                for i, v in columns[col]:
                    sums[i] += v
            else:
                for i, v in columns[col]:
                    sums[i] -= v
        lone = empty & ~gray
        if lone & (lone - 1) or lone & ~wants:
            continue
        term, zero = 1, None
        for r, s in enumerate(sums):
            if gray >> r & 1:
                term *= x - s
            elif s:
                term *= s
            elif zero is None and r in heads:
                zero = r
            else:
                break
        else:
            # term is T_S at X, or T_S / u_zero when a zero u_zero is left out.
            if zero is None:
                total += term
            for j in heads if zero is None else (zero,):
                if not masks[j] & ~gray:
                    continue  # every head that wants row j is in S
                if zero is not None:
                    quot = term
                elif not gray >> j & 1:
                    quot = term // sums[j]
                else:
                    quot = -(term // (x - sums[j]))
                for t, i in heads[j]:
                    if not gray >> t & 1:
                        acc[i] += quot
    return _unpacked(total, n + 1, bits), {k: _unpacked(v, n, bits) for k, v in zip(keys, acc)}


def _unpacked(value: int, count: int, bits: int) -> list[int]:
    """The `count` coefficients, constant term first, packed in `value` at x = 2^bits:
    balanced digits in [-2^(bits-1), 2^(bits-1)), the last taking what is left."""
    half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
    for _ in range(count - 1):
        out.append(((value + half) & mask) - half)
        value = (value - out[-1]) >> bits
    return out + [value]
