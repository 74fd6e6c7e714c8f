"""Dense integer matrices with determinant and permanent kernels.

A matrix is a plain list of equal-length rows of Python ints; every
kernel goes through order_of, which rejects any other entry type (a
Fraction included), because Bareiss's exact division is only exact on
integers. A caller with rational entries clears denominators first, as
graph_polys does. No function mutates its input.

det_bareiss and per_ryser give one scalar value. charpoly_berkowitz and
perpoly_ryser give every coefficient of det(x*I - M) and per(x*I - M)
at once. adjugate_rows and per_adjugate_rows give chosen entries of the
polynomial adjugate of x*I - M: the signed cofactors, or the permanental
minors, down one column, which is what a change to that column needs
(column linearity). Everything is computed and returned in Python ints.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, permutations

Matrix = list[list[int]]

# Hard caps: the expansions cost n! terms, Ryser costs 2^n subsets.
EXPANSION_MAX_ORDER = 8
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


def zero_entry(matrix: Matrix, i: int, j: int) -> Matrix:
    """Copy of `matrix` with entry (i, j) replaced by zero."""
    n = order_of(matrix)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) outside a {n}x{n} matrix")
    out = [list(row) for row in matrix]
    out[i][j] = 0
    return out


def permutation_sign(perm) -> int:
    """Sign of the permutation i -> perm[i], by cycle parity."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_bareiss(matrix: Matrix) -> int:
    """Exact determinant by fraction-free elimination with row pivoting
    (Bareiss 1968, Math. Comp. 22).

    After step k each updated entry is a (k+1)-minor of the (row-swapped)
    integer matrix, so the division by the previous pivot is exact.
    A column with no usable pivot means the matrix is singular.
    """
    n = order_of(matrix)
    rows = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pkk = rows[k][k]
        row_k = rows[k]
        for i in range(k + 1, n):
            row_i = rows[i]
            rik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - rik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * rows[n - 1][n - 1]


def permutation_expansion(matrix: Matrix, signed: bool) -> int:
    """Permutation-sum determinant (signed) or permanent (unsigned); the
    n!-term oracle for det_bareiss and per_ryser."""
    n = order_of(matrix)
    if n > EXPANSION_MAX_ORDER:
        raise ValueError(
            f"permutation_expansion is capped at order {EXPANSION_MAX_ORDER}, got {n}")
    total = 0
    for perm in permutations(range(n)):
        term = permutation_sign(perm) if signed else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
            if not term:
                break
        total += term
    return total


def per_ryser(matrix: Matrix) -> int:
    """Exact permanent via the alternating column-subset formula:

        per(M) = (-1)^n * sum_S (-1)^|S| * prod_i sum_{j in S} M[i][j]

    over all subsets S of the columns. Subsets are visited in Gray-code
    order so each step updates the row sums by a single column.
    """
    n = order_of(matrix)
    if n > RYSER_MAX_ORDER:
        raise ValueError(f"per_ryser is capped at order {RYSER_MAX_ORDER}, got {n}")
    sums = [0] * n
    total = 0
    size = 0
    for g in range(1, 1 << n):
        col = (g & -g).bit_length() - 1
        if (g ^ (g >> 1)) & (1 << col):
            size += 1
            for i in range(n):
                sums[i] += matrix[i][col]
        else:
            size -= 1
            for i in range(n):
                sums[i] -= matrix[i][col]
        prod = 1
        for s in sums:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            total += -prod if size & 1 else prod
    return -total if n & 1 else total


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


def perpoly_ryser(matrix: Matrix) -> list[int]:
    """Coefficients, constant term first, of per(x*I - M), by one Ryser pass.

    Over a column subset S, row i of x*I - M sums to x*[i in S] - u_i with
    u_i = sum_{j in S} M[i][j]. The signs of Ryser's formula (see
    per_ryser) then cancel:

        per(x*I - M) = sum_S prod_{i not in S} u_i * prod_{i in S} (x - u_i).

    Subsets are visited in Gray-code order, so each step updates u by the
    nonzeros of one column; a subset with some u_i = 0 outside S adds
    nothing and is skipped before its product is expanded.
    """
    n = order_of(matrix)
    if n > RYSER_MAX_ORDER:
        raise ValueError(f"perpoly_ryser is capped at order {RYSER_MAX_ORDER}, got {n}")
    columns = [[(i, matrix[i][j]) for i in range(n) if matrix[i][j]] for j in range(n)]
    sums = [0] * n
    total = [0] * (n + 1)
    for g in range(1, 1 << n):
        col = (g & -g).bit_length() - 1
        gray = g ^ (g >> 1)
        if gray >> col & 1:
            for i, v in columns[col]:
                sums[i] += v
        else:
            for i, v in columns[col]:
                sums[i] -= v
        const = 1
        roots = []
        for i, s in enumerate(sums):
            if gray >> i & 1:
                roots.append(s)
            elif s:
                const *= s
            else:
                break
        else:
            # const * prod (x - root), leading coefficient first
            prod = [const]
            for root in roots:
                prod.append(0)
                for k in range(len(prod) - 1, 0, -1):
                    prod[k] -= root * prod[k - 1]
            top = len(roots)
            for k, c in enumerate(prod):
                total[top - k] += c
    return total


def adjugate_rows(matrix: Matrix, charpoly: list[int],
                  wanted: dict[int, Iterable[int]]) -> dict[tuple[int, int], list[int]]:
    """Entries (t, j) of adj(x*I - M), for each row t of `wanted` and each
    column j in wanted[t], as n coefficients, constant term first.

    adj(x*I - M)[t][j] is the cofactor of entry (j, t) of x*I - M. With
    c_0..c_n the coefficients of det(x*I - M) (charpoly_berkowitz), the
    Cayley-Hamilton identity (x*I - M) * adj(x*I - M) = det(x*I - M) * I
    gives

        adj(x*I - M) = sum_k x^k sum_{p=0}^{n-1-k} c_{k+1+p} * M^p,

    so row t needs only the row powers e_t^T M^p, p < n, built by sparse
    vector-matrix products and read at the wanted columns. Row t then
    costs O(n * (z + c*n)) for z nonzeros and c wanted columns.
    """
    n = order_of(matrix)
    if len(charpoly) != n + 1:
        raise ValueError(f"charpoly of an order-{n} matrix has {n + 1} coefficients, "
                         f"got {len(charpoly)}")
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in matrix]
    out = {}
    for t, cols in wanted.items():
        cols = sorted(set(cols))
        vec = [0] * n
        vec[t] = 1
        powers = [[vec[j] for j in cols]]  # powers[p][c] = M^p[t][cols[c]]
        for _ in range(n - 1):
            nxt = [0] * n
            for i, x in enumerate(vec):
                if x:
                    for j, v in nonzero[i]:
                        nxt[j] += x * v
            if not any(nxt):
                break
            vec = nxt
            powers.append([vec[j] for j in cols])
        for c, j in enumerate(cols):
            entry = [0] * n
            for p, row in enumerate(powers):
                x = row[c]
                if x:
                    for k in range(n - p):
                        entry[k] += charpoly[k + 1 + p] * x
            out[t, j] = entry
    return out


def per_adjugate_rows(matrix: Matrix,
                      wanted: dict[int, Iterable[int]]) -> dict[tuple[int, int], list[int]]:
    """Entries (t, j) of the permanental adjugate of x*I - M, for each row
    t of `wanted` and each column j in wanted[t]: the permanent of x*I - M
    without row j and column t, as n coefficients, constant term first.

    One Gray-code Ryser pass per row t, over the n-1 columns other than t.
    Over a column subset S, row r of x*I - M sums to x*[r in S] - u_r with
    u_r = sum_{c in S} M[r][c], and the minor without row j is

        (-1)^(n-1) * sum_S (-1)^|S| * prod_{r != j} (x*[r in S] - u_r).

    The product over all n rows is formed once per subset, and row j's
    factor is divided out: by synthetic division by (x - u_j) when j is in
    S, by exact division by -u_j otherwise. When exactly one constant
    factor is zero the subset adds only to that row's minor; with two or
    more it adds nothing and is skipped.
    """
    n = order_of(matrix)
    if n > RYSER_MAX_ORDER:
        raise ValueError(f"per_adjugate_rows is capped at order {RYSER_MAX_ORDER}, got {n}")
    out = {}
    for t, rows in wanted.items():
        rows = sorted(set(rows))
        cols = [c for c in range(n) if c != t]
        columns = [[(i, matrix[i][c]) for i in range(n) if matrix[i][c]] for c in cols]
        acc = {j: [0] * n for j in rows}
        sums = [0] * n
        in_s = [False] * n
        size = 0
        for g in range(1 << (n - 1)):
            if g:
                bit = (g & -g).bit_length() - 1
                col = cols[bit]
                if (g ^ (g >> 1)) >> bit & 1:
                    size += 1
                    in_s[col] = True
                    for i, v in columns[bit]:
                        sums[i] += v
                else:
                    size -= 1
                    in_s[col] = False
                    for i, v in columns[bit]:
                        sums[i] -= v
            const = -1 if (n - 1 + size) & 1 else 1
            roots = []
            zero = None
            for r, s in enumerate(sums):
                if in_s[r]:
                    roots.append(s)
                elif s:
                    const *= -s
                elif zero is None:
                    zero = r
                else:
                    break
            else:
                if zero is not None and zero not in acc:
                    continue
                # prod (x - root), leading coefficient first
                prod = [1]
                for root in roots:
                    prod.append(0)
                    for k in range(len(prod) - 1, 0, -1):
                        prod[k] -= root * prod[k - 1]
                if zero is not None:
                    poly = acc[zero]
                    for k, c in enumerate(prod):
                        poly[size - k] += const * c
                    continue
                for j, poly in acc.items():
                    if in_s[j]:
                        # prod / (x - u_j), exact; degree size - 1
                        u, q = sums[j], 1
                        poly[size - 1] += const
                        for k in range(1, size):
                            q = prod[k] + u * q
                            poly[size - 1 - k] += const * q
                    else:
                        scale = const // -sums[j]
                        for k, c in enumerate(prod):
                            poly[size - k] += scale * c
        for j, poly in acc.items():
            out[t, j] = poly
    return out
