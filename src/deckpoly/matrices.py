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
fraction-free Gauss-Jordan elimination of X's other rows, as the null
vector of the rows it leaves, from one trunk over X's rows in order that
row i's elimination leaves just before the trunk pivots on row i, about
n^4 / 6 multiplication pairs for all n rows. One step function (_step),
which updates the rows in place, serves the trunk and every finish.
The per sweep pairs the subset states of X's rows above row i with those
of the rows below it. No copy reads det X or per X or is a row total less
a cofactor term, neither sweep forms det X or per X, and every value
either sweep shares with X is a value of the copy too. Both skip input
checks: the caller has validated X with the scalar kernel.

Every permanent here is one algorithm: expansion along the rows over
column subsets (_sweep), forward from the top row and backward from the
bottom one, for per_ryser, zeroed_pers and per_cards alike. So _sweep
states their one cap: a sweep over more than RYSER_MAX_ORDER rows raises
ValueError before its first layer.

charpoly_berkowitz gives every coefficient of det(x*I - M) at once.
det_cards and per_cards share one card contract: (M, updates) gives every
coefficient of det(x*I - M), or of per(x*I - M), and one card per update
(s, t, a, d), the det or per of x*I - M with a added at (s, t) and d at
(t, t). An update changes one column, so its card is the pencil's value
plus a and d times two entries of the matching adjugate, down column t
(column linearity); an edge deck's cards are its members. det_cards runs
the Faddeev-LeVerrier recurrence on the rows of the adjugate at M's
nonzero columns and the update heads, whose traces give the coefficients,
and writes each card coefficient as the pass reaches it (with no updates
it returns Berkowitz's coefficients); per_cards expands per(x*I - M) along
its rows in two sweeps over column subsets, one from the top row down and
one from the bottom row up, reads each minor a card needs off pairs of
their states, on polynomials packed into ints at x = 2^B (Kronecker
substitution), and forms each card as one packed int, decoded once, with
B bounding every card. Everything is in Python ints.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain
from math import prod

Matrix = list[list[int]]
# (s, t, a, d): add a at (s, t) and d at (t, t) of x*I - M.
Update = tuple[int, int, int, int]

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
    pivot row keeps its entries. The step (_step) writes these in place,
    row by row, over the columns still free, as det_bareiss does; an entry
    in a pivot column is not read once its column is pivoted, so it is
    left as it was.

    After k steps, on pivot columns p_1..p_k, an entry in column c of a
    row not yet pivoted is the minor of order k + 1 on the k pivot rows and
    its own row, and on columns p_1..p_k and c; an entry of a pivot row is
    the minor of order k on the pivot rows and columns, with c in place of
    the row's own pivot column (Cramer's rule), and the last pivot D, the
    minor on the pivot columns, in its own. So each division is exact and
    no pivot is 0. If a pivot row has no nonzero left, it is a combination
    of the rows pivoted before it: the other rows are dependent, and every
    C_ic and every copy of row i is 0. Otherwise the n - 1 steps leave one
    free column q, and pivot row r stands for D on its pivot column p_r, 0
    on the other pivot columns (a minor with a repeated column) and one
    entry v_r on column q. Then row i's cofactors are the null vector u of
    the finished rows with u_q = e * D and u_{p_r} = -e * v_r, where

        e = (-1)^(i+n-1) * permutation_sign((p_1, ..., p_{n-1}, q)).

    Proof: X with its row i replaced by another of its rows r has two equal
    rows, and its det, expanded along row i, is the sum over c of
    x_rc * C_ic, so the vector of the C_ic is a null vector of X's other
    rows. A step replaces rows by combinations of rows with nonzero
    factors, which it can undo, so the finished rows have the same null
    vectors; of rank n - 1, as each holds D != 0 on its own pivot column,
    they have one up to scale, and finished row r reads
    D * u_{p_r} + v_r * u_q = 0. So the C_ic are the multiple of
    (u_q = D, u_{p_r} = -v_r) that C_iq fixes. C_iq is (-1)^(i+q) times the
    minor of X without row i and column q, with its columns in ascending
    order; in the order p_1, ..., p_{n-1} that minor is D, so it is
    permutation_sign((p_1, ..., p_{n-1})) * D. Moving q last from its place
    in ascending order passes the n - 1 - q larger columns, so
    permutation_sign((p_1, ..., p_{n-1}, q)) is (-1)^(n-1-q) times that
    sign, and C_iq = e * D.

    Row i's elimination pivots on rows 0..i-1 in the same order as that of
    every later row, so those steps are shared: one trunk eliminates X's
    rows in order, and just before it pivots on row i, row i's elimination
    branches off, with a copy of the trunk's rows but row i, and finishes
    on rows i+1..n-1. Every row of X gets its finish, whichever rows the
    positions name. The trunk stops at row n - 1 without pivoting on it,
    and leaves row n - 1 out of its step on row n - 2, so that its rows
    0..n-2 are then row n - 1's elimination: no step reads all of X's rows,
    and det X is never formed. The trunk costs about n^3 / 2 multiplication
    pairs and row i's finish about n * (n - i)^2 / 2, so all n rows cost
    about n^4 / 6, and the copies' sums n^3.

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
    # cols holds the pivot columns in step order, then the free columns.
    trunk, cols, prev = [list(row) for row in rows], list(range(n)), 1
    for k in range(n):
        # Row k's elimination is the trunk without row k.
        done, fcols, fprev = [row[:] for row in trunk[:k] + trunk[k + 1:]], cols[:], prev
        for r in range(k, n - 1):
            if not (fprev := _step(done, r, fcols, fprev)):
                break
        else:
            # u_q = e * D at the free column q, u_p = -e * v at the pivot
            # column p of each finished row.
            q, e = fcols[-1], permutation_sign(fcols) * (-1) ** (n - 1 - k)
            u = [e * fprev] * n  # every column but q is a pivot column
            for row, p in zip(done, fcols):
                u[p] = -e * row[q]
            yield k, [x * c for x, c in zip(rows[k], u)]
        # The trunk's step on row n - 2 leaves row n - 1 out, so that rows
        # 0..n-2 are then row n - 1's elimination.
        if k == n - 1 or not (prev := _step(trunk[:n - 1] if k == n - 2 else trunk, k, cols, prev)):
            return  # done, or rows 0..k are dependent: so are every later row's other rows


def _step(rows: Matrix, r: int, cols: list[int], prev: int) -> int:
    """One step of the elimination that zeroed_dets describes, in place, on
    rows[r], with previous pivot `prev`; cols holds the pivot columns of
    rows 0..r-1 in order, then the free columns. The pivot p is rows[r]'s
    first nonzero in a free column q, which moves to cols[r]; each other
    row's entry v in a column still free becomes (v * p - a * w) // prev,
    a its entry in column q and w rows[r]'s in the same column. Returns p,
    or 0 when rows[r] has no nonzero in a free column."""
    pivot_row = rows[r]
    for s in range(r, len(cols)):
        if pivot_row[cols[s]]:
            break
    else:
        return 0
    cols.insert(r, q := cols.pop(s))
    p, free = pivot_row[q], cols[r + 1:]
    for row in rows[:r] + rows[r + 1:]:
        a = row[q]
        for c in free:
            row[c] = (row[c] * p - a * pivot_row[c]) // prev
    return p


def per_ryser(matrix: Matrix) -> int:
    """Exact permanent by expansion along the rows over column subsets: the
    forward sweep that per_cards runs on x*I - M, here on M, whose
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


def det_cards(matrix: Matrix, updates: Sequence[Update]) -> tuple[list[int], list[list[int]]]:
    """(coefficients of det(x*I - M), cards), constant term first: card u,
    for update u = (s, t, a, d), holds the n + 1 coefficients of det of
    x*I - M with a added at (s, t) and d at (t, t), in update order. With
    no updates the coefficients come from charpoly_berkowitz.

    An update changes only column t, and det is linear in one column, so
    card u is det(x*I - M) + a * adj[t][s] + d * adj[t][t], adj the
    adjugate of x*I - M, whose entry (t, j) is the cofactor of entry (j, t).
    With c_0..c_n the coefficients of det(x*I - M), adj = sum_k x^k B_k,
    and the Faddeev-LeVerrier recurrence gives, for k = n-1, ..., 0,

        B_{n-1} = I,  c_k = -tr(B_k * M) / (n - k),  B_{k-1} = c_k * I + B_k * M,

    so card coefficient k is c_k + a * B_k[t][s] + d * B_k[t][t], written
    as the pass reaches k, and coefficient n is 1.

    Row t of B_{k-1} follows from row t of B_k alone, and tr(B_k * M) sums
    B_k[j][i] * M[i][j] over the nonzero entries (i, j) of M, which reads
    row j of B_k only where column j of M is not zero. So the kernel keeps
    only the rows of B_k at M's nonzero columns and at the update heads,
    which for a deck pencil are the same rows, the arc heads; one pass
    gives every coefficient and every card. Row t of B_k is zero outside
    M's nonzero columns and t, so its product with M reads only M's rows at
    kept indices: a kept row costs O(n * (n + z)) over all k, for z
    nonzeros in those rows. Once every kept row is zero,
    every later c_k and row is zero too, and so is every card coefficient
    below.

    Each c_k is an int, so each trace divides exactly; a remainder is a
    kernel bug, raised even under -O. A coefficient-only call would keep
    every row at M's nonzero columns, which costs more than Berkowitz.
    """
    if not updates:
        return charpoly_berkowitz(matrix), []
    n = order_of(matrix)
    entries = [[(j, v) for j, v in enumerate(row) if v] for row in matrix]
    traced = [(i, j, v) for i, nz in enumerate(entries) for j, v in nz]
    kept = {j for _, j, _ in traced} | {t for _, t, _, _ in updates}  # M's nonzero columns, update heads
    rows = {t: [0] * t + [1] + [0] * (n - 1 - t) for t in kept}
    nonzero = [(i, entries[i]) for i in rows if entries[i]]
    cards = [[0] * n + [1] for _ in updates]
    coeffs = [0] * n + [1]
    for k in range(n - 1, -1, -1):
        c, rest = divmod(-sum([rows[j][i] * v for i, j, v in traced]), n - k)
        if rest:
            raise AssertionError(f"tr(B_{k} * M) is not divisible by {n - k}")
        coeffs[k] = c
        for card, (s, t, a, d) in zip(cards, updates):
            row = rows[t]
            card[k] = c + a * row[s] + d * row[t]
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
    return coeffs, cards


def per_cards(matrix: Matrix, updates: Sequence[Update]) -> tuple[list[int], list[list[int]]]:
    """(coefficients of per(x*I - M), cards), constant term first: card u,
    for update u = (s, t, a, d), holds the n + 1 coefficients of per of
    x*I - M with a added at (s, t) and d at (t, t), in update order.

    An update changes only column t, and per is linear in one column, so
    card u is per(P) + a * P_ts + d * P_tt, P = x*I - M and P_tj the
    permanent of P without row j and column t. Two sweeps over column
    subsets of P give them all. The forward sweep's layer k holds F[S],
    for each k-subset S of the columns, the permanent of rows 0..k-1 of P
    on the columns S; the backward sweep's layer k holds G[T], the
    permanent of the last k rows on the columns T. Both start from the
    empty set with value 1, and a layer gives the next by expanding along
    the next row (row k forward, row n-1-k backward): each state S is
    extended by each nonzero entry of that row in a column c outside S,
    adding its value times the entry to state S + {c}. Then per(P) is
    F[all columns], and expanding the minor at the rows above j,

        P_tj = sum over the j-subsets S without t of F[S] * G[all - S - {t}].

    Each card reads P_ts, and P_tt when d is not 0. A call with no updates
    runs the forward sweep alone. Otherwise the backward sweep runs first,
    up to layer n-1-j for the least row j read, keeping the layers the rows
    read, and the forward sweep pairs each layer j read with backward layer
    n-1-j as it passes. Layer k holds at most comb(n, k) states, so a sweep
    makes at most 2^n times d extensions, d the most nonzeros in a row of P.

    Each polynomial is one int, its value at x = X = 2^B (Kronecker
    substitution): evaluation at X commutes with sums and products, so each
    state is the value at X of its permanent, an extension is one int
    multiply-add, and per(P), each minor and each card, one int
    multiply-add of those, are values at X. A state is an exact int that
    is never decoded, so one of value 0 would add 0 to every state and
    card it reaches: it is dropped, not extended. Only per(P) and the cards
    are decoded, once each, as balanced base-X digits, which are their
    coefficients if all are below 2^(B-1) in absolute value. They are for
    B = bit_length(Q) + 1, Q = prod_r (1 + rho_r) * max_u (1 + |a|)(1 + |d|),
    with rho_r the sum of |M[r][c]| and the max over the updates (1 with
    none). Card u is per(x*I - M_u) for the M_u that takes a off M at
    (s, t) and d at (t, t), so row r of M_u sums to at most
    rho_r + [r = s]|a| + [r = t]|d| in absolute value. Entry (r, c) of
    x*I - M_u has absolute coefficients summing to [r = c] + |M_u[r][c]|,
    so those of its permanent sum to at most per(I + |M_u|); a nonnegative
    matrix's permanent is at most the product of its row sums, and as
    1 + rho + e <= (1 + rho)(1 + e), that product is at most Q. A bound on
    M alone would not do: a card's diagonal entry can exceed M's, where
    arcs of opposite weights into one head cancel.
    """
    n = order_of(matrix)
    keys: dict[tuple[int, int], int] = {}  # minor (t, j) -> its index in acc
    for s, t, _, d in updates:
        keys.setdefault((t, s), len(keys))
        if d:
            keys.setdefault((t, t), len(keys))
    heads: dict[int, list] = {}  # row j -> (bit of t, index of minor (t, j)) per minor read
    for (t, j), i in keys.items():
        heads.setdefault(j, []).append((1 << t, i))
    bits = (prod(1 + sum(map(abs, row)) for row in matrix)
            * max(((1 + abs(a)) * (1 + abs(d)) for _, _, a, d in updates), default=1)).bit_length() + 1
    x = 1 << bits
    rows = [[(1 << c, x - v if c == r else -v) for c, v in enumerate(row) if v or c == r]
            for r, row in enumerate(matrix)]
    # Backward layer n-1-j, keyed by the row j that reads it.
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
    packed = layer.get(full, 0)
    coeffs, *cards = _unpacked([packed] + [packed + a * acc[keys[t, s]] + (d * acc[keys[t, t]] if d else 0)
                                           for s, t, a, d in updates], n + 1, bits)
    return coeffs, cards


def _sweep(rows: list[list[tuple[int, int]]], depth: int):
    """Yield (k, layer k) for k = 0..depth: layer 0 is {0: 1}, and layer
    k + 1 extends each state S of layer k by each (bit c, value) of rows[k]
    with c outside S, as per_cards describes; a state of value 0 is
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


def _unpacked(values: list[int], count: int, bits: int) -> list[list[int]]:
    """The `count` coefficients, constant term first, packed in each value at
    x = 2^bits: balanced digits in [-2^(bits-1), 2^(bits-1)), the last taking
    what is left."""
    half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
    for value in values:
        digits = []
        for _ in range(count - 1):
            digits.append(((value + half) & mask) - half)
            value = (value - digits[-1]) >> bits
        out.append(digits + [value])
    return out
