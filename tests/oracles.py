"""References the tests compare the package against, and the small helpers
the test files share. Nothing under src/ uses any of it.

Each reference takes the slow road by definition, or a route that shares
no code with the package's: the n!-term permutation sum, Glynn's
sign-vector formula for the permanent, the deck as poly_of of every
single-arc deletion, the deck sum as Fraction column sums of the deck's
polynomials, a random matrix drawn by rng.choice, the adjugate rows by
Horner's rule from Berkowitz's coefficients. The number of digraphs up to
relabelling comes from Burnside's lemma, which never lists one.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, gcd, lcm, prod

from deckpoly import polynomials as poly
from deckpoly.digraphs import delete_arc
from deckpoly.graph_polys import PolyKind, poly_of
from deckpoly.identities import random_nonzero_rational, random_rational
from deckpoly.matrices import charpoly_berkowitz, order_of, permutation_sign

# The expansion costs n! terms.
EXPANSION_MAX_ORDER = 8


def P(*coeffs):
    """The polynomial with these coefficients, constant term first."""
    return poly.normalize(coeffs)


def xpow(n):
    return P(*([0] * n + [1]))


def random_kind(rng, mode):
    return PolyKind(random_rational(rng), random_nonzero_rational(rng), mode)


def permutation_expansion(matrix, signed):
    """Permutation-sum determinant (signed) or permanent (unsigned); the
    n!-term oracle for det_bareiss, per_ryser and glynn_permanent."""
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


def glynn_permanent(matrix):
    """Exact permanent by Glynn's formula (Glynn 2010, European J. Combin. 31):

        per(M) = 2^-(n-1) * sum_d (prod_i d_i) * prod_j sum_i d_i * M[i][j]

    over d in {+1, -1}^n with d_0 = +1, in Gray-code order: step g flips one
    d_i, so prod_i d_i = (-1)^g, and moves the column sums by twice one row.
    The scalar oracle for the permanent kernels, which all run on
    matrices._sweep's subset states: it shares no code with them."""
    n = order_of(matrix)
    doubled = [[(j, 2 * v) for j, v in enumerate(row) if v] for row in matrix[1:]]
    sums = [sum(col) for col in zip(*matrix)]
    total = prod(sums)
    for g in range(1, 1 << (n - 1)):
        bit = (g & -g).bit_length() - 1
        if (g ^ (g >> 1)) >> bit & 1:  # d_(bit+1) turns to -1
            for j, v in doubled[bit]:
                sums[j] -= v
        else:
            for j, v in doubled[bit]:
                sums[j] += v
        total += -prod(sums) if g & 1 else prod(sums)
    per, rest = divmod(total, 1 << (n - 1))
    if rest:
        raise AssertionError(f"Glynn sum {total} is not divisible by 2^{n - 1}")
    return per


def horner_adjugate_rows(matrix, wanted):
    """matrices.adjugate_rows by another route: the coefficients c_0..c_n
    from charpoly_berkowitz, then each wanted row t of B_k, where
    adj(x*I - M) = sum_k x^k B_k, by Horner's rule B_{k-1} = c_k * I + B_k * M
    from B_{n-1} = I, read at the wanted columns. No trace is taken."""
    charpoly = charpoly_berkowitz(matrix)
    n = len(charpoly) - 1
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in matrix]
    out = {}
    for t, cols in wanted.items():
        entries = {(t, j): [0] * n for j in cols}
        row = [int(j == t) for j in range(n)]
        for k in range(n - 1, -1, -1):
            for (_, j), entry in entries.items():
                entry[k] = row[j]
            nxt = [0] * n
            nxt[t] = charpoly[k]
            for i, x in enumerate(row):
                for j, v in nonzero[i]:
                    nxt[j] += x * v
            row = nxt
        out.update(entries)
    return charpoly, out


# poly_of keeps no results; the exhaustive deck tests meet the same card
# many times over, so the oracle memoizes its own.
_card = cache(poly_of)


def deletion_deck(g, kind):
    """The deck by definition: poly_of of every single-arc deletion, sorted."""
    return tuple(sorted(_card(delete_arc(g, e), kind) for e in range(g.m)))


def choice_matrix(rng, order, zero_density=0.3, magnitude=9):
    """identities.random_matrix as rng.choice draws it: the reference for
    the stream that random_matrix must read."""
    values = tuple(k for k in range(-magnitude, magnitude + 1) if k != 0)
    return [[0 if rng.random() < zero_density else rng.choice(values) for _ in range(order)]
            for _ in range(order)]


def deck_sum(d):
    """The sum of the deck's polynomials, as Fraction column sums."""
    return P(*(sum(column, Fraction(0)) for column in zip(*d.polys)))


def l_scaled_matrix(rng, n, density, sign):
    """L*B for a random B of rationals p/q, |p| <= 10^6 and q <= 30, with L
    the lcm of the q: entries of up to about 60 bits, as a pencil of
    rational weights has. sign > 0 or < 0 makes every entry of that sign
    or zero; sign = 0 mixes them."""
    rows = [[Fraction(rng.randint(1, 10**6) * (sign or rng.choice((1, -1))), rng.randint(1, 30))
             if rng.random() < density else Fraction(0) for _ in range(n)] for _ in range(n)]
    scale = lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * scale) for v in row] for row in rows]


def partitions(n, largest=None):
    """The partitions of n, as non-increasing tuples of positive parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def digraph_classes(n, m):
    """The number of (n, m)-digraphs up to relabelling (OEIS A052283), by
    Burnside's lemma: the mean over the permutations s of range(n) of the
    m-arc sets that s fixes (Harary & Palmer 1973, Graphical Enumeration).

    An arc set is fixed when it is a union of cycles of s acting on the
    ordered pairs, so it depends only on the cycle type of s. Within one
    vertex cycle of length a the a(a - 1) pairs form a - 1 cycles of
    length a; between two vertex cycles of lengths a and b, both directions
    together form 2 gcd(a, b) cycles of length lcm(a, b). The fixed m-arc
    sets are the coefficient of x^m in the product of 1 + x^length."""
    total = 0
    for parts in partitions(n):
        permutations_of_type = factorial(n)
        for a, k in Counter(parts).items():
            permutations_of_type //= a ** k * factorial(k)
        lengths = [a for a in parts for _ in range(a - 1)]
        lengths += [lcm(a, b) for i, a in enumerate(parts) for b in parts[i + 1:]
                    for _ in range(2 * gcd(a, b))]
        fixed = [1] + [0] * m
        for length in lengths:
            for d in range(m, length - 1, -1):
                fixed[d] += fixed[d - length]
        total += permutations_of_type * fixed[m]
    return total // factorial(n)
