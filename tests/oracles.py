"""References the tests compare the package against, and the small helpers
the test files share. Nothing under src/ uses any of it.

Each reference takes the slow road by definition: the n!-term permutation
sum, the deck as poly_of of every single-arc deletion, the deck sum as
Fraction column sums of the deck's polynomials. The number of digraphs
up to relabelling comes from Burnside's lemma, which never lists one.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, gcd, lcm

from deckpoly import polynomials as poly
from deckpoly.digraphs import delete_arc
from deckpoly.graph_polys import PolyKind, poly_of
from deckpoly.identities import random_nonzero_rational, random_rational
from deckpoly.matrices import order_of, permutation_sign

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


# poly_of keeps no results; the exhaustive deck tests meet the same card
# many times over, so the oracle memoizes its own.
_card = cache(poly_of)


def deletion_deck(g, kind):
    """The deck by definition: poly_of of every single-arc deletion, sorted."""
    return tuple(sorted(_card(delete_arc(g, e), kind) for e in range(g.m)))


def deck_sum(d):
    """The sum of the deck's polynomials, as Fraction column sums."""
    return P(*(sum(column, Fraction(0)) for column in zip(*d.polys)))


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
