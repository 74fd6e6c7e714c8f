"""References the tests compare the package against, and the small helpers
the test files share. Nothing under src/ uses any of it.

Each reference takes the slow road by definition: the n!-term permutation
sum, the deck as poly_of of every single-arc deletion, the deck sum as
Fraction column sums of the deck's polynomials.
"""

from fractions import Fraction
from itertools import permutations

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


def deletion_deck(g, kind):
    """The deck by definition: poly_of of every single-arc deletion, sorted."""
    return tuple(sorted(poly_of(delete_arc(g, e), kind) for e in range(g.m)))


def deck_sum(d):
    """The sum of the deck's polynomials, as Fraction column sums."""
    return P(*(sum(column, Fraction(0)) for column in zip(*d.polys)))
