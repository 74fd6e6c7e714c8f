"""Univariate polynomials as tuples of Fractions, constant term first.

The canonical zero polynomial is the single coefficient (0,); every
operation returns a canonical tuple, so equality and sorting are plain
tuple comparison. That is what lets edge decks compare as multisets of
coefficient vectors. Besides the canonical form there are differences
and exact interpolation through given points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

Polynomial = tuple[Fraction, ...]

ZERO: Polynomial = (Fraction(0),)


def normalize(coeffs) -> Polynomial:
    """Ascending coefficients to canonical form: trailing zeros stripped."""
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        return ZERO
    return tuple(out)


def sub(p: Polynomial, q: Polynomial) -> Polynomial:
    return normalize(a - b for a, b in zip_longest(p, q, fillvalue=0))


def interpolate(points) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs.

    Newton form: the divided differences c_k = y[x_0, ..., x_k], computed
    in place, give p = c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)), which
    nested multiplication expands innermost first. All arithmetic is exact.

    Test oracle path: fed with det_bareiss or per_ryser of
    graph_polys.pencil_at at t = 0..n, it recomputes poly_of by n+1 scalar
    evaluations, a route independent of poly_of's coefficient kernels.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if not pts:
        raise ValueError("interpolation needs at least one point")
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be pairwise distinct")
    diffs = [y for _, y in pts]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - k])
    acc = diffs[-1:]
    for c, x in zip(diffs[-2::-1], xs[-2::-1]):
        # acc * (x - x_k) + c_k, coefficient by coefficient.
        acc = [a - x * b for a, b in zip([c, *acc], [*acc, 0])]
    return normalize(acc)
