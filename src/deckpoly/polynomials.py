"""Univariate polynomials as tuples of Fractions, constant term first.

The canonical zero polynomial is the single coefficient (0,); every
operation returns a canonical tuple, so equality and sorting are plain
tuple comparison. That is what lets edge decks compare as multisets of
coefficient vectors.
"""

from __future__ import annotations

from fractions import Fraction

Polynomial = tuple[Fraction, ...]

ZERO: Polynomial = (Fraction(0),)
ONE: Polynomial = (Fraction(1),)


def normalize(coeffs) -> Polynomial:
    """Ascending coefficients to canonical form: trailing zeros stripped."""
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if not out:
        return ZERO
    return tuple(out)


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    n = max(len(p), len(q))
    return normalize(
        (p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)
    )


def sub(p: Polynomial, q: Polynomial) -> Polynomial:
    return add(p, scale(q, -1))


def scale(p: Polynomial, c) -> Polynomial:
    c = Fraction(c)
    return normalize(coeff * c for coeff in p)


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def evaluate(p: Polynomial, t) -> Fraction:
    """Exact Horner evaluation at t."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def _divide_out_root(master: list[Fraction], root: Fraction) -> list[Fraction]:
    # Synthetic division of the monic master polynomial by (x - root);
    # exact because root is a root of master.
    d = len(master) - 1
    q = [Fraction(0)] * d
    q[d - 1] = master[d]
    for k in range(d - 1, 0, -1):
        q[k - 1] = master[k] + root * q[k]
    return q


def interpolate(points) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs.

    Lagrange form: build the master product of (x - x_i) once, divide out
    each root to get the per-point numerator, and rescale by its value at
    the point. All arithmetic is exact.

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
    master = [Fraction(1)]
    for x in xs:
        master = [Fraction(0)] + master
        for k in range(len(master) - 1):
            master[k] -= x * master[k + 1]
    acc = [Fraction(0)] * len(pts)
    for x, y in pts:
        num = _divide_out_root(master, x)
        weight = y / evaluate(tuple(num), x)
        if weight == 0:
            continue
        for k, c in enumerate(num):
            acc[k] += weight * c
    return normalize(acc)
