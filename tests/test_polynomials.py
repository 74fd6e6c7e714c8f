"""Polynomial arithmetic and exact interpolation, and the tests' Horner
evaluation (oracles.evaluate)."""

import random
from fractions import Fraction

import pytest

from deckpoly import polynomials as poly
from oracles import P, evaluate


def random_poly(rng, max_degree=6):
    return P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, max_degree + 1))])


def test_normalize_strips_trailing_zeros():
    assert P(1, 2, 0, 0) == (1, 2)
    assert P(0, 0, 0) == poly.ZERO
    assert P(0) == poly.ZERO


def test_sub_cancellation_is_canonical():
    assert poly.sub(P(1, 1), P(1, 1)) == poly.ZERO


def test_sub_scale_mul():
    assert poly.sub(P(0, 0, 1), P(1)) == P(-1, 0, 1)
    assert poly.sub(P(1), P(0, 0, 1)) == P(1, 0, -1)


def test_evaluate():
    assert evaluate(P(0, -1, 1), 0) == 0
    assert evaluate(P(-1, 0, 0, 1), 1) == 0
    assert evaluate(P(-1, 0, 0, 1), 2) == 7
    assert evaluate(P(1, 2, 3), Fraction(1, 2)) == Fraction(11, 4)


def test_evaluate_at_zero_is_constant_term():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng)
        assert evaluate(p, 0) == p[0]


def test_interpolate_constant():
    assert poly.interpolate([(0, 1), (1, 1)]) == P(1)
    assert poly.interpolate([(5, 3)]) == P(3)


def test_interpolate_cubic():
    # The four values come from evaluating x^3 - 1 at those abscissae.
    assert poly.interpolate([(0, -1), (1, 0), (2, 7), (-1, -2)]) == P(-1, 0, 0, 1)


def test_interpolate_roundtrip_random():
    rng = random.Random(17)
    for _ in range(50):
        p = random_poly(rng)
        n = len(p) - 1
        points = [(t, evaluate(p, t)) for t in range(n + 1)]
        assert poly.interpolate(points) == p


def test_interpolate_rational_points():
    p = P(Fraction(1, 3), Fraction(-2, 7), 1)
    xs = [Fraction(k, 2) for k in range(3)]
    assert poly.interpolate([(x, evaluate(p, x)) for x in xs]) == p


def test_interpolate_errors():
    with pytest.raises(ValueError):
        poly.interpolate([])
    with pytest.raises(ValueError):
        poly.interpolate([(1, 2), (1, 3)])


def test_evaluate_is_linear():
    rng = random.Random(23)
    for _ in range(30):
        p = random_poly(rng)
        q = random_poly(rng)
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert evaluate(poly.sub(p, q), t) == evaluate(p, t) - evaluate(q, t)
