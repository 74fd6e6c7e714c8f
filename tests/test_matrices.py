"""Determinant and permanent kernels against hand values and the n!-term oracles."""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from deckpoly import matrices as mx
from deckpoly import polynomials as poly
from deckpoly.identities import random_matrix
from oracles import glynn_permanent, permutation_expansion


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_det_bareiss_2x2_hand_value():
    # 1*4 - 2*3 by cofactor expansion
    assert mx.det_bareiss([[1, 2], [3, 4]]) == -2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_det_bareiss_identity(n):
    assert mx.det_bareiss(identity_matrix(n)) == 1


def test_det_bareiss_zero_row():
    assert mx.det_bareiss([[1, 2, 3], [0, 0, 0], [7, 8, 9]]) == 0


def test_det_bareiss_needs_column_pivot():
    # Zero pivot with a usable row below forces a swap.
    assert mx.det_bareiss([[0, 1], [1, 0]]) == -1
    assert mx.det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def per_coefficients(matrix):
    return mx.per_adjugate_rows(matrix, {})[0]


@pytest.mark.parametrize("kernel", [
    mx.det_bareiss, mx.per_ryser, mx.charpoly_berkowitz,
    pytest.param(lambda m: mx.adjugate_rows(m, {}), id="adjugate_rows"),
    pytest.param(per_coefficients, id="per_adjugate_rows"),
])
def test_kernels_reject_fraction_entries(kernel):
    # Bareiss's // on Fractions would floor each quotient and return a
    # wrong value instead of failing, so the int contract is checked.
    halves = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    whole = [[Fraction(2), 0], [0, 3]]
    for m in (halves, whole):
        with pytest.raises(ValueError, match="int"):
            kernel(m)


def test_det_expansion_matches_hand_values():
    assert permutation_expansion([[1, 2], [3, 4]], True) == -2
    assert permutation_expansion([[2, 0, 0], [0, 3, 0], [0, 0, 5]], True) == 30


def test_per_ryser_hand_values():
    assert mx.per_ryser([[1] * 3 for _ in range(3)]) == 6
    assert mx.per_ryser([[1, 2], [3, 4]]) == 10
    for n in (1, 2, 4, 9):
        assert mx.per_ryser(identity_matrix(n)) == 1


def test_per_expansion_hand_values():
    assert permutation_expansion([[1, 2], [3, 4]], False) == 10
    assert permutation_expansion([[0, 0], [0, 0]], False) == 0


def test_det_alternates_per_is_symmetric_under_row_swap():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        m = random_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        swapped = [list(row) for row in m]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert mx.det_bareiss(swapped) == -mx.det_bareiss(m)
        assert mx.per_ryser(swapped) == mx.per_ryser(m)


def test_det_and_per_agree_on_diagonal_matrices():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 6)
        diag = [rng.randint(-9, 9) for _ in range(n)]
        m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        product = 1
        for d in diag:
            product *= d
        assert mx.det_bareiss(m) == product
        assert mx.per_ryser(m) == product


def interpolated(matrix, kernel):
    """Coefficients of kernel(x*I - M), constant first, from x = 0..n and
    interpolation: the route poly_of took before the coefficient kernels."""
    n = len(matrix)
    points = [(t, kernel([[int(i == j) * t - matrix[i][j] for j in range(n)]
                          for i in range(n)])) for t in range(n + 1)]
    return poly.interpolate(points)


def test_coefficient_kernels_hand_values():
    # det(xI - M) = x^2 - 5x - 2; per(xI - M) = (x-1)(x-4) + 6.
    assert mx.charpoly_berkowitz([[1, 2], [3, 4]]) == [-2, -5, 1]
    assert per_coefficients([[1, 2], [3, 4]]) == [10, -5, 1]
    assert mx.charpoly_berkowitz([[7]]) == per_coefficients([[7]]) == [-7, 1]
    # The directed 3-cycle: x^3 - 1 and x^3 - 1 (an odd cycle).
    c3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert mx.charpoly_berkowitz(c3) == per_coefficients(c3) == [-1, 0, 0, 1]
    zero = [[0] * 4] * 4
    assert mx.charpoly_berkowitz(zero) == per_coefficients(zero) == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("zero_density", [0.0, 0.3, 0.8])
def test_coefficient_kernels_match_interpolated_scalar_kernels(zero_density):
    rng = random.Random(1201)
    for _ in range(60):
        m = [[int(x) for x in row]
             for row in random_matrix(rng, rng.randint(1, 8), zero_density=zero_density)]
        assert poly.normalize(mx.charpoly_berkowitz(m)) == interpolated(m, mx.det_bareiss)
        assert poly.normalize(per_coefficients(m)) == interpolated(m, mx.per_ryser)


def test_charpoly_berkowitz_at_order_twenty_matches_interpolation():
    rng = random.Random(1203)
    m = [[int(x) for x in row] for row in random_matrix(rng, 20, zero_density=0.6)]
    assert poly.normalize(mx.charpoly_berkowitz(m)) == interpolated(m, mx.det_bareiss)


def test_coefficient_kernels_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(1207)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = [[int(v) for v in row] for row in random_matrix(rng, n)]
        sm = sympy.Matrix(m)
        want_det = [int(c) for c in reversed(sm.charpoly(x).all_coeffs())]
        want_per = [int(c) for c in
                    reversed(sympy.Poly((x * sympy.eye(n) - sm).per(), x).all_coeffs())]
        assert mx.charpoly_berkowitz(m) == want_det
        assert per_coefficients(m) == want_per


def test_det_matches_expansion_on_every_small_sign_matrix():
    # Among them every zero pivot that forces a row swap, and every pivot
    # of 1 or -1, which the next step divides by.
    for n in (1, 2, 3):
        for flat in product((-1, 0, 1), repeat=n * n):
            m = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            assert mx.det_bareiss(m) == permutation_expansion(m, True), m


@pytest.mark.parametrize("zero_density", [0.0, 0.3, 0.6])
def test_det_matches_expansion_on_random_matrices(zero_density):
    rng = random.Random(1309)
    orders, signs = set(), set()
    for _ in range(80):
        n = rng.randint(1, 8)
        m = random_matrix(rng, n, zero_density=zero_density)
        value = mx.det_bareiss(m)
        assert value == permutation_expansion(m, True), m
        orders.add(n)
        signs.add((value > 0) - (value < 0))
    assert orders == set(range(1, 9))
    assert {-1, 1} <= signs


def test_per_matches_expansion_on_every_small_sign_matrix():
    for n in (1, 2, 3):
        for flat in product((-1, 0, 1), repeat=n * n):
            m = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            assert mx.per_ryser(m) == permutation_expansion(m, False), m


@pytest.mark.parametrize("zero_density", [0.0, 0.3, 0.7, 0.9])
def test_per_matches_expansion_on_random_matrices(zero_density):
    rng = random.Random(1301)
    orders, signs = set(), set()
    for _ in range(150):
        n = rng.randint(1, 8)
        m = random_matrix(rng, n, zero_density=zero_density)
        value = mx.per_ryser(m)
        assert value == permutation_expansion(m, False) == glynn_permanent(m), m
        orders.add(n % 2)
        signs.add((value > 0) - (value < 0))
    assert orders == {0, 1}
    assert -1 in signs


def test_per_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1303)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), zero_density=rng.choice((0.0, 0.3, 0.7)))
        assert mx.per_ryser(m) == int(sympy.Matrix(m).per()), m


def test_per_at_the_order_cap():
    assert mx.per_ryser([[1] * 12 for _ in range(12)]) == factorial(12)
    # I plus the directed 16-cycle: the only permutations inside its
    # support are the identity and the cycle itself.
    m = identity_matrix(16)
    for i in range(16):
        m[i][(i + 1) % 16] = 1
    assert mx.per_ryser(m) == 2


def test_size_caps_are_hard_errors():
    big = identity_matrix(9)
    with pytest.raises(ValueError):
        permutation_expansion(big, True)
    with pytest.raises(ValueError):
        permutation_expansion(big, False)
    with pytest.raises(ValueError):
        mx.per_ryser(identity_matrix(17))
    with pytest.raises(ValueError):
        mx.per_adjugate_rows(identity_matrix(17), {})


def test_non_square_rejected():
    with pytest.raises(ValueError):
        mx.det_bareiss([[1, 2], [3]])
    with pytest.raises(ValueError):
        mx.order_of([])
