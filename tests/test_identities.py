"""Identity checks: frozen hand examples plus seeded random sweeps."""

import random
from fractions import Fraction

import pytest

from deckpoly import identities, matrices
from deckpoly import polynomials as poly
from deckpoly.digraphs import Digraph, delete_arc, directed_cycle
from deckpoly.graph_polys import SIX_KINDS, deck
from deckpoly.identities import (
    check_eq17,
    check_thm21,
    check_thm22,
    check_thm23,
    check_thm31,
    random_digraph,
    random_matrix,
    random_nonzero_rational,
    random_rational,
)
from oracles import P, choice_matrix, deck_sum

STAR_OF_DIGONS = Digraph(3, ((0, 1), (1, 0), (0, 2), (2, 0)))


def test_thm21_two_by_two_hand_example():
    # Four 2x2 determinants: -6 + 4 + 4 - 6 = -4 = 2 * det.
    report = check_thm21([[1, 2], [3, 4]])
    assert report.holds
    assert report.lhs == -4
    assert report.rhs == -4
    assert report.verdict == "holds"


def test_thm21_zero_matrix():
    report = check_thm21([[0, 0], [0, 0]])
    assert report.holds and report.lhs == 0 and report.rhs == 0


def test_thm22_sparse_hand_example():
    # Three nonzero entries: 0 + 4 + 0 = 4 = (3 - 2) * det.
    report = check_thm22([[1, 2], [0, 4]])
    assert report.holds
    assert report.lhs == 4
    assert report.rhs == 4


def test_thm22_reduces_to_thm21_on_dense_matrices():
    m = [[1, 2], [3, 4]]
    assert check_thm21(m).holds
    assert check_thm22(m).holds
    assert check_thm22(m).rhs == check_thm21(m).rhs


def test_thm22_diagonal_matrix_both_sides_vanish():
    report = check_thm22([[3, 0], [0, 7]])
    assert report.holds and report.lhs == 0 and report.rhs == 0


def test_thm23_two_by_two_hand_example():
    # Four 2x2 permanents: 6 + 4 + 4 + 6 = 20 = (4 - 2) * per.
    report = check_thm23([[1, 2], [3, 4]])
    assert report.holds
    assert report.lhs == 20
    assert report.rhs == 20


def test_thm23_diagonal_matrix():
    report = check_thm23([[3, 0], [0, 7]])
    assert report.holds and report.lhs == 0


def test_matrix_identities_random_sweep():
    rng = random.Random(2024)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 6))
        r21 = check_thm21(m)
        r22 = check_thm22(m)
        r23 = check_thm23(m)
        assert r21.holds and r22.holds and r23.holds
        # The dense and support-restricted forms are equivalent.
        assert r21.holds == r22.holds


def test_zeroing_checks_validate_once_and_leave_the_input_alone(monkeypatch):
    # Zeroed copies share X's order and int entries, so only X is checked.
    calls = []
    order_of = matrices.order_of
    monkeypatch.setattr(matrices, "order_of", lambda m: calls.append(m) or order_of(m))
    m = [[1, 2, 0], [3, 0, 5], [6, 7, 8]]
    for check in (check_thm21, check_thm22, check_thm23):
        calls.clear()
        assert check(m).holds
        assert calls == [m]
    assert m == [[1, 2, 0], [3, 0, 5], [6, 7, 8]]
    for bad in ([[1, 2], [3]], [[Fraction(1, 2)]], []):
        for check in (check_thm21, check_thm22, check_thm23):
            with pytest.raises(ValueError):
                check(bad)


def test_thm31_star_of_digons_hand_example():
    report = check_thm31(STAR_OF_DIGONS, 0, 1, "det")
    assert report.holds
    assert report.lhs == P(0, -4, 0, 4)
    assert report.rhs == P(0, -4, 0, 4)


def test_thm31_cycle_both_sides_are_n_x_n():
    for n in range(3, 6):
        report = check_thm31(directed_cycle(n), 0, 1, "det")
        assert report.holds
        assert report.lhs == P(*([0] * n + [n]))


def test_thm31_arcless_digraph_both_sides_vanish():
    report = check_thm31(Digraph(4), 1, -1, "per")
    assert report.holds
    assert report.lhs == poly.ZERO and report.rhs == poly.ZERO


def test_thm31_random_sweep_weighted_and_unweighted():
    rng = random.Random(314)
    for trial in range(40):
        g = random_digraph(rng, 6, weighted=bool(trial % 2))
        beta = random_rational(rng)
        gamma = random_nonzero_rational(rng)
        mode = rng.choice(("det", "per"))
        report = check_thm31(g, beta, gamma, mode)
        assert report.holds, report.instance


@pytest.mark.parametrize("g, beta, gamma, mode", [
    (directed_cycle(4), 0, 1, "det"),
    (STAR_OF_DIGONS, Fraction(1, 2), Fraction(-2, 3), "per"),
    (Digraph(4, ((0, 1), (2, 3)), (Fraction(3), Fraction(-1, 2))), 1, 1, "det"),
])
def test_thm31_reports_a_perturbed_card_as_violated(monkeypatch, g, beta, gamma, mode):
    # The right side sums the cards column by column, so a shift of one
    # card's coefficient k must show at every k, the annihilated n - m and
    # the leading n included, and nowhere else.
    holding = check_thm31(g, beta, gamma, mode)
    assert holding.holds
    real_poly_of = identities.poly_of
    card = delete_arc(g, 0)
    for k in range(g.n + 1):
        def perturbed(h, kind):
            p = real_poly_of(h, kind)
            return poly.sub(p, P(*([0] * k + [-1]))) if h == card else p

        monkeypatch.setattr(identities, "poly_of", perturbed)
        report = check_thm31(g, beta, gamma, mode)
        assert report.verdict == "violated", k
        assert report.lhs == holding.lhs
        assert report.rhs == poly.sub(holding.rhs, P(*([0] * k + [-1])))


def test_eq17_all_six_kinds_on_c4():
    for kind in SIX_KINDS:
        assert check_eq17(directed_cycle(4), kind).holds


def test_eq17_empty_digraph_all_kinds():
    for kind in SIX_KINDS:
        report = check_eq17(Digraph(3), kind)
        assert report.holds and report.lhs == poly.ZERO


def test_eq17_random_sweep():
    rng = random.Random(2718)
    for _ in range(40):
        g = random_digraph(rng, 6)
        for kind in SIX_KINDS:
            assert check_eq17(g, kind).holds


def test_deck_sum_annihilated_coefficient_vanishes():
    # With m < n the equation for coefficient n-m reads 0 = s_{n-m}.
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 6)
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        m = rng.randint(1, n - 1)
        g = Digraph(n, tuple(sorted(rng.sample(slots, m))))
        for kind in SIX_KINDS:
            s = deck_sum(deck(g, kind))
            s = list(s) + [Fraction(0)] * (n + 1 - len(s))
            assert s[n - m] == 0


def test_report_instance_is_replayable():
    report = check_thm31(STAR_OF_DIGONS, Fraction(1, 2), Fraction(-2, 3), "per")
    assert report.instance["digraph"]["arcs"] == [[0, 1], [1, 0], [0, 2], [2, 0]]
    assert report.instance["beta"] == "1/2"
    assert report.instance["gamma"] == "-2/3"
    assert report.instance["mode"] == "per"


def test_random_generators_are_seed_deterministic():
    a = random_matrix(random.Random(5), 4)
    b = random_matrix(random.Random(5), 4)
    assert a == b
    g1 = random_digraph(random.Random(6), 6, weighted=True)
    g2 = random_digraph(random.Random(6), 6, weighted=True)
    assert g1 == g2


def test_random_matrix_reads_the_stream_rng_choice_reads():
    # Same matrices, and the stream left at the same place: the next
    # draw agrees too. Every verify digest rests on this.
    for seed in range(200):
        for order in range(1, 9):
            rng, reference = random.Random(seed), random.Random(seed)
            assert random_matrix(rng, order) == choice_matrix(reference, order)
            assert rng.random() == reference.random()
