"""Acceptance suite: every exit criterion, exact arithmetic, stated time budgets.

Each test prints one pass/fail line; run `pytest -s tests/test_acceptance.py`
to see them live. All equality assertions are exact (tolerance zero).
"""

import functools
import random
import time
from fractions import Fraction

from deckpoly import polynomials as poly
from deckpoly.digraphs import Digraph, all_arc_slots, directed_cycle, enumerate_digraphs
from deckpoly.graph_polys import (
    DETERMINANT,
    F1,
    F2,
    F4,
    F5,
    PERMANENT,
    SIX_KINDS,
    deck,
    poly_of,
)
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
from deckpoly.matrices import det_bareiss, per_ryser
from deckpoly.reconstruct import OneParameterFamily, Unique, reconstruct
from deckpoly.search import canonical_counterexample, find_deck_collisions
from oracles import P, choice_matrix, deck_sum, permutation_expansion, xpow


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"acceptance criterion {num} ({description}): FAIL")
                raise
            print(f"acceptance criterion {num} ({description}): PASS")
        return run
    return wrap


@criterion(1, "golden cycle and path-plus-arc values, n=3..8")
def test_criterion_1_golden_values():
    start = time.monotonic()
    for n in range(3, 9):
        cycle = directed_cycle(n)
        rival = canonical_counterexample(n)[1]
        xn = xpow(n)
        assert poly_of(cycle, F1) == poly.sub(xn, P(1))
        assert poly_of(cycle, F4) == poly.sub(xn, P(-(-1) ** n))
        assert poly_of(rival, F1) == xn
        assert poly_of(rival, F4) == xn
        for kind in (F1, F4):
            for g in (cycle, rival):
                assert deck(g, kind).polys == (xn,) * n
    assert time.monotonic() - start < 1.0


@criterion(2, "zeroed-entry identities on 500 random matrices plus kernel oracles")
def test_criterion_2_matrix_identity_sweep():
    start = time.monotonic()
    rng = random.Random(20240501)
    for _ in range(500):
        matrix = random_matrix(rng, rng.randint(1, 6))
        assert check_thm21(matrix).holds
        assert check_thm22(matrix).holds
        assert check_thm23(matrix).holds
        assert permutation_expansion(matrix, True) == det_bareiss(matrix)
        assert permutation_expansion(matrix, False) == per_ryser(matrix)
    assert time.monotonic() - start < 30.0


@criterion(3, "deck-sum identity on 200 random digraphs, six kinds and 20 parameter pairs")
def test_criterion_3_deck_identity_sweep():
    start = time.monotonic()
    rng = random.Random(31415)
    for i in range(200):
        g = random_digraph(rng, 7, weighted=bool(i % 2))
        for kind in SIX_KINDS:
            report = check_eq17(g, kind)
            assert report.holds, report.instance
    for i in range(20):
        beta = random_rational(rng)
        gamma = random_nonzero_rational(rng)
        g = random_digraph(rng, 7, weighted=bool(i % 2))
        for mode in (DETERMINANT, PERMANENT):
            report = check_thm31(g, beta, gamma, mode)
            assert report.holds, report.instance
    assert time.monotonic() - start < 120.0


@criterion(4, "unique reconstruction for every n<=4 digraph with m>n, six kinds")
def test_criterion_4_reconstruction_roundtrip_m_greater_n():
    start = time.monotonic()
    count = 0
    for n in (2, 3, 4):
        slots = n * (n - 1)
        for m in range(n + 1, slots + 1):
            for g in enumerate_digraphs(n, m):
                for kind in SIX_KINDS:
                    assert reconstruct(deck(g, kind)) == Unique(poly_of(g, kind))
                count += 1
    assert count == 22 + 3302
    assert time.monotonic() - start < 300.0


@criterion(5, "m=n behavior of the counterexample pair: families for f1/f4, unique f2")
def test_criterion_5_m_equals_n_behavior():
    for n in (3, 4, 5):
        cycle, rival = canonical_counterexample(n)
        for kind in (F1, F4):
            truths = {poly_of(cycle, kind), poly_of(rival, kind)}
            assert len(truths) == 2
            for g in (cycle, rival):
                result = reconstruct(deck(g, kind))
                assert isinstance(result, OneParameterFamily)
                assert result.free_exponent == 0
                for truth in truths:
                    diff = poly.sub(truth, result.base)
                    assert all(c == 0 for k, c in enumerate(diff) if k != 0)
        for g in (cycle, rival):
            assert reconstruct(deck(g, F2)) == Unique(poly_of(g, F2))


@criterion(6, "exhaustive n=4, m=4 collision sweep: f1 collides, f2 does not")
def test_criterion_6_collision_search():
    start = time.monotonic()
    groups = find_deck_collisions(4, 4, F1)
    target = {P(-1, 0, 0, 0, 1), xpow(4)}
    assert any(target <= {p for _, p in group.members} for group in groups)
    assert find_deck_collisions(4, 4, F2) == []
    assert time.monotonic() - start < 60.0


@criterion(7, "deck-sum coefficient n-m vanishes on 100 random digraphs with m<n")
def test_criterion_7_annihilated_coefficient():
    start = time.monotonic()
    rng = random.Random(2025)
    for _ in range(100):
        n = rng.randint(2, 7)
        m = rng.randint(1, n - 1)
        g = Digraph(n, tuple(sorted(rng.sample(all_arc_slots(n), m))))
        for kind in SIX_KINDS:
            s = deck_sum(deck(g, kind))
            padded = list(s) + [Fraction(0)] * (n + 1 - len(s))
            assert padded[n - m] == 0
    assert time.monotonic() - start < 30.0


@criterion(8, "desk-scale performance: 14x14 permanent and an n=12 permanent-mode polynomial")
def test_criterion_8_performance():
    rng = random.Random(88)
    dense = choice_matrix(rng, 14, 0.0)
    start = time.monotonic()
    value = per_ryser(dense)
    assert time.monotonic() - start < 10.0
    assert isinstance(value, int)

    arcs = tuple(sorted(rng.sample(all_arc_slots(12), 30)))
    g = Digraph(12, arcs)
    start = time.monotonic()
    p = poly_of(g, F5)
    assert time.monotonic() - start < 120.0
    assert len(p) - 1 == 12 and p[-1] == 1
