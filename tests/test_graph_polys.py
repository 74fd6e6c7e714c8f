"""Pencil polynomials: golden values, the permutation-expansion oracle, decks."""

import gc
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from deckpoly import digraphs as dg
from deckpoly import graph_polys
from deckpoly import matrices as mx
from deckpoly import polynomials as poly
from deckpoly.digraphs import Digraph
from deckpoly.graph_polys import (
    F1,
    F2,
    F3,
    F4,
    F5,
    F6,
    NAMED_KINDS,
    SIX_KINDS,
    PolyKind,
    deck,
    kind_name,
    parse_kind,
    pencil_at,
    poly_of,
    poly_of_oracle,
)
from deckpoly.identities import random_digraph, random_nonzero_rational, random_rational
from deckpoly.search import canonical_counterexample
from oracles import P, deletion_deck, random_kind, xpow


STAR_OF_DIGONS = Digraph(3, ((0, 1), (1, 0), (0, 2), (2, 0)))


def test_named_kinds_are_family_points():
    assert F1 == PolyKind(0, 1, "det")
    assert F2 == PolyKind(1, -1, "det")
    assert F3 == PolyKind(1, 1, "det")
    assert F4 == PolyKind(0, 1, "per")
    assert F5 == PolyKind(1, -1, "per")
    assert F6 == PolyKind(1, 1, "per")


def test_kind_names_round_trip():
    for name, kind in zip(("f1", "f2", "f3", "f4", "f5", "f6"), SIX_KINDS):
        assert kind_name(kind) == name
        assert parse_kind(name) == kind
    general = PolyKind(Fraction(2, 3), Fraction(-1, 2), "per")
    assert parse_kind(kind_name(general)) == general
    assert parse_kind("general:1,-1,det") == F2
    assert kind_name(PolyKind(1, -1, "det")) == "f2"


def test_a_general_kind_equal_to_a_named_one_prints_its_name():
    for name, kind in NAMED_KINDS.items():
        text = f"general:{kind.beta},{kind.gamma},{kind.mode}"
        assert kind_name(parse_kind(text)) == name
    assert kind_name(parse_kind("general:0,1,per")) == "f4"
    assert kind_name(PolyKind(Fraction(0), Fraction(2, 2), "per")) == "f4"
    assert kind_name(PolyKind(0, -1, "per")) == "general:0,-1,per"


def test_parse_kind_errors():
    for text in ("f7", "general:1,2", "general:1,0,det", "general:1,2,foo", ""):
        with pytest.raises(ValueError):
            parse_kind(text)


def test_polykind_validates():
    with pytest.raises(ValueError):
        PolyKind(1, 0, "det")
    with pytest.raises(ValueError):
        PolyKind(1, 1, "determinant")


def test_pencil_at_single_arc_laplacian():
    g = Digraph(2, ((0, 1),))
    assert pencil_at(g, F2, 2) == ([[2, 1], [0, 1]], 1)
    assert pencil_at(g, F2, 0) == ([[0, 1], [0, -1]], 1)


def test_pencil_at_zero_is_minus_adjacency_for_f1():
    rng = random.Random(5)
    for _ in range(10):
        g = random_digraph(rng, 5, weighted=True)
        a = dg.adjacency(g)
        p, scale = pencil_at(g, F1, 0)
        assert scale == lcm(*(x.denominator for row in a for x in row))
        assert [[Fraction(x, scale) for x in row] for row in p] == [[-x for x in row] for row in a]


def test_pencil_at_empty_digraph_is_scalar_matrix():
    t = Fraction(7, 3)
    for kind in SIX_KINDS:
        assert pencil_at(Digraph(3), kind, t) == ([[7, 0, 0], [0, 7, 0], [0, 0, 7]], 3)


@pytest.mark.parametrize("n", range(3, 7))
def test_cycle_golden_values(n):
    cycle = dg.directed_cycle(n)
    assert poly_of(cycle, F1) == poly.sub(xpow(n), P(1))
    assert poly_of(cycle, F4) == poly.add(xpow(n), P((-1) ** n))


@pytest.mark.parametrize("n", range(3, 7))
def test_path_plus_arc_is_annihilated_to_x_n(n):
    g = canonical_counterexample(n)[1]
    assert poly_of(g, F1) == xpow(n)
    assert poly_of(g, F4) == xpow(n)


def test_single_arc_laplacian_poly():
    assert poly_of(Digraph(2, ((0, 1),)), F2) == P(0, -1, 1)


def test_star_of_digons_characteristic_poly():
    # Permutation expansion of det(xI - A): two digons contribute -x each.
    assert poly_of(STAR_OF_DIGONS, F1) == P(0, -2, 0, 1)


def test_poly_of_is_monic_of_degree_n():
    rng = random.Random(19)
    for _ in range(25):
        g = random_digraph(rng, 6, weighted=bool(rng.getrandbits(1)))
        for kind in SIX_KINDS:
            p = poly_of(g, kind)
            assert len(p) - 1 == g.n
            assert p[-1] == 1


def test_poly_of_keeps_nothing():
    # No result, digraph or kind outlives its call: a sweep of 2,000 fresh
    # digraphs leaves less than 64 KB allocated behind it.
    rng = random.Random(7)
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(2000):
            poly_of(random_digraph(rng, 5), (F1, F4)[i % 2])
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_monic_check_survives_python_O():
    # A kernel returning wrong coefficients must raise even under -O, where
    # a bare assert would vanish and a non-monic polynomial would escape.
    script = textwrap.dedent("""
        from deckpoly import graph_polys
        from deckpoly.digraphs import Digraph

        graph_polys._kernel = lambda kind: lambda b, wanted: ([0] * (len(b) + 1), {})
        try:
            graph_polys.poly_of(Digraph(2), graph_polys.F1)
        except AssertionError as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(graph_polys.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert "monic of degree 2" in proc.stdout


def test_second_coefficient_is_minus_beta_times_total_weight():
    rng = random.Random(29)
    for _ in range(25):
        g = random_digraph(rng, 6, weighted=bool(rng.getrandbits(1)))
        if g.n < 2:
            continue
        total_weight = sum(g.arc_weights(), Fraction(0))
        for kind in SIX_KINDS:
            p = poly_of(g, kind)
            assert p[g.n - 1] == -kind.beta * total_weight


def test_acyclic_digraphs_have_pure_power_characteristic_poly():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 6)
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        arcs = tuple(sorted(rng.sample(slots, rng.randint(0, len(slots)))))
        g = Digraph(n, arcs)
        assert poly_of(g, F1) == xpow(n)


def test_laplacian_poly_has_no_constant_term():
    rng = random.Random(37)
    for _ in range(30):
        g = random_digraph(rng, 6, weighted=bool(rng.getrandbits(1)))
        assert poly.evaluate(poly_of(g, F2), 0) == 0


def test_oracle_trivial_cases():
    for n in (1, 2, 4):
        for kind in SIX_KINDS:
            assert poly_of_oracle(Digraph(n), kind) == xpow(n)
    digon = Digraph(2, ((0, 1), (1, 0)))
    assert poly_of_oracle(digon, F1) == P(-1, 0, 1)


def test_oracle_matches_poly_of_exhaustively_on_three_vertices():
    for m in range(7):
        for g in dg.enumerate_digraphs(3, m):
            for kind in SIX_KINDS:
                assert poly_of_oracle(g, kind) == poly_of(g, kind)


def test_oracle_matches_poly_of_on_random_larger_instances():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(4, 5)
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        arcs = tuple(sorted(rng.sample(slots, rng.randint(0, len(slots)))))
        weights = tuple(random_nonzero_rational(rng) for _ in arcs) or None
        g = Digraph(n, arcs, weights)
        kind = PolyKind(random_rational(rng), random_nonzero_rational(rng),
                        rng.choice(("det", "per")))
        assert poly_of_oracle(g, kind) == poly_of(g, kind)


def interpolation_oracle(g, kind):
    """poly_of by the route it replaced: the scalar kernel at t = 0..n, then
    Lagrange interpolation."""
    kernel = mx.per_ryser if kind.mode == "per" else mx.det_bareiss
    points = []
    for t in range(g.n + 1):
        p, scale = pencil_at(g, kind, t)
        points.append((t, Fraction(kernel(p), scale ** g.n)))
    return poly.interpolate(points)


@pytest.mark.parametrize("mode, max_n", [("det", 12), ("per", 9)])
def test_poly_of_matches_interpolation_oracle_on_random_weighted_digraphs(mode, max_n):
    rng = random.Random(53 if mode == "det" else 59)
    named = [kind for kind in SIX_KINDS if kind.mode == mode]
    for _ in range(40):
        g = random_digraph(rng, max_n, weighted=bool(rng.getrandbits(1)))
        kind = rng.choice(named) if rng.getrandbits(1) else random_kind(rng, mode)
        assert poly_of(g, kind) == interpolation_oracle(g, kind)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_poly_of_matches_interpolation_oracle_without_arcs(n):
    rng = random.Random(61)
    for kind in SIX_KINDS + (random_kind(rng, "det"), random_kind(rng, "per")):
        assert poly_of(Digraph(n), kind) == interpolation_oracle(Digraph(n), kind) == xpow(n)


def test_poly_of_matches_interpolation_oracle_at_the_largest_orders():
    rng = random.Random(67)
    for mode, n in (("det", 12), ("per", 9)):
        for weighted in (False, True):
            arcs = tuple(sorted(rng.sample(dg.all_arc_slots(n), 3 * n)))
            weights = tuple(random_nonzero_rational(rng) for _ in arcs) if weighted else None
            g = Digraph(n, arcs, weights)
            kind = random_kind(rng, mode)
            assert poly_of(g, kind) == interpolation_oracle(g, kind)


ARCS3 = ((0, 1), (2, 1), (1, 2))


@pytest.mark.parametrize("text, arcs, weights, scale, input_lcm, entries_lcm", [
    # beta * w = 2/3 * 1/3 = 2/9: a factor 9 that no input supplies.
    ("general:2/3,5/7,per", ARCS3, (Fraction(1, 3), Fraction(2, 5), Fraction(1, 3)), 315, 105, 315),
    # Every entry of B and every arc term has a denominator dividing 10.
    ("general:1/2,3/4,det", ARCS3, (Fraction(2, 5),) * 3, 10, 20, 10),
    # Weights 1 and -1 into head 2 cancel on B's diagonal, but deleting
    # either arc leaves -/+ beta = -/+ 1/3 there.
    ("general:1/3,1,det", ((0, 2), (1, 2)), (Fraction(1), Fraction(-1)), 3, 3, 1),
    ("general:1/3,1,per", ((0, 2), (1, 2)), (Fraction(1), Fraction(-1)), 3, 3, 1),
], ids=["ninths-per", "tenths-det", "cancelling-det", "cancelling-per"])
def test_arc_terms_scale_clears_every_arc_term(monkeypatch, text, arcs, weights, scale,
                                               input_lcm, entries_lcm):
    kind = parse_kind(text)
    g = Digraph(3, arcs, weights)
    assert lcm(kind.beta.denominator, kind.gamma.denominator,
               *(w.denominator for w in weights)) == input_lcm
    a, d = dg.adjacency(g), dg.in_degrees(g)
    b_entries = [kind.beta * d[i] if i == j else kind.gamma * a[i][j]
                 for i in range(3) for j in range(3)]
    assert lcm(*(x.denominator for x in b_entries)) == entries_lcm
    got, arc_terms = graph_polys._arc_terms(kind, weights)
    assert got == scale
    assert arc_terms == [(kind.gamma * w * scale, kind.beta * w * scale) for w in weights]
    # The matrix the seam hands the kernel is L*B.
    seen = []
    kernel_of = graph_polys._kernel

    def recording(k):
        def kernel(b, wanted):
            seen.append(b)
            return kernel_of(k)(b, wanted)
        return kernel

    monkeypatch.setattr(graph_polys, "_kernel", recording)
    assert poly_of(g, kind) == interpolation_oracle(g, kind) == poly_of_oracle(g, kind)
    assert [[Fraction(x, scale) for x in row] for row in seen[0]] == [
        b_entries[3 * i:3 * i + 3] for i in range(3)]
    assert deck(g, kind).polys == deletion_deck(g, kind)


@pytest.mark.parametrize("text", ["general:1/2,3/4,det", "general:2/3,5/7,per"])
def test_poly_of_with_thirds_and_fifths_weights_matches_interpolation_oracle(text):
    kind = parse_kind(text)
    rng = random.Random(71)
    for _ in range(30):
        g = random_digraph(rng, 7 if kind.mode == "per" else 10)
        weights = tuple(rng.choice((Fraction(1, 3), Fraction(2, 5))) for _ in g.arcs)
        g = Digraph(g.n, g.arcs, weights or None)
        assert poly_of(g, kind) == interpolation_oracle(g, kind)


def sympy_oracle(g, kind):
    """Third, independent oracle: sympy's charpoly and (x*I - B).per()."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a = dg.adjacency(g)
    d = dg.in_degrees(g)
    b = sympy.Matrix(g.n, g.n, lambda i, j: sympy.Rational(
        kind.beta * d[i] if i == j else kind.gamma * a[i][j]))
    if kind.mode == "det":
        coeffs = b.charpoly(x).all_coeffs()
    else:
        coeffs = sympy.Poly((x * sympy.eye(g.n) - b).per(), x).all_coeffs()
    return P(*(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)))


def test_poly_of_matches_sympy_on_random_weighted_digraphs():
    rng = random.Random(73)
    for _ in range(20):
        g = random_digraph(rng, 5, weighted=bool(rng.getrandbits(1)))
        for kind in (rng.choice(SIX_KINDS), random_kind(rng, "det"), random_kind(rng, "per")):
            assert poly_of(g, kind) == sympy_oracle(g, kind)


def test_size_caps():
    with pytest.raises(ValueError):
        poly_of(Digraph(17), F4)
    with pytest.raises(ValueError):
        poly_of(Digraph(65), F1)
    with pytest.raises(ValueError):
        poly_of_oracle(Digraph(8), F1)
    # deck checks the same caps itself; it no longer goes through poly_of.
    for n, kind in ((17, F4), (65, F1)):
        with pytest.raises(ValueError, match="polynomials are capped"):
            deck(Digraph(n, ((0, 1),)), kind)
        assert deck(Digraph(n - 1, ((0, 1),)), kind).polys == (xpow(n - 1),)


@pytest.mark.parametrize("n", range(3, 7))
def test_cycle_deck_is_n_copies_of_x_n(n):
    d = deck(dg.directed_cycle(n), F1)
    assert d.polys == (xpow(n),) * n
    d2 = deck(canonical_counterexample(n)[1], F1)
    assert d2.polys == (xpow(n),) * n


def test_single_arc_deck():
    assert deck(Digraph(2, ((0, 1),)), F1).polys == (xpow(2),)


def test_deck_of_arcless_digraph_is_an_error():
    with pytest.raises(ValueError):
        deck(Digraph(3), F1)


def test_deck_has_m_monic_members_sorted():
    rng = random.Random(47)
    for _ in range(20):
        g = random_digraph(rng, 5)
        if g.m == 0:
            continue
        for kind in (F1, F5):
            d = deck(g, kind)
            assert len(d.polys) == g.m
            assert list(d.polys) == sorted(d.polys)
            for p in d.polys:
                assert len(p) - 1 == g.n and p[-1] == 1
