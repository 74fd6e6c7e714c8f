"""The annihilated coefficient c_{n-m} in closed form when beta = 0, checked
against poly_of: an oracle that reads only the arcs, never a kernel.

With beta = 0 the pencil is x*I - gamma*A, and c_{n-m} is (-1)^m times the
sum over m-vertex sets S of det or per of (gamma*A)[S]. A term needs a
permutation of S along arcs, one arc out of each vertex of S; with m arcs
in all, that happens only when the arcs form vertex-disjoint directed
cycles covering S, and then the permutation is unique. In det mode its
sign is (-1)^(m - cycles), so

    c_{n-m} = (-1)^cycles * prod(gamma*w)   (det),
    c_{n-m} = (-1)^m * prod(gamma*w)        (per),

and c_{n-m} = 0 when the arcs are not such a set of cycles.

At m = n the annihilated coefficient is c_0, which has a closed form for
any beta (proved in reconstruct's docstring): 0 unless every in-degree is
1, and otherwise (-1)^n * prod(w) * beta^(n - |V(cycles)|) times, over the
cycles C, beta^|C| + s_C * gamma^|C|, with s_C = (-1)^(|C| - 1) in det mode
and 1 in per mode.
"""

import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from deckpoly.digraphs import Digraph, enumerate_digraphs
from deckpoly.graph_polys import F1, F2, F3, F4, F5, F6, parse_kind, poly_of
from deckpoly.identities import random_nonzero_rational
from oracles import random_kind

KINDS = (F1, F4, parse_kind("general:0,-3/2,det"), parse_kind("general:0,-3/2,per"))


def cycle_count(g):
    """The number of cycles when g's arcs are vertex-disjoint directed
    cycles (every touched vertex has in- and out-degree 1), else None."""
    outs = Counter(s for s, _ in g.arcs)
    ins = Counter(t for _, t in g.arcs)
    if any(c != 1 for c in outs.values()) or outs.keys() != ins.keys():
        return None
    succ = dict(g.arcs)
    cycles, seen = 0, set()
    for start in succ:
        if start not in seen:
            cycles += 1
            v = start
            while v not in seen:
                seen.add(v)
                v = succ[v]
    return cycles


def closed_form(g, kind):
    cycles = cycle_count(g)
    if cycles is None:
        return Fraction(0)
    sign = (-1) ** (cycles if kind.mode == "det" else g.m)
    return sign * prod((kind.gamma * w for w in g.arc_weights()), start=Fraction(1))


def coefficient(g, kind):
    p = poly_of(g, kind)
    k = g.n - g.m
    return p[k] if k < len(p) else Fraction(0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_on_every_small_digraph(n, kind):
    for m in range(min(n, n * (n - 1)) + 1):
        for g in enumerate_digraphs(n, m):
            assert coefficient(g, kind) == closed_form(g, kind), g


def planted_cycles(rng, n):
    """A random nonempty set of vertex-disjoint directed cycles: a random
    vertex sample cut into runs of at least two, each closed into a cycle."""
    vertices = rng.sample(range(n), rng.randint(2, n))
    arcs, start = [], 0
    while len(vertices) - start >= 2:
        length = rng.randint(2, len(vertices) - start)
        cycle = vertices[start:start + length]
        arcs += zip(cycle, cycle[1:] + cycle[:1])
        start += length
    return sorted(arcs)


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_on_random_weighted_digraphs(kind):
    rng = random.Random(3)
    linear = 0
    for trial in range(150):
        n = rng.randint(2, 7)
        if trial % 2:
            arcs = planted_cycles(rng, n)
        else:
            slots = [(s, t) for s in range(n) for t in range(n) if s != t]
            arcs = sorted(rng.sample(slots, rng.randint(0, min(n, len(slots)))))
        g = Digraph(n, tuple(arcs), tuple(random_nonzero_rational(rng) for _ in arcs))
        linear += cycle_count(g) is not None and g.m > 0
        assert coefficient(g, kind) == closed_form(g, kind), g
    assert linear >= 75


def cycle_lengths_if_in_degrees_are_one(g):
    """The lengths of g's directed cycles when every vertex has in-degree
    exactly 1, else None. Each vertex then has one predecessor, so walking
    back from any vertex ends on exactly one cycle."""
    pred = {t: s for s, t in g.arcs}
    if g.m != g.n or len(pred) != g.n:
        return None
    lengths, seen = [], set()
    for start in range(g.n):
        path, v = [], start
        while v not in seen:
            seen.add(v)
            path.append(v)
            v = pred[v]
        if v in path:
            lengths.append(len(path) - path.index(v))
    return lengths


def c0_closed_form(g, kind):
    lengths = cycle_lengths_if_in_degrees_are_one(g)
    if lengths is None:
        return Fraction(0)
    value = (-1) ** g.n * prod(g.arc_weights(), start=Fraction(1))
    value *= kind.beta ** (g.n - sum(lengths))
    for length in lengths:
        sign = (-1) ** (length - 1) if kind.mode == "det" else 1
        value *= kind.beta ** length + sign * kind.gamma ** length
    return value


@pytest.mark.parametrize("kind", [F2, F3, F5, F6])
def test_c0_closed_form_on_every_small_digraph_with_m_equal_n(kind):
    nonzero = 0
    for n in (2, 3, 4):
        for g in enumerate_digraphs(n, n):
            expected = c0_closed_form(g, kind)
            assert poly_of(g, kind)[0] == expected, g
            nonzero += expected != 0
    # Under f2 every factor is 1 - 1: c_0 = 0, the rule reconstruct applies.
    assert (nonzero == 0) == (kind == F2)


def planted_predecessors(rng, n):
    """The arcs (p(t), t) of a random predecessor map p without fixed
    points: every vertex gets in-degree 1."""
    return sorted((rng.choice([s for s in range(n) if s != t]), t) for t in range(n))


def test_c0_closed_form_on_random_weighted_digraphs():
    rng = random.Random(5)
    planted = 0
    for trial in range(300):
        n = rng.randint(2, 7)
        kind = random_kind(rng, rng.choice(["det", "per"]))
        if trial % 2:
            arcs = planted_predecessors(rng, n)
        else:
            slots = [(s, t) for s in range(n) for t in range(n) if s != t]
            arcs = sorted(rng.sample(slots, n))
        g = Digraph(n, tuple(arcs), tuple(random_nonzero_rational(rng) for _ in arcs))
        planted += cycle_lengths_if_in_degrees_are_one(g) is not None
        assert poly_of(g, kind)[0] == c0_closed_form(g, kind), (g, kind)
    assert planted >= 150
