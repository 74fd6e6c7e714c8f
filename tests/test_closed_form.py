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
"""

import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from deckpoly.digraphs import Digraph, enumerate_digraphs
from deckpoly.graph_polys import F1, F4, parse_kind, poly_of
from deckpoly.identities import random_nonzero_rational

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
