"""The coefficient theorem of graph_polys' module docstring, as code and as
the corollary for the coefficient the deck leaves free.

oracles.functional_expansion is the theorem as code: it sums the terms
over the functional arc sets H (distinct heads) with no matrix and no
kernel. Here it is checked against the n!-term permutation expansion
(poly_of_oracle) and the deletion deck.

The corollary: at m <= n only H = E has m arcs, so c_{n-m} = 0 when some
vertex has in-degree 2 or more, and otherwise it is the term on E,

    c_{n-m} = (-1)^m * w(E) * beta^(m - |V(cycles)|)
              * prod_C (beta^|C| + s_C * gamma^|C|),

with s_C = (-1)^(|C| - 1) in det mode and 1 in per mode. At beta = 0 it
is nonzero only when the arcs are vertex-disjoint cycles, c of them, and
then it is (-1)^c * prod(gamma*w) in det mode and (-1)^m * prod(gamma*w)
in per mode. At m = n it is c_0. It is checked against poly_of, at every
m <= n and for every kind.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import prod

import pytest

from deckpoly.digraphs import Digraph, enumerate_digraphs
from deckpoly.graph_polys import F2, F3, F5, F6, SIX_KINDS, parse_kind, poly_of, poly_of_oracle
from deckpoly.identities import random_digraph, random_nonzero_rational
from oracles import deletion_deck, functional_expansion, random_kind

KINDS = SIX_KINDS + (parse_kind("general:3/2,-2,det"), parse_kind("general:-1/3,5/7,per"))


def check_expansion(g, kind, oracle=poly_of_oracle):
    poly, cards = functional_expansion(g, kind)
    assert poly == oracle(g, kind), (g, kind)
    assert tuple(sorted(cards)) == (deletion_deck(g, kind) if g.m else ()), (g, kind)


@cache
def class_oracle(n, arcs, kind):
    return poly_of_oracle(Digraph(n, arcs), kind)


def relabelled_oracle(g, kind):
    """poly_of_oracle of g's lex-least relabelling: the pencil polynomial
    does not change when the vertices are relabelled, so the n!-term
    oracle runs once per class."""
    least = min(tuple(sorted((p[s], p[t]) for s, t in g.arcs)) for p in permutations(range(g.n)))
    return class_oracle(g.n, least, kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_functional_expansion_matches_the_oracles_on_every_small_digraph(n):
    for m in range(min(n * (n - 1), 4) + 1):
        for g in enumerate_digraphs(n, m):
            for kind in KINDS:
                check_expansion(g, kind, relabelled_oracle)


def test_functional_expansion_matches_the_oracles_on_random_weighted_digraphs():
    rng = random.Random(11)
    for _ in range(40):
        g = random_digraph(rng, 6, weighted=True)
        for kind in rng.sample(KINDS, 2):
            check_expansion(g, kind)


def cycle_lengths(pred):
    """The lengths of the directed cycles of a functional arc set, given as
    its predecessor map: walking back from a head ends at a vertex with no
    predecessor, or on exactly one cycle."""
    lengths, seen = [], set()
    for start in pred:
        path, v = [], start
        while v in pred and v not in seen:
            seen.add(v)
            path.append(v)
            v = pred[v]
        if v in path:
            lengths.append(len(path) - path.index(v))
    return lengths


def closed_form(g, kind):
    """c_{n-m} by the corollary: 0 when some in-degree is 2 or more, else
    the term on H = E."""
    pred = {t: s for s, t in g.arcs}
    if len(pred) < g.m:
        return Fraction(0)
    lengths = cycle_lengths(pred)
    value = (-1) ** g.m * prod(g.arc_weights(), start=Fraction(1))
    value *= kind.beta ** (g.m - sum(lengths))
    for length in lengths:
        sign = (-1) ** (length - 1) if kind.mode == "det" else 1
        value *= kind.beta ** length + sign * kind.gamma ** length
    return value


def coefficient(g, kind):
    return poly_of(g, kind)[g.n - g.m]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_on_every_small_digraph(n, kind):
    for m in range(min(n, n * (n - 1)) + 1):
        for g in enumerate_digraphs(n, m):
            assert coefficient(g, kind) == closed_form(g, kind), g


def planted_functional(rng, n):
    """The arcs (p(t), t) of a random predecessor map p without fixed
    points on a random nonempty set of heads: every in-degree at most 1."""
    heads = rng.sample(range(n), rng.randint(1, n))
    return sorted((rng.choice([s for s in range(n) if s != t]), t) for t in heads)


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_on_random_weighted_digraphs(kind):
    rng = random.Random(3)
    functional = 0
    for trial in range(150):
        n = rng.randint(2, 7)
        if trial % 2:
            arcs = planted_functional(rng, n)
        else:
            slots = [(s, t) for s in range(n) for t in range(n) if s != t]
            arcs = sorted(rng.sample(slots, rng.randint(0, n)))
        g = Digraph(n, tuple(arcs), tuple(random_nonzero_rational(rng) for _ in arcs))
        functional += len({t for _, t in arcs}) == len(arcs)
        assert coefficient(g, kind) == closed_form(g, kind), g
    assert functional >= 75


@pytest.mark.parametrize("kind", [F2, F3, F5, F6])
def test_c0_closed_form_on_every_small_digraph_with_m_equal_n(kind):
    # With unit weights each cycle factor is 1 + s_C * gamma^|C|: f2's kills
    # every cycle, f3's the even ones, f5's the odd ones and f6's none.
    kills = {F2: lambda length: True, F3: lambda length: length % 2 == 0,
             F5: lambda length: length % 2 == 1, F6: lambda length: False}[kind]
    nonzero = 0
    for n in (2, 3, 4):
        for g in enumerate_digraphs(n, n):
            expected = closed_form(g, kind)
            assert poly_of(g, kind)[0] == expected, g
            pred = {t: s for s, t in g.arcs}
            assert (expected != 0) == (len(pred) == n and not any(map(kills, cycle_lengths(pred))))
            nonzero += expected != 0
    # Under f2, c_0 = 0: the rule reconstruct applies.
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
        planted += len({t for _, t in arcs}) == n
        assert poly_of(g, kind)[0] == closed_form(g, kind), (g, kind)
    assert planted >= 150
