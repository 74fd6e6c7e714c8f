"""Digraph model: validation, matrices, arc deletion, labeled enumeration,
and the constructor that every record inherits from Frozen."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from deckpoly import digraphs as dg
from deckpoly.digraphs import Digraph, InvalidDigraphError
from deckpoly.identities import IdentityReport, random_digraph
from deckpoly.reconstruct import Unique


def test_validate_accepts_digon():
    dg.validate(Digraph(2, ((0, 1), (1, 0))))


def test_validate_rejects_loop():
    with pytest.raises(InvalidDigraphError, match=r"^loop at vertex 0$"):
        dg.validate(Digraph(1, ((0, 0),)))


def test_validate_rejects_duplicate_arc():
    with pytest.raises(InvalidDigraphError, match=r"^arc \(0, 1\) repeated$"):
        dg.validate(Digraph(2, ((0, 1), (0, 1))))


def test_validate_rejects_out_of_range_index():
    with pytest.raises(InvalidDigraphError,
                       match=r"^arc \(0, 2\) outside vertex range \[0, 2\)$"):
        dg.validate(Digraph(2, ((0, 2),)))


@pytest.mark.parametrize("arc", [(2, 0), (-1, 0), (0, -1)])
def test_validate_checks_both_ends_of_the_range_on_both_endpoints(arc):
    with pytest.raises(InvalidDigraphError, match=re.escape(f"arc {arc} outside vertex range")):
        dg.validate(Digraph(2, (arc,)))


def test_validate_rejects_zero_weight():
    with pytest.raises(InvalidDigraphError, match=r"^arc weights must be nonzero$"):
        dg.validate(Digraph(2, ((0, 1),), (Fraction(0),)))


def test_validate_rejects_weight_count_mismatch():
    with pytest.raises(InvalidDigraphError, match=r"^2 weights for 1 arcs$"):
        dg.validate(Digraph(2, ((0, 1),), (Fraction(1), Fraction(2))))


def test_validate_rejects_empty_vertex_set():
    with pytest.raises(InvalidDigraphError, match=r"^vertex count must be >= 1, got 0$"):
        dg.validate(Digraph(0))


def test_adjacency_of_three_cycle():
    g = dg.directed_cycle(3)
    assert dg.adjacency(g) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_adjacency_of_empty_digraph():
    assert dg.adjacency(Digraph(2)) == [[0, 0], [0, 0]]


def test_adjacency_weighted_single_arc():
    g = Digraph(2, ((0, 1),), (Fraction(1, 2),))
    assert dg.adjacency(g) == [[0, Fraction(1, 2)], [0, 0]]


def test_in_degree_is_weighted():
    g = Digraph(2, ((0, 1), (1, 0)), (Fraction(1, 2), Fraction(3),))
    assert dg.in_degrees(g) == [Fraction(3), Fraction(1, 2)]


def test_delete_arc_examples():
    cycle = dg.directed_cycle(3)
    assert dg.delete_arc(cycle, 2) == dg.directed_path(3)
    single = Digraph(2, ((0, 1),))
    assert dg.delete_arc(single, 0) == Digraph(2)
    digon = Digraph(2, ((0, 1), (1, 0)))
    assert dg.delete_arc(digon, 1) == Digraph(2, ((0, 1),))


def test_delete_arc_keeps_parallel_weights():
    g = Digraph(2, ((0, 1), (1, 0)), (Fraction(2), Fraction(5)))
    assert dg.delete_arc(g, 0) == Digraph(2, ((1, 0),), (Fraction(5),))


def test_delete_arc_index_error():
    with pytest.raises(IndexError):
        dg.delete_arc(Digraph(2, ((0, 1),)), 1)


def test_delete_arc_changes_matrices_consistently():
    rng = random.Random(41)
    for _ in range(30):
        g = random_digraph(rng, 5, weighted=True)
        if g.m == 0:
            continue
        e = rng.randrange(g.m)
        s, t = g.arcs[e]
        w = g.arc_weights()[e]
        h = dg.delete_arc(g, e)
        a_before, a_after = dg.adjacency(g), dg.adjacency(h)
        d_before, d_after = dg.in_degrees(g), dg.in_degrees(h)
        assert a_after[s][t] == 0 and a_before[s][t] == w
        for i in range(g.n):
            for j in range(g.n):
                if (i, j) != (s, t):
                    assert a_after[i][j] == a_before[i][j]
        for v in range(g.n):
            expected = d_before[v] - w if v == t else d_before[v]
            assert d_after[v] == expected


def test_column_sums_match_in_degrees():
    rng = random.Random(43)
    for _ in range(30):
        g = random_digraph(rng, 6, weighted=bool(rng.getrandbits(1)))
        a = dg.adjacency(g)
        d = dg.in_degrees(g)
        for j in range(g.n):
            assert sum(a[i][j] for i in range(g.n)) == d[j]


def test_enumerate_counts():
    assert len(list(dg.enumerate_digraphs(2, 2))) == 1
    assert len(list(dg.enumerate_digraphs(3, 1))) == 6
    assert len(list(dg.enumerate_digraphs(4, 4))) == 495


def test_enumerate_digon_is_only_two_arc_digraph_on_two_vertices():
    (g,) = dg.enumerate_digraphs(2, 2)
    assert g == Digraph(2, ((0, 1), (1, 0)))


@pytest.mark.parametrize("n,m", [(3, 0), (3, 2), (3, 6), (4, 2)])
def test_enumerate_yields_valid_distinct_digraphs(n, m):
    seen = set()
    count = 0
    for g in dg.enumerate_digraphs(n, m):
        dg.validate(g)
        assert g.m == m and g.n == n
        assert g not in seen
        seen.add(g)
        count += 1
    assert count == comb(n * (n - 1), m)


def test_enumerate_is_lexicographic():
    first = next(dg.enumerate_digraphs(3, 2))
    assert first.arcs == ((0, 1), (0, 2))


def test_enumerate_rejects_bad_m():
    with pytest.raises(ValueError):
        list(dg.enumerate_digraphs(3, 7))
    with pytest.raises(ValueError):
        list(dg.enumerate_digraphs(3, -1))
    with pytest.raises(ValueError):
        list(dg.enumerate_digraphs(0, 0))
    with pytest.raises(ValueError, match="at least 2 vertices"):
        dg.directed_cycle(1)
    with pytest.raises(ValueError, match="at least 1 vertex"):
        dg.directed_path(0)


def test_digraph_is_hashable_and_coerces_input():
    g = Digraph(3, [[0, 1], (1, 2)], [1, "1/2"])
    assert g.arcs == ((0, 1), (1, 2))
    assert g.weights == (Fraction(1), Fraction(1, 2))
    assert hash(g) == hash(Digraph(3, ((0, 1), (1, 2)), (1, Fraction(1, 2))))


@pytest.mark.parametrize("arcs", [((0, 1.7), (2.9, 0)), ((0, "1"),), ((Fraction(1), 0),)])
def test_non_integral_endpoints_are_refused(arcs):
    # int() would truncate 1.7 and 2.9 to an arc set that passes validate.
    bad = next(v for arc in arcs for v in arc if type(v) is not int)
    with pytest.raises(TypeError, match=repr(bad).replace("(", r"\(").replace(")", r"\)")):
        Digraph(3, arcs)


@pytest.mark.parametrize("n", [3.0, "3", Fraction(3)])
def test_non_integral_vertex_count_is_refused(n):
    with pytest.raises(TypeError, match="vertex count"):
        Digraph(n)


def test_int_and_bool_indices_are_kept_as_ints():
    g = Digraph(True, ())
    assert g.n == 1 and type(g.n) is int
    g = Digraph(3, ((True, False), (0, 2)))
    assert g.arcs == ((1, 0), (0, 2))
    assert all(type(v) is int for arc in g.arcs for v in arc)
    dg.validate(g)


RECORDS = [
    pytest.param(Unique, ((1,),), id="1-field"),
    pytest.param(IdentityReport, ("2.1", {}, 1, 1), id="4-field"),
]


@pytest.mark.parametrize("record, values", RECORDS)
def test_frozen_binds_positional_then_keyword_values_in_slot_order(record, values):
    names = record.__slots__
    for split in range(len(values) + 1):
        x = record(*values[:split], **dict(zip(names[split:], values[split:])))
        assert tuple(getattr(x, name) for name in names) == values
    assert record(**dict(reversed(list(zip(names, values))))) == record(*values)


@pytest.mark.parametrize("record, values", RECORDS)
def test_frozen_rejects_a_missing_extra_repeated_or_unknown_field(record, values):
    names, last = record.__slots__, record.__slots__[-1]
    missing = [(values[:-1], {}), ((), dict(zip(names[:-1], values)))]
    extra = [(values + (None,), {})]
    repeated = [(values, {names[0]: values[0]})]
    unknown = [(values, {"extra": None}), (values[:-1], {last: values[-1], "extra": None}),
               (values[:-1], {"extra": None})]
    for args, kwargs in missing + extra:
        with pytest.raises(TypeError, match="takes values for"):
            record(*args, **kwargs)
    for args, kwargs in repeated + unknown:
        with pytest.raises(TypeError, match="repeated or unknown fields"):
            record(*args, **kwargs)
