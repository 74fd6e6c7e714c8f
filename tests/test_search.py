"""Collision search: the canonical pair, the class walk, exhaustive sweeps, re-verification."""

import os
import subprocess
import sys
import textwrap
from itertools import combinations, permutations
from math import comb, factorial
from operator import getitem

import pytest

from deckpoly import graph_polys
from deckpoly import polynomials as poly
from deckpoly import search
from deckpoly.digraphs import Digraph, all_arc_slots, enumerate_digraphs
from deckpoly.graph_polys import F1, F2, F4, SIX_KINDS, Deck, deck, parse_kind, poly_of
from deckpoly.search import CollisionGroup, canonical_counterexample, find_deck_collisions
from oracles import P, deletion_deck, digraph_classes, xpow


def test_counterexample_arc_lists_at_n3():
    cycle, rival = canonical_counterexample(3)
    assert cycle == Digraph(3, ((0, 1), (1, 2), (2, 0)))
    assert rival == Digraph(3, ((0, 1), (1, 2), (0, 2)))


def test_counterexample_polynomials_differ_but_decks_agree():
    for n in (3, 4, 5):
        cycle, rival = canonical_counterexample(n)
        for kind in (F1, F4):
            assert poly_of(cycle, kind) != poly_of(rival, kind)
            assert deck(cycle, kind) == deck(rival, kind)
        assert poly_of(cycle, F1) == poly.sub(xpow(n), P(1))
        assert poly_of(rival, F1) == xpow(n)


def test_counterexample_rejects_degenerate_sizes():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            canonical_counterexample(n)


def test_collision_sweep_n4_m4_characteristic():
    groups = find_deck_collisions(4, 4, F1)
    assert groups
    target = {P(-1, 0, 0, 0, 1), xpow(4)}
    hits = [g for g in groups if target <= {p for _, p in g.members}]
    assert hits, "the cycle / path-plus-arc pair must appear in some group"


def test_collision_sweep_n4_m4_laplacian_is_clean():
    assert find_deck_collisions(4, 4, F2) == []


@pytest.mark.parametrize("kind", [F1, F4])
def test_collisions_exist_at_n_equals_m_equals_3(kind):
    assert find_deck_collisions(3, 3, kind)


def test_groups_are_internally_consistent_and_reverifiable():
    for kind in (F1, F4):
        for group in find_deck_collisions(4, 4, kind):
            assert isinstance(group, CollisionGroup)
            polys = [p for _, p in group.members]
            assert len(set(polys)) == len(polys) >= 2
            assert list(polys) == sorted(polys)
            for g, p in group.members:
                assert deck(g, kind) == group.deck
                assert poly_of(g, kind) == p


def test_search_is_deterministic():
    assert find_deck_collisions(4, 4, F1) == find_deck_collisions(4, 4, F1)


def test_budget_is_enforced():
    with pytest.raises(ValueError):
        find_deck_collisions(4, 4, F1, budget=100)
    # The budget counts the 220 (4, 9)-digraphs, one per complement in the
    # (4, 3) cell that is walked, not their 495 (4, 8) cards.
    with pytest.raises(ValueError, match="enumerating 220 digraphs"):
        find_deck_collisions(4, 9, F1, budget=219)
    assert find_deck_collisions(4, 9, F1, budget=220) == []


def test_edge_cases():
    assert find_deck_collisions(3, 0, F1) == []
    with pytest.raises(ValueError):
        find_deck_collisions(3, 7, F1)
    # The vertex count is checked before the walk.
    for n in (0, -1):
        with pytest.raises(ValueError, match="vertex count"):
            find_deck_collisions(n, 0, F1)


@pytest.mark.parametrize("n, m, kind, coefficient, answer", [
    # (4, 4) has groups; a shift at coefficient 3 splits them there, which
    # the deck fixes.
    pytest.param(4, 4, F1, 3, "OneParameterFamily", id="4-4-f1-3"),
    # (3, 4) has none; the shift makes some, but m > n fixes every
    # coefficient. Its one deck shared by two classes has in-degrees
    # {1, 1, 2} and {0, 2, 2}.
    pytest.param(3, 4, F2, 0, "Unique", id="3-4-f2-0"),
])
def test_search_asserts_the_paper_structure(monkeypatch, n, m, kind, coefficient, answer):
    kernel_of = graph_polys._kernel

    def perturbed_kernel(k):
        kernel = kernel_of(k)

        def perturbed(b, updates):
            coeffs, cards = kernel(b, updates)
            # The arcs are the nonzero off-diagonal entries.
            arcs = [(s, t) for s in range(n) for t in range(n) if s != t and b[s][t]]
            in_degrees = [sum(1 for _, t in arcs if t == v) for v in range(n)]
            # A shift that relabelling keeps but that differs between
            # classes, so equal decks can carry distinct values.
            shift = sum(d * d for d in in_degrees)
            coeffs = list(coeffs)
            coeffs[coefficient] += shift
            # The cards are left as they are, so every deck stays true.
            return coeffs, cards

        return perturbed

    monkeypatch.setattr(graph_polys, "_kernel", perturbed_kernel)
    with pytest.raises(AssertionError, match=f"group at n = {n}, m = {m}: the {answer} answer "
                                             "for its deck misses members"):
        find_deck_collisions(n, m, kind)


def adjugate_off_by_one(kernel_of, coefficient):
    """A kernel lookup whose kernels add 1 to `coefficient` (an index into
    the n + 1 coefficients) of every card, as an adjugate entry off by one
    would under the unit terms of f1 and f4: the polynomials stay right,
    the decks do not."""

    def faulty_kernel(kind):
        kernel = kernel_of(kind)

        def faulty(b, updates):
            coeffs, cards = kernel(b, updates)
            cards = [list(card) for card in cards]
            for card in cards:
                card[coefficient] += 1
            return coeffs, cards

        return faulty

    return faulty_kernel


@pytest.mark.parametrize("n, m, kind, coefficient, answer", [
    # Coefficient n - 1: the forced c_{n-1} breaks the trace rule.
    pytest.param(3, 3, F4, -2, "Inconsistent", id="3-3-f4"),
    pytest.param(4, 3, F1, -2, "Inconsistent", id="4-3-f1"),
    pytest.param(4, 4, F1, -2, "Inconsistent", id="4-4-f1"),
    pytest.param(5, 3, F1, -2, "Inconsistent", id="5-3-f1"),
    # Coefficient n - 2, forced and not the trace: the family's base is off.
    pytest.param(4, 3, F1, -3, "OneParameterFamily", id="4-3-f1-below-trace"),
])
def test_search_rejects_groups_whose_deck_misses_a_member(monkeypatch, n, m, kind,
                                                          coefficient, answer):
    # Each card gains 1 at one coefficient, so the signature no
    # longer satisfies the deck-sum identity with the members. A check of
    # only where members differ passes these groups.
    monkeypatch.setattr(graph_polys, "_kernel",
                        adjugate_off_by_one(graph_polys._kernel, coefficient))
    with pytest.raises(AssertionError, match=f"group at n = {n}, m = {m}: the {answer} "
                                             "answer for its deck misses"):
        find_deck_collisions(n, m, kind)


def test_paper_structure_rejects_any_group_at_m_equal_1():
    # Every single-arc digraph is isomorphic to every other, so no kernel
    # perturbation can make the search itself report an m = 1 group.
    arc, other = Digraph(3, ((0, 1),)), Digraph(3, ((1, 2),))
    members = ((arc, xpow(3)), (other, P(0, 0, 1, 1)))
    with pytest.raises(AssertionError, match=r"n = 3, m = 1: the Unique answer for its deck "
                                             r"misses members \[\(\(1, 2\),\)\]$"):
        search._check_group(Deck.from_polys(3, F1, [xpow(3)]), members)


NON_MONIC = "coeffs[:-1] + [2], cards"
ADJUGATE_OFF_BY_ONE = "coeffs, [[*c[:-2], c[-2] + 1, c[-1]] for c in cards]"


@pytest.mark.parametrize("n, m, broken, message", [
    pytest.param(3, 2, NON_MONIC, "monic of degree 3", id="3-2"),
    # No group is ever reported at m > n: the check must still see every
    # kernel output.
    pytest.param(3, 4, NON_MONIC, "monic of degree 3", id="3-4"),
    # The group check, as in test_search_rejects_groups_whose_deck_misses_a_member.
    pytest.param(4, 3, ADJUGATE_OFF_BY_ONE, "answer for its deck misses", id="adjugate-4-3"),
])
def test_search_monic_check_survives_python_O(n, m, broken, message):
    # Under -O a bare assert would vanish and a non-monic vector, or a
    # wrong deck, would key the groups unnoticed.
    script = textwrap.dedent(f"""
        from deckpoly import graph_polys, search

        kernel = graph_polys._kernel(graph_polys.F1)

        def broken(b, updates):
            coeffs, cards = kernel(b, updates)
            return {broken}

        graph_polys._kernel = lambda kind: broken
        try:
            search.find_deck_collisions({n}, {m}, graph_polys.F1)
        except AssertionError as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(graph_polys.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert message in proc.stdout


def reference_collisions(n, m, kind):
    """The search by definition: every labeled digraph's deck by deletion
    and its polynomial from poly_of, grouped in Fractions. The deck does not
    come from graph_polys.deck, which shares the search's column-linearity
    route."""
    groups = {}
    for g in enumerate_digraphs(n, m):
        signature = deletion_deck(g, kind)
        groups.setdefault(signature, {}).setdefault(poly_of(g, kind), g)
    return [CollisionGroup(Deck.from_polys(n, kind, signature),
                           tuple((groups[signature][p], p) for p in sorted(groups[signature])))
            for signature in sorted(groups) if len(groups[signature]) >= 2]


# Two general kinds whose integer pencil needs a scale L > 1.
GENERAL_PER = parse_kind("general:2/3,5/7,per")
ORACLE_KINDS = SIX_KINDS + (parse_kind("general:1/2,3/4,det"), GENERAL_PER)


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=graph_polys.kind_name)
def test_search_matches_the_reference_search(kind):
    cells = [(n, m) for n in (1, 2, 3) for m in range(n * (n - 1) + 1)]
    cells += [(4, m) for m in range(6)]
    if kind in (F1, GENERAL_PER):
        cells += [(5, m) for m in range(4)]
    if kind in (F1, F2, F4):
        # Both sides of 2m = 12, and the complete digraph.
        cells += [(4, 6), (4, 7), (4, 12)]
    found = 0
    for n, m in cells:
        groups = find_deck_collisions(n, m, kind)
        assert groups == reference_collisions(n, m, kind), (n, m)
        found += len(groups)
    assert found


def count_kernel_calls(monkeypatch):
    """Make every kernel call append its order to the returned list."""
    kernel_of = graph_polys._kernel
    calls = []

    def counting_kernel(k):
        kernel = kernel_of(k)

        def counted(b, updates):
            calls.append(len(b))
            return kernel(b, updates)

        return counted

    monkeypatch.setattr(graph_polys, "_kernel", counting_kernel)
    return calls


@pytest.mark.parametrize("kind", [F1, F4], ids=graph_polys.kind_name)
@pytest.mark.parametrize("n, m", [(4, 2), (4, 3), (4, 4), (4, 5), (5, 3)])
def test_search_calls_the_kernel_once_per_class(monkeypatch, kind, n, m):
    calls = count_kernel_calls(monkeypatch)
    find_deck_collisions(n, m, kind)
    assert len(calls) == digraph_classes(n, m)


def count_relabellings(monkeypatch):
    """Make every relabelling map the search draws append to the returned list."""
    made = []
    real_permutations = search.permutations

    def counted_permutations(*args):
        for p in real_permutations(*args):
            made.append(p)
            yield p

    monkeypatch.setattr(search, "permutations", counted_permutations)
    return made


@pytest.mark.parametrize("n, m, drawn", [
    pytest.param(n, m, drawn, id=f"{n}-{m}")
    for n, m, drawn in [(4, 10, 6), (4, 11, 0), (4, 12, 0), (9, 71, 0), (10, 90, 0)]])
def test_dense_cells_relabel_through_the_complement(monkeypatch, n, m, drawn):
    # A dense cell walks the complements, k = N - m arcs: no table when
    # k <= 1, and otherwise one of min(n, 2k - 1)! rows. Complementing keeps
    # classes, so the classes are counted on the complements.
    calls = count_kernel_calls(monkeypatch)
    made = count_relabellings(monkeypatch)
    slots = n * (n - 1)
    assert find_deck_collisions(n, m, F1) == []
    assert len(calls) == digraph_classes(n, slots - m)
    assert len(made) == drawn


@pytest.mark.parametrize("kind", [F1, F4], ids=graph_polys.kind_name)
@pytest.mark.parametrize("n", [7, 8, 9])
def test_sparse_cells_relabel_every_class(monkeypatch, kind, n):
    # For n >= 6 the 3-arc digraphs fall into 17 classes. All but the three
    # disjoint arcs touch at most 5 vertices, so the (n, 3) cell walks the
    # (5, 3) cell: one table of 5! rows, whatever n >= 6.
    calls = count_kernel_calls(monkeypatch)
    made = count_relabellings(monkeypatch)
    find_deck_collisions(n, 3, kind)
    assert len(calls) == 17
    assert len(made) == 120


def record_deck_calls(monkeypatch):
    """Make every graph_polys._pencil_cards call append its arcs to the
    returned list."""
    real = graph_polys._pencil_cards
    arc_lists = []

    def recorded(kind, n, arcs, terms, cards=True):
        arc_lists.append(list(arcs))
        return real(kind, n, arcs, terms, cards)

    monkeypatch.setattr(graph_polys, "_pencil_cards", recorded)
    return arc_lists


@pytest.mark.parametrize("n, m", [(4, 7), (4, 11), (5, 15)])
def test_dense_cells_complement_each_class_before_its_kernel_call(monkeypatch, n, m):
    # A dense cell walks complements, but every kernel call must see the m
    # arcs of a digraph of the cell; one fed the walked complement can still
    # return no group, since these cells have none. Complementing keeps
    # classes, so the sparse cell of the complements makes as many calls.
    arc_lists = record_deck_calls(monkeypatch)
    slots = all_arc_slots(n)
    find_deck_collisions(n, len(slots) - m, F1)
    classes = len(arc_lists)
    arc_lists.clear()
    assert find_deck_collisions(n, m, F1) == []
    assert len(arc_lists) == classes >= 1
    for arcs in arc_lists:
        assert len(arcs) == len(set(arcs)) == m
        assert set(arcs) <= set(slots)


@pytest.mark.parametrize("kind", [F1, F4], ids=graph_polys.kind_name)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_arcless_and_complete_cells_are_one_class_walks(monkeypatch, kind, n):
    arc_lists = record_deck_calls(monkeypatch)
    slots = all_arc_slots(n)
    for m in (0, len(slots)):
        arc_lists.clear()
        assert find_deck_collisions(n, m, kind) == []
        assert arc_lists == [list(slots) if m else []]


def test_cells_of_at_most_one_arc_read_no_budget_and_walk_nothing(monkeypatch):
    # One class, so nothing is walked and the budget, which bounds the walk,
    # is not read; a dense cell whose complements have at most one arc too.
    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(search, "combinations", walk)
    assert search.classes(1, 0, budget=0) == search.classes(5, 0, budget=0) == [()]
    assert search.classes(2, 1, budget=0) == search.classes(5, 1, budget=0) == [((0, 1),)]
    assert search.classes(3, 5, budget=0) == [tuple(all_arc_slots(3)[1:])]
    assert find_deck_collisions(5, 1, F1, budget=0) == []


@pytest.mark.parametrize("size", [0, 1, 6])
def test_lex_rank_follows_combinations(size):
    for k in range(size + 1):
        weights = search._lex_rank_weights(size, k)
        ranks = [sum(map(getitem, weights, c)) for c in combinations(range(size), k)]
        assert ranks == list(range(comb(size, k)))


# Unlabelled digraphs by (n, m), m = 0..n (OEIS A052283).
PUBLISHED_CLASS_COUNTS = {
    6: [1, 1, 5, 17, 76, 288, 1043],
    7: [1, 1, 5, 17, 79, 346, 1637, 6940],
    8: [1, 1, 5, 17, 80, 361, 1894, 9699, 48886],
}


@pytest.mark.parametrize("n", sorted(PUBLISHED_CLASS_COUNTS))
def test_burnside_count_matches_the_published_counts(n):
    assert [digraph_classes(n, m) for m in range(n + 1)] == PUBLISHED_CLASS_COUNTS[n]


@pytest.mark.parametrize("n, arc_counts", [
    (1, [0]), (2, range(3)), (3, range(7)), (4, range(13)), (5, range(7)), (6, range(6))])
def test_classes_meet_every_class_once(n, arc_counts):
    for m in arc_counts:
        assert len(search.classes(n, m)) == digraph_classes(n, m), (n, m)


def relabellings(n, arcs):
    """The sorted arc tuples of every relabelling of `arcs` on n vertices."""
    return {tuple(sorted((p[s], p[t]) for s, t in arcs)) for p in permutations(range(n))}


# Past n = 4, the sparse cells below: (5, 3) walks its own cell at
# n = 2m - 1; (6, 3) has n = 2m and walks (5, 3) plus the one class of
# three disjoint arcs; the others have m <= 1 and walk nothing, or
# n > 2m.
LEX_FIRST_ARC_COUNTS = {5: range(4), 6: [2, 3], 7: [3]}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_class_representatives_are_lex_first_or_complements_of_lex_first(n):
    # A sparse cell's witnesses are lex-first members among all n!
    # relabellings; a dense cell's representatives are the complements of
    # the sparse cell's.
    slots = all_arc_slots(n)
    for m in LEX_FIRST_ARC_COUNTS.get(n, range(len(slots) // 2 + 1)):
        sparse = search.classes(n, m)
        seen = set()
        for rep in sparse:
            members = relabellings(n, rep)
            assert rep == min(members) and not members & seen, (n, m, rep)
            seen |= members
        assert sorted(seen) == list(combinations(slots, m))
        assert search.classes(n, len(slots) - m) == (
            sparse if 2 * m == len(slots)
            else [tuple(arc for arc in slots if arc not in rep) for rep in sparse])


@pytest.mark.parametrize("n, m, budget, message", [
    (0, 0, 1, "vertex count must be >= 1, got 0"),
    (-1, 0, 1, "vertex count must be >= 1, got -1"),
    (3, 7, 10, r"arc count 7 outside \[0, 6\]"),
    (3, -1, 10, r"arc count -1 outside \[0, 6\]"),
    (4, 4, 100, "enumerating 495 digraphs exceeds the budget of 100"),
    # (4, 10) walks its complements' cell (4, 2), which walks (3, 2). The id
    # keeps this case's earlier parameters, so that the test id stays stable.
    pytest.param(4, 10, 14, "enumerating 15 digraphs exceeds the budget of 14",
                 id="4-10-65-enumerating 66 digraphs exceeds the budget of 65"),
])
def test_classes_raise_at_the_call(n, m, budget, message):
    # The call alone raises: nothing has to iterate the result.
    with pytest.raises(ValueError, match=message):
        search.classes(n, m, budget)


@pytest.mark.parametrize("n, m", [(5, 2), (6, 2), (7, 3), (8, 3), (9, 2)])
def test_cells_with_more_than_2m_vertices_walk_2m_vertices(n, m):
    # Every m-arc digraph touches at most 2m vertices, so the classes of the
    # (n, m) cell are those of the (2m, m) cell on the first 2m vertices,
    # with the same arcs.
    reps = search.classes(n, m)
    assert reps == search.classes(2 * m, m)
    assert len(reps) == digraph_classes(n, m)


def padded(group, n):
    """A collision group of the (2m, m) cell with isolated vertices added up
    to n: n - 2m leading zeros on every deck row and polynomial, the same
    witness arcs on n vertices."""
    d, shift = group.deck, n - group.deck.n
    rows = [(0,) * shift + row for row in d.coefficients]
    return CollisionGroup(Deck(d.kind, rows, (1,) * shift + d.denominators),
                          tuple((Digraph(n, g.arcs), P(*([0] * shift), *p))
                                for g, p in group.members))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", SIX_KINDS, ids=["f1", "f2", "f3", "f4", "f5", "f6"])
def test_cells_with_at_least_2m_vertices_are_the_2m_cell_padded(kind, m):
    # The padding lemma in search's docstring, up to the permanent cap.
    groups = find_deck_collisions(2 * m, m, kind)
    assert groups
    for n in (*range(2 * m + 1, 2 * m + 9), 16):
        assert find_deck_collisions(n, m, kind) == [padded(group, n) for group in groups]


def test_group_counts_on_the_cells_that_decide_every_n():
    # With the padding lemma (n > 2m) and reconstruct's Unique answer at
    # m > n, these cells fix the groups at every n for m <= 3: f1 and f4
    # collide in floor(m/2) groups from n = max(m, 3) on, the other kinds in
    # one group from n = m + 1 on, and every group holds two polynomials
    # but f5's and f6's at m = 2, which hold three.
    for m in (2, 3):
        for n in range(m, 2 * m + 1):
            for kind in SIX_KINDS:
                name = graph_polys.kind_name(kind)
                if name in ("f1", "f4"):
                    count = m // 2 if n >= max(m, 3) else 0
                else:
                    count = 1 if n > m else 0
                size = 3 if name in ("f5", "f6") and m == 2 else 2
                groups = find_deck_collisions(n, m, kind)
                sizes = [(len(g.members), len({p for _, p in g.members})) for g in groups]
                assert sizes == [(size, size)] * count, (n, m, name)


def test_classes_refuse_a_relabelling_table_past_its_bound_before_building_it(monkeypatch):
    # (11, 6) walks on 11 vertices, and its table would hold 11! * 110
    # entries: more than the raised budget that admits the cell's
    # comb(110, 6) digraphs.
    def build(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(search, "permutations", build)
    with pytest.raises(ValueError, match="a relabelling table of 4390848000 entries exceeds "
                                         "the bound of 2141851635"):
        search.classes(11, 6, budget=comb(110, 6))


def test_classes_build_a_relabelling_table_of_exactly_its_bound(monkeypatch):
    # A budget of 11! * 110 admits (11, 6) and a table of as many entries;
    # the table is started (and stopped here before it takes 4.4 GB).
    class Built(Exception):
        pass

    def build(*args):
        raise Built

    monkeypatch.setattr(search, "permutations", build)
    with pytest.raises(Built):
        search.classes(11, 6, budget=factorial(11) * 110)


def test_default_budget_admits_the_7_7_cell_and_refuses_8_6_before_walking(monkeypatch):
    assert search.DEFAULT_BUDGET == comb(42, 7) < comb(56, 6) == 32_468_436

    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(search, "combinations", walk)
    monkeypatch.setattr(search, "_lex_rank_weights", walk)
    with pytest.raises(ValueError, match="enumerating 32468436 digraphs exceeds the budget "
                                         "of 26978328"):
        search.classes(8, 6)
    with pytest.raises(ValueError, match="exceeds the budget"):
        find_deck_collisions(8, 6, F1)
