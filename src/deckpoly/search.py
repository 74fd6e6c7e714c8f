"""Exhaustive deck-collision search over small labeled digraphs.

Two digraphs collide when their decks agree as multisets of coefficient
vectors but their own polynomials differ. Deck signatures are the sorted
coefficient-vector multisets themselves and group membership is decided
by full equality, so a reported collision can never be a lossy-hash
artifact.

The sweep calls neither graph_polys.deck nor poly_of. Per class those
would build a Digraph and its Fraction weights, run _arc_terms on them,
put the cards in the Deck canonical form, and call the kernel a second
time for the polynomial. Instead, every unweighted arc adds the same
integer terms to the pencil L*(beta*D + gamma*A) under one scale L per
kind, so an arc tuple goes straight to graph_polys._pencil_cards with
that one term pair. One card kernel call gives the digraph's own
coefficients and, by column linearity, one card per arc, its whole deck,
and the signatures and groups are keyed on those scaled int vectors.
Coefficient k is scaled by L^(n-k) > 0, which keeps both equality and
lexicographic order, so the groups and their order are those of the
polynomials. Digraph values and Fraction polynomials are built only for
the groups reported.

The kernel runs once per relabelling class: a polynomial and a deck
multiset do not change when the vertices are relabelled, so the sweep
groups one representative per class, from classes(n, m). That walk over
the cell does not depend on the kind; its docstring says how it runs and
which member represents a class. A cell with m >= 2 and n >= 2m walks the
(2m - 1, m) cell and adds one class (the step below).

Lemma (padding). For n >= 2m, every (n, m) collision group is a (2m, m)
group with every polynomial and deck member times x^(n-2m), and with the
same witnesses. Proof: an isolated vertex v has no arc, so its in-degree
is 0 and its row and column of x*I - beta*D - gamma*A are x*e_v;
expanding det or per along that row gives x times the polynomial without
v, and deleting an arc leaves v isolated, so every card gains the same
factor x. An m-arc digraph touches at most 2m vertices, so up to
relabelling each (n, m) digraph is a (2m, m) digraph with n - 2m
isolated vertices, and its polynomial and deck are that digraph's times
x^(n-2m). Multiplying by x^(n-2m) is injective and keeps the
lexicographic order of coefficient vectors, so it maps the (2m, m)
groups one to one onto the (n, m) groups, in the same order; and
classes(n, m) yields the representatives of classes(2m, m) in the same
order, so each group keeps its witnesses, on n vertices.

The (2m - 1, m) step. For m >= 2 and n >= 2m, the representatives of
classes(n, m) are those of classes(2m - 1, m) plus the m disjoint arcs
M = ((0, 1), (2, 3), ..., (2m - 2, 2m - 1)), in sorted order. Proof: an
m-arc digraph touches 2m vertices only when no two of its arcs share a
vertex, and all such digraphs form one class, whose lex-first member is
M: (0, 1) is the least arc, and after (0, 1), ..., (2k - 2, 2k - 1) the
least arc on two untouched vertices is (2k, 2k + 1). Every other class
touches at most 2m - 1 vertices, and its lex-first member touches only
the first of them (classes' docstring), so it is the lex-first member of
a (2m - 1, m) class, on the first 2m - 1 vertices; two digraphs there
are relabellings of each other on n vertices exactly when they are on
2m - 1, since a relabelling maps touched vertices onto touched vertices.
Lex order on arcs does not depend on n, so sorting places M where the
walk of the (n, m) cell would meet it.

The seam checks every kernel output to be monic of degree n, and every
reported group is checked against its deck: reconstruct reads the
signature as a Deck, and each member's polynomial must be recovered or
covered by the answer. So each member satisfies the deck-sum identity
against the signature, the members differ only at the coefficient the
deck leaves free (c_{n-m}), and no group is reported where reconstruct
pins every coefficient: m > n, m = 1, and m = n for a det kind with
beta = -gamma. Nor is a group reported whose signature forces a c_{n-1}
that breaks the trace rule, c_{n-1} = -beta*m for these unweighted
digraphs: reconstruct answers Inconsistent, which misses every member. A
deck read off one kernel call keeps the identity only if the kernel's
coefficients agree with its cards, so a faulty kernel that yields a
group is caught there. The check sees only the
groups: a faulty kernel that yields none, or loses a true one, is caught
only by the pinned search digests.

When beta = 0 (f1, f4), the coefficient that may differ is, by the
corollary in graph_polys' module docstring, (-1)^c * prod(gamma * w_e) in
det mode and (-1)^m * prod(gamma * w_e) in per mode when the m <= n arcs
are c vertex-disjoint directed cycles, and 0 otherwise. So an f1 or f4
collision at m <= n is a set of digraphs with one deck that differ in
whether their arcs are disjoint cycles or, under f1, in the parity of the
cycle count; canonical_counterexample is such a pair.
"""

from __future__ import annotations

from itertools import combinations, compress, permutations
from math import comb, factorial
from operator import getitem

from . import graph_polys, polynomials
from .digraphs import Digraph, Frozen, cell_slots, directed_cycle, directed_path
from .graph_polys import Deck, PolyKind
from .reconstruct import outcome, reconstruct

# comb(42, 7), the (7, 7) cell: 26.1-34.1 s per kind and 42 MB peak RSS on a
# 2-core host, Python 3.11. The walk keeps one byte per labelled digraph.
DEFAULT_BUDGET = comb(42, 7)

# A digraph of a cell as its sorted arcs (s, t).
Arcs = tuple[tuple[int, int], ...]


class CollisionGroup(Frozen):
    """Digraphs sharing one deck but carrying >= 2 distinct polynomials.
    `deck` is that Deck, whose kind, n and member count (m) are the
    group's; `members` keeps one (digraph, polynomial) witness per distinct
    polynomial value, sorted by polynomial."""

    __slots__ = ("deck", "members")


def canonical_counterexample(n: int) -> tuple[Digraph, Digraph]:
    """The classic colliding pair on n vertices and n arcs: the directed
    n-cycle, and the directed path 0->1->...->n-1 plus the arc (0, n-1).

    Both decks are n copies of x^n, yet the characteristic and permanental
    polynomials differ. At n = 2 the second arc set collapses onto the
    path arc, so the construction only exists for n >= 3.
    """
    if n < 3:
        raise ValueError(f"the counterexample pair needs n >= 3, got {n}")
    cycle = directed_cycle(n)
    rival = Digraph(n, directed_path(n).arcs + ((0, n - 1),))
    return cycle, rival


def find_deck_collisions(n: int, m: int, kind: PolyKind,
                         budget: int = DEFAULT_BUDGET) -> list[CollisionGroup]:
    """Group every labeled (n, m)-digraph by deck signature and report the
    groups holding at least two distinct polynomials.

    Output order is canonical: groups sorted by signature, members sorted
    by polynomial. The labelled digraphs of the cell that classes(n, m)
    walks must stay within `budget`, and n within the polynomial size cap
    of the kind's mode.
    """
    graph_polys._check_cap(n, kind)
    # Every unweighted arc carries the same integer terms under one scale.
    scale, [term] = graph_polys._arc_terms(kind, [1])
    terms = [term] * m
    groups: dict[tuple[tuple[int, ...], ...], dict[tuple[int, ...], Arcs]] = {}
    for arcs in classes(n, m, budget):
        coeffs, deck = graph_polys._pencil_cards(kind, n, arcs, terms)
        groups.setdefault(tuple(sorted(map(tuple, deck))), {}).setdefault(tuple(coeffs), arcs)
    out = []
    for signature in sorted(groups):
        by_poly = groups[signature]
        if len(by_poly) < 2:
            continue
        # Coefficient k of a row is its entry over L^(n-k) (see _unscaled).
        deck = Deck(kind, signature, [scale ** (n - k) for k in range(n + 1)])
        members = tuple((Digraph(n, by_poly[c]), graph_polys._unscaled(c, scale, n))
                        for c in sorted(by_poly))
        _check_group(deck, members)
        out.append(CollisionGroup(deck, members))
    return out


def classes(n: int, m: int, budget: int = DEFAULT_BUDGET) -> list[Arcs]:
    """One member of each relabelling class of the (n, m)-digraphs, as a
    sorted tuple of arcs (s, t), in the order the walk meets them.

    The walk runs over the m-subsets of the N = n(n-1) arcs of
    all_arc_slots(n) in the lex order of itertools.combinations, and ranks
    each by the sorted tuple of its slots (indices into that list). It
    skips every subset whose class it has already met (a bytearray by
    rank); otherwise it keeps the subset and marks its class. It reads the
    relabellings off one table per cell: a bytes row per permutation of
    range(n), in lex order, whose entry i is the slot of slot i's image. A
    kept subset touches the vertices 0..v-1 (below), and the permutations
    that agree on those come in blocks of (n - v)!, so the subset's class
    is read off every (n - v)!-th row: n!/(n-v)! images, each member met
    once per automorphism of its touched part. The table has n!*N one-byte
    entries and is refused past max(budget, DEFAULT_BUDGET) of them: the
    default admits n <= 9, so every cell the default budget admits gets
    its table, and a raised budget never lets the table outgrow it. The
    budget bounds the walk.

    A dense cell (2m > N) returns the complements of classes(n, N - m):
    complementing keeps classes, and the complements touch fewer vertices.
    Choosing the side per digraph instead would save images only where at
    least two vertices carry all 2(n-1) walked arcs, and more vertices than
    carry none: n >= 8 and 4n - 6 walked arcs or more, cells of at least
    comb(56, 26) ~ 6.6e15 digraphs.

    On a sparse cell each representative is the lex-first member of its
    class, and the classes come in the order of their lex-first members.
    The lex-first member touches only 0..v-1: relabelling a touched w with
    an untouched u < w lowers every arc at w and raises none. A cell with
    m <= 1 is one class, walked by nothing. A cell with m >= 2 and n >= 2m
    returns the (2m - 1, m) classes plus the m disjoint arcs
    (0, 1), (2, 3), ..., (2m - 2, 2m - 1), in sorted order (the
    (2m - 1, m) step in the module docstring): lex order on arcs does not
    depend on n, so the representatives and their order are the same.
    Keeping, per value of a class invariant, the first representative that
    has it keeps the first labelled digraph that combinations yields with
    it: the witness of a labelled sweep. On a dense cell a representative
    is the complement of the lex-first member of the complement class,
    which need not be the lex-first member of its own.
    For n >= 3 a dense cell has m > n, where the deck fixes every
    coefficient and no collision group exists, and its one case with
    m <= n, (2, 2), holds a single digraph.

    The budget counts the labelled digraphs of the cell that is walked:
    comb(N, m) of a sparse cell with 2 <= m and n < 2m, and those of the
    (2m - 1, m) cell for a sparse cell with n >= 2m, so (17, 4) counts the
    comb(42, 4) = 111,930 of (7, 4), not comb(272, 4). A dense cell counts
    the cell its complements walk. A cell with m <= 1 (or N - m <= 1 when
    dense) walks nothing, so the budget is not read. n < 1, m outside
    [0, N], more than `budget` labelled digraphs and a table past its bound
    raise ValueError at the call.
    """
    slots = cell_slots(n, m)
    if 2 * m > len(slots):
        return [tuple(sorted(set(slots).difference(c))) for c in classes(n, len(slots) - m, budget)]
    if m <= 1:
        return [tuple(slots[:m])]
    if n >= 2 * m:
        matching = tuple((v, v + 1) for v in range(0, 2 * m, 2))
        return sorted(classes(2 * m - 1, m, budget) + [matching])
    total = comb(len(slots), m)
    if total > budget:
        raise ValueError(f"enumerating {total} digraphs exceeds the budget of {budget}")
    size, bound = factorial(n) * len(slots), max(budget, DEFAULT_BUDGET)
    if size > bound:
        raise ValueError(f"a relabelling table of {size} entries exceeds the bound of {bound}")
    # slot_of[s][t] is the index of arc (s, t) in slots, for s != t.
    slot_of = [[s * (n - 1) + t - (t > s) for t in range(n)] for s in range(n)]
    # Row k, the slot map of the k-th permutation in lex order, is
    # table[k*N:(k+1)*N], so table[i::N*j] is slot i's image in every j-th row.
    table = b"".join(bytes([slot_of[p[s]][p[t]] for s, t in slots]) for p in permutations(range(n)))
    weights = _lex_rank_weights(len(slots), m)
    # m-subsets of the slots by lex rank: 1 until their class has been walked.
    fresh = bytearray(b"\x01") * total
    out = []
    # compress reads `fresh` as it goes, so the members of a class walked
    # below are skipped when combinations reaches them.
    for subset in compress(combinations(slots, m), fresh):
        step = len(slots) * factorial(n - len({v for arc in subset for v in arc}))
        for image in zip(*[table[slot_of[s][t]::step] for s, t in subset]):
            fresh[sum(map(getitem, weights, sorted(image)))] = 0
        out.append(subset)
    return out


def _lex_rank_weights(size: int, k: int) -> list[list[int]]:
    """Weights w with sum(w[i][c_i]) the rank of the sorted k-subset c of
    range(size) in the lex order that itertools.combinations walks: by the
    combinatorial number system, comb(size, k) - 1 - sum comb(size-1-c_i, k-i)."""
    weights = [[-comb(size - 1 - c, k - i) for c in range(size)] for i in range(k)]
    if weights:
        weights[0] = [comb(size, k) - 1 + w for w in weights[0]]
    return weights


def _check_group(deck: Deck, members: tuple[tuple[Digraph, polynomials.Polynomial], ...]) -> None:
    """Raise unless the reconstruction of the group's deck recovers or
    covers every member's polynomial. A miss is a bug, raised even under -O."""
    result = reconstruct(deck)
    missed = [g.arcs for g, p in members if outcome(result, p) == "missed"]
    if missed:
        raise AssertionError(f"collision group at n = {deck.n}, m = {len(deck.coefficients)}: the "
                             f"{type(result).__name__} answer for its deck misses members {missed}")
