"""Exhaustive deck-collision search over small labeled digraphs.

Two digraphs collide when their decks agree as multisets of coefficient
vectors but their own polynomials differ. Deck signatures are the sorted
coefficient-vector multisets themselves and group membership is decided
by full equality, so a reported collision can never be a lossy-hash
artifact.

Every deck member of an (n, m)-digraph is the polynomial of an
(n, m-1)-digraph, and each of those is shared by up to n*(n-1) - m + 1
decks. So a sweep computes the polynomial of every (n, m-1)-digraph once
into a table keyed by arc tuple, and a signature is m table lookups. It
calls neither graph_polys.deck, whose per-digraph work has nothing to
share, nor poly_of: every unweighted arc adds the same integer terms to
the pencil L*(beta*D + gamma*A) under one scale L per kind, so each arc
tuple goes straight to graph_polys' integer seam (_pencil_coefficients)
with that one term pair, and the table, the signatures and the groups are
keyed on the kernel's scaled int vectors. Coefficient k is scaled by
L^(n-k) > 0, which keeps both equality and lexicographic order, so the
groups and their order are those of the polynomials. Digraph values and
Fraction polynomials are built only for the groups reported.

The seam checks every kernel output to be monic of degree n, and the
paper's structure is asserted on the result: members of a group differ
only at coefficient n-m, and no group exists for m > n or m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb

from . import graph_polys
from .digraphs import Digraph, all_arc_slots, directed_cycle, directed_path
from .graph_polys import PolyKind
from .polynomials import Polynomial

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class CollisionGroup:
    """Digraphs sharing one deck signature but carrying >= 2 distinct
    polynomials. `members` keeps one witness digraph per distinct
    polynomial value, sorted by polynomial."""

    kind: PolyKind
    n: int
    m: int
    deck_signature: tuple[Polynomial, ...]
    members: tuple[tuple[Digraph, Polynomial], ...]


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
    by polynomial. The enumeration size comb(n*(n-1), m) must stay within
    `budget`, and n within the polynomial size cap of the kind's mode.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    graph_polys._check_cap(n, kind)
    slots = all_arc_slots(n)
    if not 0 <= m <= len(slots):
        raise ValueError(f"arc count {m} outside [0, {len(slots)}]")
    total = comb(len(slots), m)
    if total > budget:
        raise ValueError(f"enumerating {total} digraphs exceeds the budget of {budget}")
    if m == 0:
        return []
    # Every unweighted arc carries the same integer terms under one scale.
    scale, [term] = graph_polys._arc_terms(kind, [Fraction(1)])

    def coefficients(arcs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
        return tuple(graph_polys._pencil_coefficients(kind, n, arcs, repeat(term), {})[0])

    table = {arcs: coefficients(arcs) for arcs in combinations(slots, m - 1)}
    groups: dict[tuple[tuple[int, ...], ...], dict[tuple[int, ...], tuple]] = {}
    for arcs in combinations(slots, m):
        # Arc tuples come out of combinations sorted, so dropping one arc
        # gives the key of an (n, m-1)-digraph in the table.
        signature = tuple(sorted(table[arcs[:e] + arcs[e + 1:]] for e in range(m)))
        # First witness per polynomial value wins; later isomorphic
        # duplicates collapse onto it.
        groups.setdefault(signature, {}).setdefault(coefficients(arcs), arcs)
    out = []
    for signature in sorted(groups):
        by_poly = groups[signature]
        if len(by_poly) < 2:
            continue
        deck_signature = tuple(graph_polys._unscaled(c, scale, n) for c in signature)
        members = tuple((Digraph(n, by_poly[c]), graph_polys._unscaled(c, scale, n))
                        for c in sorted(by_poly))
        out.append(CollisionGroup(kind, n, m, deck_signature, members))
    _check_paper_structure(out, n, m)
    return out


def _check_paper_structure(groups: list[CollisionGroup], n: int, m: int) -> None:
    """The deck-sum identity (m - n + k) * c_k = s_k forces every coefficient
    but c_{n-m} from the deck, so colliding members may differ only there,
    and not at all when m > n. At m = 1 the trace rule fixes c_{n-1} too.
    A violation is a bug, raised even under -O."""
    if (m > n or m == 1) and groups:
        raise AssertionError(f"{len(groups)} collision groups at n = {n}, m = {m}; "
                             "none exist for m > n or m = 1")
    for group in groups:
        first = group.members[0][1]
        for _, p in group.members[1:]:
            diff = [k for k, (a, b) in enumerate(zip(first, p)) if a != b]
            if diff != [n - m]:
                raise AssertionError(
                    f"collision group members differ at coefficients {diff}, "
                    f"expected only {n - m}")
