"""Exhaustive deck-collision search over small labeled digraphs.

Two digraphs collide when their decks agree as multisets of coefficient
vectors but their own polynomials differ. Deck signatures are the sorted
coefficient-vector multisets themselves and group membership is decided
by full equality, so a reported collision can never be a lossy-hash
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .digraphs import Digraph, directed_cycle, directed_path, enumerate_digraphs
from .graph_polys import PolyKind, deck, poly_of
from .polynomials import Polynomial

DEFAULT_BUDGET = 10**6

DeckSignature = tuple[Polynomial, ...]


@dataclass(frozen=True)
class CollisionGroup:
    """Digraphs sharing one deck signature but carrying >= 2 distinct
    polynomials. `members` keeps one witness digraph per distinct
    polynomial value, sorted by polynomial."""

    kind: PolyKind
    n: int
    m: int
    deck_signature: DeckSignature
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
    `budget`.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    slots = n * (n - 1)
    if not 0 <= m <= slots:
        raise ValueError(f"arc count {m} outside [0, {slots}]")
    total = comb(slots, m)
    if total > budget:
        raise ValueError(f"enumerating {total} digraphs exceeds the budget of {budget}")
    if m == 0:
        return []
    groups: dict[DeckSignature, dict[Polynomial, Digraph]] = {}
    for g in enumerate_digraphs(n, m):
        signature = deck(g, kind).polys
        p = poly_of(g, kind)
        # First witness per polynomial value wins; later isomorphic
        # duplicates collapse onto it.
        groups.setdefault(signature, {}).setdefault(p, g)
    out = []
    for signature in sorted(groups):
        by_poly = groups[signature]
        if len(by_poly) < 2:
            continue
        members = tuple((by_poly[p], p) for p in sorted(by_poly))
        out.append(CollisionGroup(kind, n, m, signature, members))
    return out
