"""Exhaustive deck-collision search over small labeled digraphs.

Two digraphs collide when their decks agree as multisets of coefficient
vectors but their own polynomials differ. Deck signatures are the sorted
coefficient-vector multisets themselves and group membership is decided
by full equality, so a reported collision can never be a lossy-hash
artifact.

Every deck member of an (n, m)-digraph is the polynomial of an
(n, m-1)-digraph, and each of those is shared by up to n*(n-1) - m + 1
decks. So a sweep computes the polynomial of every (n, m-1)-digraph once
into a table keyed by arc tuple, and a signature is m table lookups; it
does not call graph_polys.deck, whose per-digraph work has nothing to
share. The paper's structure is asserted on the result: members of a
group differ only at coefficient n-m, and no group exists for m > n or
m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .digraphs import Digraph, directed_cycle, directed_path, enumerate_digraphs
from .graph_polys import PolyKind, poly_of
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
    table = {h.arcs: poly_of(h, kind) for h in enumerate_digraphs(n, m - 1)}
    groups: dict[DeckSignature, dict[Polynomial, Digraph]] = {}
    for g in enumerate_digraphs(n, m):
        arcs = g.arcs
        # Arc tuples come out of enumerate_digraphs sorted, so dropping one
        # arc gives the key of an (n, m-1)-digraph in the table.
        signature = tuple(sorted(table[arcs[:e] + arcs[e + 1:]] for e in range(m)))
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
