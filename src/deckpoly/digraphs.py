"""Loopless simple digraphs with optional nonzero rational arc weights.

Vertices are 0-indexed. Arc order is preserved as given; an absent
`weights` means every arc has weight 1. Digraph values are immutable and
hashable, so they can key caches and appear in reports directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


class InvalidDigraphError(ValueError):
    """A digraph value violates a structural invariant.

    `reason` is one of: "vertex-count", "index-out-of-range", "loop-found",
    "duplicate-arc", "weight-count-mismatch", "zero-weight".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: tuple[tuple[int, int], ...] = ()
    weights: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple((int(s), int(t)) for s, t in self.arcs))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))

    @property
    def m(self) -> int:
        return len(self.arcs)

    def arc_weights(self) -> tuple[Fraction, ...]:
        if self.weights is not None:
            return self.weights
        return (Fraction(1),) * self.m


def validate(g: Digraph) -> None:
    """Check every invariant; raise InvalidDigraphError on the first violation."""
    if g.n < 1:
        raise InvalidDigraphError("vertex-count", f"vertex count must be >= 1, got {g.n}")
    if g.weights is not None and len(g.weights) != g.m:
        raise InvalidDigraphError(
            "weight-count-mismatch",
            f"{len(g.weights)} weights for {g.m} arcs",
        )
    seen = set()
    for s, t in g.arcs:
        if not (0 <= s < g.n and 0 <= t < g.n):
            raise InvalidDigraphError(
                "index-out-of-range", f"arc ({s}, {t}) outside vertex range [0, {g.n})"
            )
        if s == t:
            raise InvalidDigraphError("loop-found", f"loop at vertex {s}")
        if (s, t) in seen:
            raise InvalidDigraphError("duplicate-arc", f"arc ({s}, {t}) repeated")
        seen.add((s, t))
    for w in g.arc_weights():
        if w == 0:
            raise InvalidDigraphError("zero-weight", "arc weights must be nonzero")


def adjacency(g: Digraph) -> list[list[Fraction]]:
    """Weight of arc (i, j) at entry (i, j); zero elsewhere (and on the diagonal)."""
    a = [[Fraction(0)] * g.n for _ in range(g.n)]
    for (s, t), w in zip(g.arcs, g.arc_weights()):
        a[s][t] = w
    return a


def in_degrees(g: Digraph) -> list[Fraction]:
    """Total weight of arcs entering each vertex (plain count when unweighted)."""
    d = [Fraction(0)] * g.n
    for (_, t), w in zip(g.arcs, g.arc_weights()):
        d[t] += w
    return d


def delete_arc(g: Digraph, e: int) -> Digraph:
    """Same vertex set with arc e removed."""
    if not 0 <= e < g.m:
        raise IndexError(f"arc index {e} outside [0, {g.m})")
    weights = None if g.weights is None else g.weights[:e] + g.weights[e + 1:]
    return Digraph(g.n, g.arcs[:e] + g.arcs[e + 1:], weights)


def all_arc_slots(n: int) -> list[tuple[int, int]]:
    """The n*(n-1) possible arcs on n vertices, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def enumerate_digraphs(n: int, m: int):
    """Yield every labeled loopless simple digraph with n vertices and m arcs.

    Output order is lexicographic over arc sets and therefore deterministic.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    slots = all_arc_slots(n)
    if not 0 <= m <= len(slots):
        raise ValueError(f"arc count {m} outside [0, {len(slots)}]")
    for subset in combinations(slots, m):
        yield Digraph(n, subset)


def directed_cycle(n: int) -> Digraph:
    """Arcs 0->1->...->n-1->0."""
    if n < 2:
        raise ValueError("a directed cycle needs at least 2 vertices")
    return Digraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def directed_path(n: int) -> Digraph:
    """Arcs 0->1->...->n-1."""
    if n < 1:
        raise ValueError("a directed path needs at least 1 vertex")
    return Digraph(n, tuple((i, i + 1) for i in range(n - 1)))
