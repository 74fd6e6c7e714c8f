"""Loopless simple digraphs with optional nonzero rational arc weights.

Vertices are 0-indexed integers. Arc order is preserved as given; an
absent `weights` means every arc has weight 1. Digraph values are
immutable and hashable, so they can key caches and appear in reports
directly.

`Frozen` is the base of every value type deckpoly exports (Digraph,
PolyKind, Deck, the reconstruction results and the reports): a slotted
class whose fields are its `__slots__`, built from them, compared,
hashed, printed and pickled as the tuple of their values. A record
declares only its `__slots__`; a type that normalizes or validates its
fields (Digraph, PolyKind, Deck) writes its own `__init__` and sets them
with `_set`. It is plain code with one `operator.attrgetter` per class:
defining the types generates no code and loads no further module, costs
every CLI run would pay at startup.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations, repeat
from operator import attrgetter, index

# Assigns a field of a Frozen instance; only constructors call it.
_set = object.__setattr__


class Frozen:
    """An immutable value: its fields are the subclass's `__slots__`, in
    order. The constructor binds positional values, then keyword values,
    to the fields in that order, and raises TypeError for a missing,
    extra, repeated or unknown field; a subclass that normalizes its
    fields replaces it with its own `__init__`, which sets them with
    `_set`. Instances are equal only to instances of the same class with
    equal fields and hash like their field tuple. Assignment and deletion
    raise AttributeError. Copies and pickles call the class again on the
    field values, so whatever `__init__` normalizes is normalized again
    and must come out unchanged."""

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in slots[len(values):] if name in named)
            if named:
                raise TypeError(f"{self.__class__.__qualname__}() got repeated or unknown "
                                f"fields {sorted(named)}")
        if len(values) != len(slots):
            raise TypeError(f"{self.__class__.__qualname__}() takes values for {slots}, "
                            f"got {len(values)}")
        # _set returns None, so any() runs it once for every field.
        any(map(_set, repeat(self), slots, values))

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the value itself, not a 1-tuple.
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


class InvalidDigraphError(ValueError):
    """A digraph value violates a structural invariant; the message says
    which."""


def _integer(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


class Digraph(Frozen):
    """n vertices, `arcs` a tuple of (source, target) int pairs, `weights`
    a parallel tuple of Fractions or None. The constructor takes any
    iterables and integer-like values (int, bool, anything with
    __index__); a float or str endpoint raises TypeError. It does not
    validate: see validate."""

    __slots__ = ("n", "arcs", "weights")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = (),
                 weights: Iterable[Fraction] | None = None):
        _set(self, "n", _integer(n, "vertex count"))
        _set(self, "arcs", tuple((_integer(s, "arc source"), _integer(t, "arc target"))
                                 for s, t in arcs))
        _set(self, "weights", None if weights is None else tuple(map(Fraction, weights)))

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
        raise InvalidDigraphError(f"vertex count must be >= 1, got {g.n}")
    if g.weights is not None and len(g.weights) != g.m:
        raise InvalidDigraphError(f"{len(g.weights)} weights for {g.m} arcs")
    seen = set()
    for s, t in g.arcs:
        if not (0 <= s < g.n and 0 <= t < g.n):
            raise InvalidDigraphError(f"arc ({s}, {t}) outside vertex range [0, {g.n})")
        if s == t:
            raise InvalidDigraphError(f"loop at vertex {s}")
        if (s, t) in seen:
            raise InvalidDigraphError(f"arc ({s}, {t}) repeated")
        seen.add((s, t))
    for w in g.arc_weights():
        if w == 0:
            raise InvalidDigraphError("arc weights must be nonzero")


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


def cell_slots(n: int, m: int) -> list[tuple[int, int]]:
    """all_arc_slots(n) for the cell of digraphs with n vertices and m arcs;
    n < 1 or m outside [0, n(n-1)] raises ValueError."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    slots = all_arc_slots(n)
    if not 0 <= m <= len(slots):
        raise ValueError(f"arc count {m} outside [0, {len(slots)}]")
    return slots


def enumerate_digraphs(n: int, m: int):
    """Yield every labeled loopless simple digraph with n vertices and m arcs.

    Output order is lexicographic over arc sets and therefore deterministic.
    """
    for subset in combinations(cell_slots(n, m), m):
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
