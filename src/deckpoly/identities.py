"""Exact machine checks for the zeroed-entry and deck-sum identities.

Each check computes both sides of one identity on a concrete instance and
reports them verbatim. Everything is exact rational arithmetic; there is
no tolerance anywhere. Violation reports carry the full instance so any
failure can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import digraphs, matrices, polynomials, serialize
from .digraphs import Digraph
from .graph_polys import PolyKind, kind_name, poly_of
from .matrices import Matrix


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    instance: dict
    lhs: object
    rhs: object
    holds: bool

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"


def _entries(matrix: Matrix, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n)]


def _support(matrix: Matrix, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i, j in _entries(matrix, n) if matrix[i][j] != 0]


def _check_zeroing(identity: str, matrix: Matrix, kernel, core, select) -> IdentityReport:
    """(len(positions) - n) * kernel(X) == sum of core(X_ij) over (i, j) in
    positions = select(X, n); kernel(X) is the only validation of X."""
    base = kernel(matrix)
    n = len(matrix)
    positions = select(matrix, n)
    lhs = (len(positions) - n) * base
    # Each zeroed copy is evaluated from scratch: a cofactor shortcut,
    # det(X_ij) = det(X) - x_ij * C_ij, is the linearity the theorems are
    # proved from and would make the check a tautology, as in check_thm31.
    rhs = 0
    for i, j in positions:
        rows = [list(row) for row in matrix]
        rows[i][j] = 0
        rhs += core(rows, n)
    instance = {"matrix": serialize.matrix_to_strings(matrix)}
    return IdentityReport(identity, instance, lhs, rhs, lhs == rhs)


def check_thm21(matrix: Matrix) -> IdentityReport:
    """(n^2 - n) * det(X) == sum of det(X with one entry zeroed), over all entries."""
    return _check_zeroing("2.1", matrix, matrices.det_bareiss, matrices._det_bareiss, _entries)


def check_thm22(matrix: Matrix) -> IdentityReport:
    """(m - n) * det(X) == sum of det(X_ij) over the m nonzero entries only."""
    return _check_zeroing("2.2", matrix, matrices.det_bareiss, matrices._det_bareiss, _support)


def check_thm23(matrix: Matrix) -> IdentityReport:
    """(m - n) * per(X) == sum of per(X_ij) over the m nonzero entries only."""
    return _check_zeroing("2.3", matrix, matrices.per_ryser, matrices._per_glynn, _support)


def check_thm31(g: Digraph, beta, gamma, mode: str) -> IdentityReport:
    """(m - n) * g + x * g' == sum of g over all single-arc deletions.

    Both sides are exact polynomials; an arcless digraph is allowed and
    makes the right side the zero polynomial.
    """
    kind = PolyKind(beta, gamma, mode)
    base = poly_of(g, kind)
    lhs = polynomials.add(
        polynomials.scale(base, g.m - g.n),
        polynomials.mul(polynomials.X, polynomials.derivative(base)),
    )
    rhs = polynomials.ZERO
    # By deletion, not through graph_polys.deck: deck computes its members
    # by the column linearity this identity is proved from.
    for e in range(g.m):
        rhs = polynomials.add(rhs, poly_of(digraphs.delete_arc(g, e), kind))
    instance = {
        "digraph": serialize.digraph_to_obj(g),
        "beta": str(kind.beta),
        "gamma": str(kind.gamma),
        "mode": kind.mode,
    }
    return IdentityReport("3.1", instance, lhs, rhs, lhs == rhs)


def check_eq17(g: Digraph, kind: PolyKind) -> IdentityReport:
    """The deck-sum identity specialized to a named polynomial kind."""
    inner = check_thm31(g, kind.beta, kind.gamma, kind.mode)
    instance = {"digraph": serialize.digraph_to_obj(g), "kind": kind_name(kind)}
    return IdentityReport("1.7", instance, inner.lhs, inner.rhs, inner.holds)


# Seeded random instance generation. Callers own the Random object, so a
# sweep is reproducible from its seed alone.


def random_matrix(rng: random.Random, order: int, zero_density: float = 0.3,
                  magnitude: int = 9) -> Matrix:
    """Integer entries, zero with probability zero_density, else uniform
    over the nonzero values in [-magnitude, magnitude]."""
    values = tuple(k for k in range(-magnitude, magnitude + 1) if k != 0)

    def entry():
        if rng.random() < zero_density:
            return 0
        return rng.choice(values)

    return [[entry() for _ in range(order)] for _ in range(order)]


def random_rational(rng: random.Random, magnitude: int = 9) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, magnitude))


def random_nonzero_rational(rng: random.Random, magnitude: int = 9) -> Fraction:
    num = rng.choice(tuple(k for k in range(-magnitude, magnitude + 1) if k != 0))
    return Fraction(num, rng.randint(1, magnitude))


def random_digraph(rng: random.Random, max_n: int, weighted: bool = False,
                   m: int | None = None) -> Digraph:
    """Uniform arc-subset sample: n uniform in [1, max_n], m uniform over
    [0, n*(n-1)] unless given, arcs a uniform m-subset of the slots."""
    n = rng.randint(1, max_n)
    slots = digraphs.all_arc_slots(n)
    if m is None:
        m = rng.randint(0, len(slots))
    arcs = tuple(sorted(rng.sample(slots, m)))
    weights = None
    if weighted:
        weights = tuple(random_nonzero_rational(rng) for _ in arcs)
    return Digraph(n, arcs, weights)
