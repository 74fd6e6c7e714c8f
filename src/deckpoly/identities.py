"""Exact machine checks for the zeroed-entry and deck-sum identities.

Each check computes both sides of one identity on a concrete instance and
reports them verbatim. Everything is exact rational arithmetic; there is
no tolerance anywhere. Violation reports carry the full instance so any
failure can be replayed.

The zeroed-entry checks (theorems 2.1-2.3) take their left side from the
scalar kernel on X (det_bareiss, per_ryser) and their right side from one
zeroing sweep (matrices.zeroed_dets, zeroed_pers), which evaluates every
zeroed copy by its own elimination or its own expansion along the zeroed
row, sharing with X only the intermediate values that are equal in both,
never through a cofactor shortcut. The det copies share one elimination
trunk over X's rows, which row i's copies leave just before it pivots on
row i to finish on the rows after it, and each copy carries its own row
throughout, so a theorem 2.1 trial of order n costs about 7n^4 / 12
multiplication pairs. The per copies of row i share the subset states of
the rows above and below it, and the minors of row i that pairing them
gives. per_ryser's sweep builds the same kind of states, so both sides of
theorem 2.3 run one permanent algorithm. A fault common to both could
pass the check: a signed sweep computes determinants, which satisfy the
same identity (theorem 2.2). The tests therefore hold both sides to
Glynn's formula, which shares no code with the sweep.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat

from . import digraphs, matrices, polynomials, serialize
from .digraphs import Digraph, Frozen
from .graph_polys import PolyKind, kind_name, poly_of
from .matrices import Matrix


class IdentityReport(Frozen):
    """Both sides of one identity on one instance (a dict that replays it),
    and whether they are equal."""

    __slots__ = ("identity", "instance", "lhs", "rhs", "holds")

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"


def _entries(matrix: Matrix, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n)]


def _support(matrix: Matrix, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i, j in _entries(matrix, n) if matrix[i][j] != 0]


def _check_zeroing(identity: str, matrix: Matrix, kernel, sweep, select) -> IdentityReport:
    """(len(positions) - n) * kernel(X) == sum of sweep's values, one per
    zeroed copy X_ij over (i, j) in positions = select(X, n); kernel(X) is
    the only validation of X."""
    base = kernel(matrix)
    n = len(matrix)
    positions = select(matrix, n)
    lhs = (len(positions) - n) * base
    # Each zeroed copy gets its own elimination or row expansion: the sweep
    # shares only values equal in the copy and in X and never reads det X
    # or per X. A cofactor shortcut, det(X_ij) = det(X) - x_ij * C_ij, is
    # the linearity the theorems are proved from and would make the check a
    # tautology, as in check_thm31.
    rhs = sum(sweep(matrix, n, positions))
    instance = {"matrix": serialize.matrix_to_strings(matrix)}
    return IdentityReport(identity, instance, lhs, rhs, lhs == rhs)


def check_thm21(matrix: Matrix) -> IdentityReport:
    """(n^2 - n) * det(X) == sum of det(X with one entry zeroed), over all entries."""
    return _check_zeroing("2.1", matrix, matrices.det_bareiss, matrices.zeroed_dets, _entries)


def check_thm22(matrix: Matrix) -> IdentityReport:
    """(m - n) * det(X) == sum of det(X_ij) over the m nonzero entries only."""
    return _check_zeroing("2.2", matrix, matrices.det_bareiss, matrices.zeroed_dets, _support)


def check_thm23(matrix: Matrix) -> IdentityReport:
    """(m - n) * per(X) == sum of per(X_ij) over the m nonzero entries only."""
    return _check_zeroing("2.3", matrix, matrices.per_ryser, matrices.zeroed_pers, _support)


def check_thm31(g: Digraph, beta, gamma, mode: str) -> IdentityReport:
    """(m - n) * g + x * g' == sum of g over all single-arc deletions.

    Both sides are exact polynomials; an arcless digraph is allowed and
    makes the right side the zero polynomial.
    """
    kind = PolyKind(beta, gamma, mode)
    # Coefficient k of the left side is (m - n + k) * c_k, the equation
    # reconstruct solves, and of the right side the column sum s_k.
    lhs = polynomials.normalize((g.m - g.n + k) * c for k, c in enumerate(poly_of(g, kind)))
    # By deletion, not through graph_polys.deck: deck computes its members
    # by the column linearity this identity is proved from.
    cards = [poly_of(digraphs.delete_arc(g, e), kind) for e in range(g.m)]
    rhs = polynomials.normalize(map(sum, zip(*cards)))
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
    over the nonzero values in [-magnitude, magnitude]; magnitude must be
    at least 1.

    A nonzero entry is drawn as rng.choice over those values draws it:
    rng.getrandbits(b), for b the bit length of their count, until a draw
    is below the count (Random._randbelow's rejection loop), so a seed
    gives the same matrices with the same calls to rng in the same order.
    """
    if magnitude < 1:
        # No value to draw: the rejection loop would never end.
        raise ValueError(f"magnitude must be >= 1, got {magnitude}")
    values = (*range(-magnitude, 0), *range(1, magnitude + 1))
    # Lazy, so each next() makes its own getrandbits calls and no more.
    indices = filter(len(values).__gt__, map(rng.getrandbits, repeat(len(values).bit_length())))
    return [[0 if rng.random() < zero_density else values[next(indices)] for _ in range(order)]
            for _ in range(order)]


# Numerators of the random rationals lie in [-9, 9], denominators in [1, 9].
_NONZERO_NUMERATORS = (*range(-9, 0), *range(1, 10))


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 9))


def random_digraph(rng: random.Random, max_n: int, weighted: bool = False) -> Digraph:
    """Uniform arc-subset sample: n uniform in [1, max_n], m uniform over
    [0, n*(n-1)], arcs a uniform m-subset of the slots."""
    n = rng.randint(1, max_n)
    slots = digraphs.all_arc_slots(n)
    arcs = tuple(sorted(rng.sample(slots, rng.randint(0, len(slots)))))
    weights = None
    if weighted:
        weights = tuple(random_nonzero_rational(rng) for _ in arcs)
    return Digraph(n, arcs, weights)
