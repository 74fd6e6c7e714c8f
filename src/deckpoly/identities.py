"""Exact machine checks for the zeroed-entry and deck-sum identities.

Each check computes both sides of one identity on a concrete instance and
reports them verbatim. Everything is exact rational arithmetic; there is
no tolerance anywhere. Violation reports carry the full instance so any
failure can be replayed.

THEOREMS is the table of the labels `deckpoly verify --theorem` takes, in
the order it lists them: what one trial draws (MATRIX, an int matrix, or
DIGRAPH), the mode whose order cap bounds --max-n, and the check of the
drawn instance, which may draw more from the same Random. `trial` draws
and checks one instance. A new label is one row plus its check.

Every identity checked here is one lemma. Let f be det or per of an n x n
matrix whose entries are affine in m weights w_e, each w_e in one column
only: x*I - beta*D - gamma*A, where arc e = (s, t) adds its weight to
column t alone (theorem 3.1 and eq. (1.7)), or X itself, with no x, where
w_e is the entry e = (i, j) (theorems 2.1-2.3). Then the sum over e of f
with w_e set to 0 is (m - n + theta) f, theta = x d/dx. Proof: det and per
are linear in each column, so f is affine in each w_e, a sum of terms, one
per set T of weights, each a multiple of the product of the w_e in T. f is
homogeneous of degree n in x and the weights, so the term on T has
x-degree j = n - |T|. Setting w_e to 0 removes exactly the terms whose T
holds e, so the term on T survives the m - |T| = m - n + j deletions
outside T, and theta multiplies x^j by j. With no x every term has
|T| = n, so the sum of f(X_ij) over any set P of entries that holds X's
support is (|P| - n) f(X). For the pencil, the coefficient theorem in
graph_polys' module docstring writes these terms out: T is a functional
arc set, and its count of the deletions that miss T is the counting
proof of the identity at every number k of arcs deleted at once.

The zeroed-entry checks (theorems 2.1-2.3) take their left side from the
scalar kernel on X (det_bareiss, per_ryser) and their right side from one
zeroing sweep (matrices.zeroed_dets, zeroed_pers), which evaluates every
zeroed copy by its own expansion along the zeroed row, sharing with X only
the intermediate values that are equal in both, never through a cofactor
shortcut. The det copies of row i share the cofactors of row i, which a
Gauss-Jordan elimination of X's other rows gives; the eliminations share
one trunk over X's rows, which row i's leaves just before the trunk pivots
on row i to finish on the rows after it, so a theorem 2.1 trial of order n
costs about n^4 / 6 multiplication pairs. The per copies of row i share
the subset states of the rows above and below it, and the minors of row i
that pairing them gives. per_ryser's sweep builds the same kind of states,
so both sides of theorem 2.3 run one permanent algorithm. A fault common
to both could pass the check: a signed sweep computes determinants, which
satisfy the same identity (theorem 2.2). The tests therefore hold both
sides to Glynn's formula, which shares no code with the sweep.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat

from . import digraphs, matrices, polynomials, serialize
from .digraphs import Digraph, Frozen
from .graph_polys import DETERMINANT, PERMANENT, SIX_KINDS, PolyKind, kind_name, poly_of
from .matrices import Matrix


class IdentityReport(Frozen):
    """Both sides of one identity on one instance (a dict that replays it).
    `holds` reads whether the sides are equal."""

    __slots__ = ("identity", "instance", "lhs", "rhs")

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

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
    # Each zeroed copy gets its own expansion along row i: the sweep
    # shares only values equal in the copy and in X and never reads det X
    # or per X. A cofactor shortcut, det(X_ij) = det(X) - x_ij * C_ij, is
    # the linearity the theorems are proved from and would make the check a
    # tautology, as in check_thm31.
    rhs = sum(sweep(matrix, n, positions))
    instance = {"matrix": serialize.matrix_to_strings(matrix)}
    return IdentityReport(identity, instance, lhs, rhs)


def check_thm21(matrix: Matrix) -> IdentityReport:
    """(n^2 - n) * det(X) == sum of det(X with one entry zeroed), over all
    entries: the module docstring's lemma with P every entry."""
    return _check_zeroing("2.1", matrix, matrices.det_bareiss, matrices.zeroed_dets, _entries)


def check_thm22(matrix: Matrix) -> IdentityReport:
    """(m - n) * det(X) == sum of det(X_ij) over the m nonzero entries only:
    the module docstring's lemma with P the support."""
    return _check_zeroing("2.2", matrix, matrices.det_bareiss, matrices.zeroed_dets, _support)


def check_thm23(matrix: Matrix) -> IdentityReport:
    """(m - n) * per(X) == sum of per(X_ij) over the m nonzero entries only:
    the module docstring's lemma with P the support."""
    return _check_zeroing("2.3", matrix, matrices.per_ryser, matrices.zeroed_pers, _support)


def check_thm31(g: Digraph, beta, gamma, mode: str) -> IdentityReport:
    """(m - n) * g + x * g' == sum of g over all single-arc deletions, the
    module docstring's lemma for the pencil (beta, gamma, mode).

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
    return IdentityReport("3.1", instance, lhs, rhs)


def check_eq17(g: Digraph, kind: PolyKind) -> IdentityReport:
    """The deck-sum identity specialized to a named polynomial kind."""
    inner = check_thm31(g, kind.beta, kind.gamma, kind.mode)
    instance = {"digraph": serialize.digraph_to_obj(g), "kind": kind_name(kind)}
    return IdentityReport("1.7", instance, inner.lhs, inner.rhs)


# Seeded random instance generation. Callers own the Random object, so a
# sweep is reproducible from its seed alone. Numerators of the random
# rationals lie in [-9, 9], denominators in [1, 9]; a random matrix entry
# is zero with probability _ZERO_DENSITY, else a nonzero numerator.
_ZERO_DENSITY = 0.3
_NONZERO_NUMERATORS = (*range(-9, 0), *range(1, 10))


def random_matrix(rng: random.Random, order: int) -> Matrix:
    """Integer entries, zero with probability _ZERO_DENSITY, else uniform
    over the 18 values of _NONZERO_NUMERATORS.

    A nonzero entry is drawn as rng.choice over those values draws it:
    rng.getrandbits(5) until a draw is below 18 (Random._randbelow's
    rejection loop), so a seed gives the same matrices with the same calls
    to rng in the same order.
    """
    # Lazy, so each next() makes its own getrandbits calls and no more.
    indices = filter(len(_NONZERO_NUMERATORS).__gt__, map(rng.getrandbits, repeat(5)))
    return [[0 if rng.random() < _ZERO_DENSITY else _NONZERO_NUMERATORS[next(indices)]
             for _ in range(order)] for _ in range(order)]


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


MATRIX, DIGRAPH = "matrix", "digraph"
# Each row's check is a lambda that reads the check by its module name when
# called, so a wrapper rebound on this module sees every call (perfbench's
# tracer wraps check_thm21-23 that way); a check stored here would bypass it.
THEOREMS = {
    "2.1": (MATRIX, DETERMINANT, lambda matrix, rng: check_thm21(matrix)),
    "2.2": (MATRIX, DETERMINANT, lambda matrix, rng: check_thm22(matrix)),
    "2.3": (MATRIX, PERMANENT, lambda matrix, rng: check_thm23(matrix)),
    "3.1": (DIGRAPH, PERMANENT, lambda g, rng: check_thm31(
        g, random_rational(rng), random_nonzero_rational(rng),
        rng.choice((DETERMINANT, PERMANENT)))),
    "1.7": (DIGRAPH, PERMANENT, lambda g, rng: check_eq17(g, rng.choice(SIX_KINDS))),
}


def trial(theorem: str, rng: random.Random, max_n: int, weighted: bool) -> IdentityReport:
    """One seeded instance of theorem checked: a matrix of order uniform in
    [1, max_n], or a digraph (with arc weights when weighted)."""
    draws, _, check = THEOREMS[theorem]
    if draws == MATRIX:
        instance = random_matrix(rng, rng.randint(1, max_n))
    else:
        instance = random_digraph(rng, max_n, weighted=weighted)
    return check(instance, rng)
