"""The six digraph polynomials and the general two-parameter pencil family.

Every kind is a point (beta, gamma, mode) of the family

    det or per of (x*I - beta*D - gamma*A),

where A is the adjacency matrix and D the diagonal of weighted in-degrees.
The six named kinds are the classical specializations: f1/f4 are the
characteristic and permanental polynomials (beta=0, gamma=1), f2/f5 the
Laplacian pair (beta=1, gamma=-1), f3/f6 the signless Laplacian pair
(beta=1, gamma=1).

Every pencil goes through one integer seam: _arc_terms scales each arc's
terms gamma*w and beta*w to ints by one L, and _pencil_coefficients builds
L*B (B = beta*D + gamma*A) from them, reads the coefficients off the
kind's integer kernel (_kernel: Berkowitz in det mode, one Gray-code Ryser
walk in per mode) and checks them monic; _unscaled divides coefficient k
by L^(n-k). poly_of, deck and the collision search all use it. pencil_at
(with polynomials.interpolate) and poly_of_oracle remain as test oracles.

deck uses column linearity instead of m deletions. Deleting arc (s, t) of
weight w changes only column t of P = x*I - B: entry (s, t) gains gamma*w
and entry (t, t) gains beta*w. det and per are linear in one column, so

    g(G - e) = g(G) + gamma*w * C[s][t] + beta*w * C[t][t],

with C the signed cofactors (det) or the permanental minors (per) of P.
One call of the same kernel gives g(G) and the adjugate rows of the
distinct arc heads, and so the whole deck: _deck_coefficients, which deck
and the collision search share. A Deck holds int rows, one denominator per
k, and puts itself in canonical form when it is built.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm

from . import digraphs, matrices, polynomials
from .digraphs import Digraph, Frozen, _set
from .matrices import Matrix
from .polynomials import Polynomial

DETERMINANT = "det"
PERMANENT = "per"

# poly_of's det-mode cap; per mode is capped by matrices.RYSER_MAX_ORDER.
# The oracle is factorial and capped much lower.
DET_MAX_VERTICES = 64
ORACLE_MAX_VERTICES = 7


class PolyKind(Frozen):
    """The pencil point (beta, gamma, mode): beta and gamma as Fractions,
    gamma nonzero, mode DETERMINANT or PERMANENT."""

    __slots__ = ("beta", "gamma", "mode")

    def __init__(self, beta: Fraction, gamma: Fraction, mode: str):
        _set(self, "beta", Fraction(beta))
        _set(self, "gamma", Fraction(gamma))
        _set(self, "mode", mode)
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")
        if mode not in (DETERMINANT, PERMANENT):
            raise ValueError(f"mode must be {DETERMINANT!r} or {PERMANENT!r}, got {mode!r}")


F1 = PolyKind(0, 1, DETERMINANT)
F2 = PolyKind(1, -1, DETERMINANT)
F3 = PolyKind(1, 1, DETERMINANT)
F4 = PolyKind(0, 1, PERMANENT)
F5 = PolyKind(1, -1, PERMANENT)
F6 = PolyKind(1, 1, PERMANENT)

NAMED_KINDS = {"f1": F1, "f2": F2, "f3": F3, "f4": F4, "f5": F5, "f6": F6}
SIX_KINDS = (F1, F2, F3, F4, F5, F6)
_KIND_NAMES = {kind: name for name, kind in NAMED_KINDS.items()}


def kind_name(kind: PolyKind) -> str:
    return _KIND_NAMES.get(kind) or f"general:{kind.beta},{kind.gamma},{kind.mode}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# int() takes time quadratic in the digit count, and the CLI lifts Python's
# 4,300-digit limit on it, so a rational string has its own length bound.
MAX_RATIONAL_CHARS = 100_000


def _rational_pair(text: str) -> tuple[int, int]:
    """(p, q) in lowest terms with q > 0, from "p" or "p/q", the form
    str(Fraction) writes, and nothing else: Fraction("1e999999999") alone
    would build 10^999999999. At most MAX_RATIONAL_CHARS characters are read."""
    if not isinstance(text, str):
        raise ValueError(f"rational values must be strings, got {text!r}")
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational of {len(text)} characters; "
                         f"at most {MAX_RATIONAL_CHARS} are read")
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"bad rational {text!r}; expected an integer or p/q")
    numerator, denominator = match.groups()
    if denominator is None:
        return int(numerator), 1
    numerator, denominator = int(numerator), int(denominator)
    if not denominator:
        raise ValueError(f"bad rational {text!r}: zero denominator")
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


def parse_rational(text: str) -> Fraction:
    return Fraction(*_rational_pair(text))


def parse_kind(text: str) -> PolyKind:
    """Parse "f1".."f6" or "general:BETA,GAMMA,det|per" (rationals as "p/q")."""
    name = text.strip().lower()
    if name in NAMED_KINDS:
        return NAMED_KINDS[name]
    if name.startswith("general:"):
        parts = [part.strip() for part in name[len("general:"):].split(",")]
        if len(parts) != 3:
            raise ValueError(f"malformed kind {text!r}; expected general:BETA,GAMMA,det|per")
        return PolyKind(parse_rational(parts[0]), parse_rational(parts[1]), parts[2])
    raise ValueError(f"unknown polynomial kind {text!r}")


def pencil_at(g: Digraph, kind: PolyKind, t) -> tuple[Matrix, int]:
    """(P, L) with P = L*(t*I - beta*D - gamma*A) an int matrix, for a
    concrete value t, and L the lcm of the denominators of the entries of
    t*I - beta*D - gamma*A.

    Test oracle only: Fraction(det_bareiss(P), L**n) (or per_ryser) at
    t = 0..n, fed to polynomials.interpolate, recomputes poly_of by an
    independent route: P is built from adjacency and in_degrees, not from
    the integer pencil poly_of uses, and takes n+1 scalar evaluations
    instead of one coefficient kernel. It stays in the package only because
    perfbench/tracer.py binds it; ROADMAP item 1 moves it to tests/oracles.py.
    """
    t = Fraction(t)
    a = digraphs.adjacency(g)
    d = digraphs.in_degrees(g)
    rows = [[-kind.gamma * a[i][j] for j in range(g.n)] for i in range(g.n)]
    for i in range(g.n):
        rows[i][i] = t - kind.beta * d[i]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows], scale


def _arc_terms(kind: PolyKind, weights: Sequence[Fraction]) -> tuple[int, list[tuple[int, int]]]:
    """(L, terms): terms lists (L*gamma*w, L*beta*w) per weight w, in order,
    and L is the least scale that makes every term an int. So L*B, with
    B = beta*D + gamma*A, is an int matrix for arcs of these weights.

    Those per-arc terms are what deleting an arc takes out of L*B. Their
    denominators can exceed those of B's entries: a diagonal sum can cancel
    one, as beta = 1/3 with weights 1 and -1 into one head does.

    With q the lcm of the weights' denominators, every term is an int over
    L0 = beta.denominator * gamma.denominator * q; then
    L = L0 / gcd(L0, every numerator).
    """
    q = lcm(*(w.denominator for w in weights))
    off = kind.gamma.numerator * kind.beta.denominator
    on = kind.beta.numerator * kind.gamma.denominator
    xs = [w.numerator * (q // w.denominator) for w in weights]
    scale = kind.beta.denominator * kind.gamma.denominator * q
    common = gcd(scale, *(off * x for x in xs), *(on * x for x in xs))
    return scale // common, [(off * x // common, on * x // common) for x in xs]


def _kernel(kind: PolyKind):
    """The kind's coefficient kernel, matrices.adjugate_rows (det mode) or
    matrices.per_adjugate_rows (per mode), looked up at call time."""
    return matrices.per_adjugate_rows if kind.mode == PERMANENT else matrices.adjugate_rows


def _pencil_coefficients(kind: PolyKind, n: int, arcs: Iterable[tuple[int, int]],
                         terms: Iterable[tuple[int, int]], wanted: dict[int, set[int]]):
    """The kernel's (coefficients, entries) for L*B on n vertices, which has
    a at (s, t) and d added at (t, t) for each arc (s, t) and its terms
    (a, d): the n + 1 coefficients of K(y) = det or per of y*I - L*B,
    constant term first, and for each row t of `wanted` and j in wanted[t],
    entry (t, j) of the matching adjugate of y*I - L*B as n coefficients.
    A K not monic of degree n is a kernel bug, raised even under -O."""
    b = [[0] * n for _ in range(n)]
    for (s, t), (a, d) in zip(arcs, terms):
        b[s][t] = a
        b[t][t] += d
    coeffs, entries = _kernel(kind)(b, wanted)
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        raise AssertionError(f"pencil polynomial must be monic of degree {n}, got {coeffs}")
    return coeffs, entries


def _check_cap(n: int, kind: PolyKind) -> None:
    cap = matrices.RYSER_MAX_ORDER if kind.mode == PERMANENT else DET_MAX_VERTICES
    if n > cap:
        raise ValueError(f"{kind.mode} polynomials are capped at {cap} vertices, got {n}")


def _unscaled(coeffs: Sequence[int], scale: int, n: int) -> Polynomial:
    """f from the monic coefficients of K = det or per of (y*I - L*B). Both
    are homogeneous of degree n, so K(L*x) = L^n * f(x), and coefficient k
    of f is coefficient k of K divided by L^(n-k)."""
    if scale == 1:
        return tuple(map(Fraction, coeffs))  # the one-argument fast path
    return tuple(Fraction(c, scale ** (n - k)) for k, c in enumerate(coeffs))


def poly_of(g: Digraph, kind: PolyKind) -> Polynomial:
    """Exact monic degree-n polynomial of the pencil, read through the
    integer seam with no adjugate entries wanted. Assumes a validated digraph."""
    _check_cap(g.n, kind)
    scale, terms = _arc_terms(kind, g.arc_weights())
    return _unscaled(_pencil_coefficients(kind, g.n, g.arcs, terms, {})[0], scale, g.n)


# Nothing calls it; perfbench/child.py reads its cache_info(), and ROADMAP item 1 deletes both.
_poly_of_cached = lru_cache(maxsize=0)(poly_of)


def poly_of_oracle(g: Digraph, kind: PolyKind) -> Polynomial:
    """Same value as poly_of, computed by direct symbolic permutation
    expansion of the pencil with no interpolation. n! terms, so tiny n only."""
    n = g.n
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(f"poly_of_oracle is capped at {ORACLE_MAX_VERTICES} vertices, got {n}")
    a = digraphs.adjacency(g)
    d = digraphs.in_degrees(g)
    entries = [
        [
            polynomials.normalize([-kind.beta * d[i], 1])
            if i == j
            else polynomials.normalize([-kind.gamma * a[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = polynomials.ZERO
    signed = kind.mode == DETERMINANT
    for perm in permutations(range(n)):
        term = polynomials.ONE
        for i in range(n):
            factor = entries[i][perm[i]]
            if polynomials.is_zero(factor):
                term = polynomials.ZERO
                break
            term = polynomials.mul(term, factor)
        if polynomials.is_zero(term):
            continue
        if signed and matrices.permutation_sign(perm) < 0:
            term = polynomials.scale(term, -1)
        total = polynomials.add(total, term)
    return total


class Deck(Frozen):
    """Edge deck of a digraph mapped through one polynomial kind.

    Member i (in `polys` as Fractions) has degree n and coefficient k equal
    to coefficients[i][k] / denominators[k]. Construction puts every deck in
    one form, denominators[k] the lcm of coefficient k's reduced
    denominators over the members and the rows sorted, so decks compare and
    hash as multisets however they were built. `arc_weight` is the source's
    total arc weight, kept only when it differs from the arc count m, the
    number of members (so never for an unweighted digraph): construction
    stores None for a total equal to m. The members alone do not determine
    it when m = 1.
    """

    __slots__ = ("n", "kind", "coefficients", "denominators", "arc_weight")

    def __init__(self, n: int, kind: PolyKind, coefficients: Sequence[Sequence[int]],
                 denominators: Sequence[int], arc_weight: Fraction | None = None):
        if len(denominators) != n + 1:
            raise ValueError(f"a deck of degree {n} needs {n + 1} denominators, "
                             f"got {len(denominators)}")
        if any(den < 1 for den in denominators):
            raise ValueError(f"deck denominators must be >= 1, got {denominators}")
        if any(len(row) != n + 1 for row in coefficients):
            raise ValueError(f"every deck member needs {n + 1} coefficients")
        # Each column and its denominator over their gcd, which leaves the lcm
        # of its reduced denominators; then the rows sorted as Fractions.
        rows, dens = coefficients, denominators
        commons = [gcd(den, *column) for den, column in zip(dens, zip(*rows))] or dens
        if any(g != 1 for g in commons):
            rows = [[c // g for c, g in zip(row, commons)] for row in rows]
        _set(self, "n", n)
        _set(self, "kind", kind)
        _set(self, "coefficients", tuple(sorted(map(tuple, rows))))
        _set(self, "denominators", tuple(den // g for den, g in zip(dens, commons)))
        _set(self, "arc_weight", None if arc_weight == len(coefficients) else arc_weight)

    @classmethod
    def from_polys(cls, n: int, kind: PolyKind, polys: Iterable[Sequence],
                   arc_weight: Fraction | None = None) -> Deck:
        rows = [[(c.numerator, c.denominator) for c in map(Fraction, p)] for p in polys]
        return cls(n, kind, *_scaled_columns(n, rows), arc_weight)

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        return tuple(tuple(map(Fraction, row, self.denominators)) for row in self.coefficients)


def _scaled_columns(n: int, rows: list[list[tuple[int, int]]]):
    """(rows, dens) for Deck from reduced (p, q) member rows of degree n, trailing
    zeros stripped: each column scaled to the lcm of its q."""
    for row in rows:
        while len(row) > 1 and not row[-1][0]:
            row.pop()
        if len(row) != n + 1:
            raise ValueError(f"deck member has degree {len(row) - 1}, expected {n}")
    dens = [lcm(*[q for _, q in column]) for column in zip(*rows)] or [1] * (n + 1)
    return [[p * (den // q) for (p, q), den in zip(row, dens)] for row in rows], dens


def _deck_coefficients(kind: PolyKind, n: int, arcs: Sequence[tuple[int, int]],
                       terms: Sequence[tuple[int, int]]) -> tuple[list[int], list[list[int]]]:
    """(K, members): the coefficients of K(y) = det or per of y*I - L*B, as
    in _pencil_coefficients, and members[e] those of the pencil without arc
    e, in arc order, by column linearity from one kernel call. Entry (t, t)
    is wanted only for an arc whose diagonal term is nonzero: beta = 0
    kinds never read it."""
    wanted: dict[int, set[int]] = {}
    for (s, t), (_, d) in zip(arcs, terms):
        wanted.setdefault(t, set()).add(s)
        if d:
            wanted[t].add(t)
    base, adj = _pencil_coefficients(kind, n, arcs, terms, wanted)
    members = []
    for (s, t), (a, d) in zip(arcs, terms):
        # Deleting the arc adds a at (s, t) and d at (t, t) of y*I - L*B.
        member = [c + a * x for c, x in zip(base, adj[t, s])]
        if d:
            member = [c + d * x for c, x in zip(member, adj[t, t])]
        members.append(member + [base[n]])
    return base, members


def deck(g: Digraph, kind: PolyKind) -> Deck:
    """Multiset of the pencil polynomials of all single-arc deletions of g,
    by column linearity (see the module docstring): one kernel call gives
    K(y) = det or per of (y*I - L*B) and up to two adjugate entries per
    arc. Same caps as poly_of. Assumes a validated digraph."""
    if g.m == 0:
        raise ValueError("the edge deck of an arcless digraph is empty")
    _check_cap(g.n, kind)
    scale, terms = _arc_terms(kind, g.arc_weights())
    _, members = _deck_coefficients(kind, g.n, g.arcs, terms)
    total = None if g.weights is None else sum(g.weights, Fraction(0))
    # Coefficient k of a member is its column entry over L^(n-k) (see _unscaled).
    return Deck(g.n, kind, members, [scale ** (g.n - k) for k in range(g.n + 1)], total)
