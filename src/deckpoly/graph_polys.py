"""The six digraph polynomials and the general two-parameter pencil family.

Every kind is a point (beta, gamma, mode) of the family

    det or per of (x*I - beta*D - gamma*A),

where A is the adjacency matrix and D the diagonal of weighted in-degrees.
The six named kinds are the classical specializations: f1/f4 are the
characteristic and permanental polynomials (beta=0, gamma=1), f2/f5 the
Laplacian pair (beta=1, gamma=-1), f3/f6 the signless Laplacian pair
(beta=1, gamma=1).

Every pencil goes through one integer seam: _arc_terms scales each arc's
terms gamma*w and beta*w to ints by one L, and _pencil_cards builds
L*B (B = beta*D + gamma*A) from them, reads the coefficients, and for a
deck its cards, off one call of the kind's integer card kernel (_kernel:
in det mode Berkowitz for coefficients alone and one Faddeev-LeVerrier
pass over the arc-head rows of the adjugate for a deck; in per mode a
forward column-subset sweep, and a backward one too for a deck) and
checks them monic; _unscaled divides coefficient k by L^(n-k). poly_of,
deck and the collision search all use it. pencil_at (with
polynomials.interpolate) and poly_of_oracle remain as test oracles.

deck uses column linearity instead of m deletions. Deleting arc (s, t) of
weight w changes only column t of P = x*I - B: entry (s, t) gains gamma*w
and entry (t, t) gains beta*w. det and per are linear in one column, so

    g(G - e) = g(G) + gamma*w * C[s][t] + beta*w * C[t][t],

with C the signed cofactors (det) or the permanental minors (per) of P.
That is the kernel's card for the update (s, t, L*gamma*w, L*beta*w) of
y*I - L*B, the arc's own terms: one call gives g(G) and every card, and so
the whole deck, which deck and the collision search read alike. A Deck
holds int rows, one denominator per k, and puts itself in canonical form
when it is built.

Every coefficient of every kind has one combinatorial form. Call an arc
set H functional when its arcs have distinct heads. Each vertex then has
at most one predecessor in H, so the directed cycles of H are
vertex-disjoint.

Theorem (functional-subdigraph expansion). For arc weights w_e and any
beta, gamma, coefficient n - j of the pencil polynomial is

    c_{n-j} = (-1)^j * sum over the functional H of j arcs of
              w(H) * beta^(j - |V(cycles of H)|)
                   * prod_C (beta^|C| + s_C * gamma^|C|),

with w(H) the product of the w_e in H, C running over the directed
cycles of H, V(cycles of H) the vertices on them, and s_C = (-1)^(|C|-1)
in det mode and 1 in per mode.

Proof. Column t of P = x*I - beta*D - gamma*A is x*e_t minus, for each
arc e = (s, t) into t, w_e * (beta*e_t + gamma*e_s). det and per are
linear in each column, so f is the sum, over the ways to pick in each
column t either x*e_t or one arc into t, of det or per of the picked
columns. The picked arcs form a functional H; say j = |H|. Taking x out
of the n - j unit columns and -w_e out of the others leaves
x^(n-j) * (-1)^j * w(H) times det or per of a matrix whose column at
each t that is no head of H is e_t. Expanding along those columns
deletes their rows, and leaves det or per of N, the matrix on the heads
of H whose column t is beta*e_t + gamma*e_p(t), p(t) the tail of t's
arc, with the second entry dropped when p(t) is not a head. A permutation q of the heads adds a term only if q(t) is t or
p(t) for every t, and the t with q(t) = p(t) are mapped onto themselves
by p, so they form a union of cycles of H. Each subset of H's cycles
gives one term: gamma^|C| for each chosen cycle C, with the sign
(-1)^(|C|-1) of a cyclic permutation in det mode, and beta for every
other head. The sum over subsets is the product over cycles above, with
beta^(j - |V(cycles of H)|) from the heads on no cycle. QED

At beta = 0 only H whose arcs all lie on cycles count: the Harary-Sachs
coefficient theorem (Cvetkovic, Doob and Sachs 1980, Spectra of Graphs).
Under f2 every cycle factor is 1 - 1 = 0, so (-1)^j c_{n-j} is the
weight of the acyclic functional H of j arcs, the out-forests: the
directed matrix-tree theorem (Chaiken 1982, SIAM J. Algebraic Discrete
Methods 3). f3's factor vanishes on even cycles, f5's on odd ones.

Corollary (the coefficient the deck leaves free). At m <= n only H = E
has m arcs, so c_{n-m} = 0 when some vertex has in-degree 2 or more, and
otherwise c_{n-m} is the term on E. At m = n that is c_0, nonzero only
when every in-degree is 1.

The expansion also counts the deck. The polynomial of G - e is the sum
of the terms whose H misses e, so the term on H survives exactly the
C(m - |H|, k) deletions of k arcs that miss it: coefficient n - j of the
sum over the k-arc deletions is C(m - j, k) * c_{n-j}, and k = 1 is the
paper's identity (m - n) * f + x * f' = sum of the deck.
tests/oracles.py computes f and every card by the expansion, with no
matrix, and tests/test_closed_form.py checks the corollary.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm
from operator import floordiv

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
SIX_KINDS = tuple(NAMED_KINDS.values())
_KIND_NAMES = {kind: name for name, kind in NAMED_KINDS.items()}


def kind_name(kind: PolyKind) -> str:
    return _KIND_NAMES.get(kind) or f"general:{kind.beta},{kind.gamma},{kind.mode}"


# int() takes time quadratic in the digit count, and the CLI lifts Python's
# 4,300-digit limit on it, so a rational string has its own length bound.
MAX_RATIONAL_CHARS = 100_000
# The one rational grammar, "p" or "p/q" of at most MAX_RATIONAL_CHARS
# characters, matched over a run of values joined by commas. [0-9] is ASCII
# only, unlike int().
_VALUE = rf"(?![^,]{{{MAX_RATIONAL_CHARS + 1}}})-?[0-9]+(?:/[0-9]+)?"
_VALUES = re.compile(rf"{_VALUE}(?:,{_VALUE})*")


def _rational_pairs(values: Sequence[str]) -> tuple[list[int], list[int]]:
    """(numerators, denominators) of rational strings, each value as written,
    not reduced. A value is "p" or "p/q", the form str(Fraction) writes, and
    nothing else: Fraction("1e999999999") alone would build 10^999999999. At
    most MAX_RATIONAL_CHARS characters of a value are read. Values that do
    not match as one comma-joined string are read again one by one, so the
    error names the first bad one."""
    try:
        text = ",".join(values)
    except TypeError:  # a value that is not a string
        text = ""
    if _VALUES.fullmatch(text) and text.count(",") == len(values) - 1:
        if "/" not in text:
            return list(map(int, values)), [1] * len(values)
        nums, dens = [], []
        for value in values:
            p, _, q = value.partition("/")
            nums.append(int(p))
            dens.append(int(q) if q else 1)
        if all(dens):
            return nums, dens
    for value in values:
        if not isinstance(value, str):
            raise ValueError(f"rational values must be strings, got {value!r}")
        if len(value) > MAX_RATIONAL_CHARS:
            raise ValueError(f"rational of {len(value)} characters; "
                             f"at most {MAX_RATIONAL_CHARS} are read")
        if "," in value or not _VALUES.fullmatch(value):
            raise ValueError(f"bad rational {value!r}; expected an integer or p/q")
        if not int(value.partition("/")[2] or 1):
            raise ValueError(f"bad rational {value!r}: zero denominator")
    raise ValueError("expected at least one rational value")


def parse_rational(text: str) -> Fraction:
    """One value _rational_pairs reads, as a Fraction, which reduces it."""
    [p], [q] = _rational_pairs([text])
    return Fraction(p, q)


def parse_kind(text: str) -> PolyKind:
    """Parse "f1".."f6" or "general:BETA,GAMMA,det|per", read as written,
    with no case folding or trimming and BETA and GAMMA in the one rational
    grammar (_rational_pairs): " f1", "F1" and "general: 1,1,det" are
    errors that name the bad value."""
    if text in NAMED_KINDS:
        return NAMED_KINDS[text]
    if text.startswith("general:"):
        parts = text[len("general:"):].split(",")
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
    """The kind's card kernel, matrices.det_cards (det mode) or
    matrices.per_cards (per mode), looked up at call time."""
    return matrices.per_cards if kind.mode == PERMANENT else matrices.det_cards


def _pencil_cards(kind: PolyKind, n: int, arcs: Sequence[tuple[int, int]],
                  terms: Sequence[tuple[int, int]], cards: bool = True):
    """(K, members) from one kernel call for L*B on n vertices, which has a
    at (s, t) and d added at (t, t) for each arc (s, t) and its terms
    (a, d): the n + 1 coefficients of K(y) = det or per of y*I - L*B,
    constant term first, and with `cards`, members[e] those of the pencil
    without arc e, in arc order: the kernel's card for the update
    (s, t, a, d), which adds back what the arc takes out. A K not monic of
    degree n is a kernel bug, raised even under -O."""
    b = [[0] * n for _ in range(n)]
    updates = [(s, t, a, d) for (s, t), (a, d) in zip(arcs, terms)]
    for s, t, a, d in updates:
        b[s][t] = a
        b[t][t] += d
    coeffs, members = _kernel(kind)(b, updates if cards else [])
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        raise AssertionError(f"pencil polynomial must be monic of degree {n}, got {coeffs}")
    return coeffs, members


def cap_of(mode: str) -> int:
    """The largest order that `mode` takes: the most vertices of a digraph
    whose polynomial is asked for, and of a matrix whose det or per is."""
    return matrices.RYSER_MAX_ORDER if mode == PERMANENT else DET_MAX_VERTICES


def _check_cap(n: int, kind: PolyKind) -> None:
    cap = cap_of(kind.mode)
    if n > cap:
        raise ValueError(f"{kind.mode} polynomials are capped at {cap} vertices, got {n}")


def _unscaled(coeffs: Sequence[int], scale: int, n: int) -> Polynomial:
    """f from the monic coefficients of K = det or per of (y*I - L*B). Both
    are homogeneous of degree n, so K(L*x) = L^n * f(x), and coefficient k
    of f is coefficient k of K divided by L^(n-k)."""
    return tuple(Fraction(c, scale ** (n - k)) for k, c in enumerate(coeffs))


def poly_of(g: Digraph, kind: PolyKind) -> Polynomial:
    """Exact monic degree-n polynomial of the pencil, read through the
    integer seam with no cards. Assumes a validated digraph."""
    _check_cap(g.n, kind)
    scale, terms = _arc_terms(kind, g.arc_weights())
    return _unscaled(_pencil_cards(kind, g.n, g.arcs, terms, cards=False)[0], scale, g.n)


# Nothing calls it; perfbench/child.py reads its cache_info(), and ROADMAP item 1 deletes both.
_poly_of_cached = lru_cache(maxsize=0)(poly_of)


def poly_of_oracle(g: Digraph, kind: PolyKind) -> Polynomial:
    """Same value as poly_of, by the n!-term permutation sum that defines det
    or per of x*I - beta*D - gamma*A, with no kernel and no interpolation.
    Only the diagonal holds x, so permutation p contributes its sign (det
    mode) times -gamma*a[i][p(i)] at each moved i times x - beta*d_i at each
    fixed i. n! terms, so tiny n only."""
    n = g.n
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(f"poly_of_oracle is capped at {ORACLE_MAX_VERTICES} vertices, got {n}")
    off = [[-kind.gamma * a for a in row] for row in digraphs.adjacency(g)]
    roots = [kind.beta * d for d in digraphs.in_degrees(g)]
    total = [Fraction(0)] * (n + 1)
    signed = kind.mode == DETERMINANT
    for perm in permutations(range(n)):
        term = [Fraction(matrices.permutation_sign(perm) if signed else 1)]
        for i, j in enumerate(perm):
            if i != j:
                term[0] *= off[i][j]
                if not term[0]:
                    break
        else:
            for i, j in enumerate(perm):
                if i == j:  # term * (x - beta*d_i)
                    term = [a - roots[i] * b for a, b in zip([0, *term], [*term, 0])]
            for k, c in enumerate(term):
                total[k] += c
    return polynomials.normalize(total)


class Deck(Frozen):
    """Edge deck of a digraph mapped through one polynomial kind.

    Member i (in `polys` as Fractions) has degree n and coefficient k equal
    to coefficients[i][k] / denominators[k]. The degree n is not stored: the
    property reads it off the n + 1 denominators, and every row must have
    as many entries. Construction puts every deck in one form,
    denominators[k] the lcm of coefficient k's reduced denominators over
    the members and the rows sorted, so decks compare and hash as
    multisets however they were built. `arc_weight` is the source's
    total arc weight, kept only when it differs from the arc count m, the
    number of members (so never for an unweighted digraph): construction
    stores None for a total equal to m. The members alone do not determine
    it when m = 1.
    """

    __slots__ = ("kind", "coefficients", "denominators", "arc_weight")

    def __init__(self, kind: PolyKind, coefficients: Sequence[Sequence[int]],
                 denominators: Sequence[int], arc_weight: Fraction | None = None):
        if min(denominators, default=1) < 1:
            raise ValueError(f"deck denominators must be >= 1, got {denominators}")
        if set(map(len, coefficients)) - {len(denominators)}:
            raise ValueError(f"every deck member needs {len(denominators)} coefficients")
        # Each column and its denominator over their gcd, which leaves the lcm
        # of its reduced denominators; then the rows sorted as Fractions.
        rows, dens = coefficients, denominators
        commons = [gcd(den, *column) for den, column in zip(dens, zip(*rows))] or dens
        if commons.count(1) != len(commons):
            rows = [list(map(floordiv, row, commons)) for row in rows]
        _set(self, "kind", kind)
        _set(self, "coefficients", tuple(sorted(map(tuple, rows))))
        _set(self, "denominators", tuple(map(floordiv, dens, commons)))
        _set(self, "arc_weight", None if arc_weight == len(coefficients) else arc_weight)

    @classmethod
    def from_polys(cls, n: int, kind: PolyKind, polys: Iterable[Sequence],
                   arc_weight: Fraction | None = None) -> Deck:
        rows = [list(map(Fraction, p)) for p in polys]
        members = [([c.numerator for c in row], [c.denominator for c in row]) for row in rows]
        return cls(kind, *_scaled_columns(n, members), arc_weight)

    @property
    def n(self) -> int:
        return len(self.denominators) - 1

    @property
    def polys(self) -> tuple[Polynomial, ...]:
        return tuple(tuple(map(Fraction, row, self.denominators)) for row in self.coefficients)


def _scaled_columns(n: int, members: list[tuple[list[int], list[int]]]):
    """(rows, dens) for Deck from members of degree n, trailing zeros
    stripped: each member a list of numerators and a list of their positive
    denominators, and each column scaled to the lcm of its denominators. A
    value need not be in lowest terms: Deck divides each column and its
    denominator by their gcd."""
    for nums, qs in members:
        while len(nums) > 1 and not nums[-1]:
            nums.pop()
            qs.pop()
        if len(nums) != n + 1:
            raise ValueError(f"deck member has degree {len(nums) - 1}, expected {n}")
    dens = [lcm(*column) for column in zip(*(qs for _, qs in members))] or [1] * (n + 1)
    if dens.count(1) == len(dens):
        return [nums for nums, _ in members], dens
    return [[p * (den // q) for p, q, den in zip(nums, qs, dens)] for nums, qs in members], dens


def deck(g: Digraph, kind: PolyKind) -> Deck:
    """Multiset of the pencil polynomials of all single-arc deletions of g,
    by column linearity (see the module docstring): one kernel call gives
    every card. Same caps as poly_of. Assumes a validated digraph."""
    if g.m == 0:
        raise ValueError("the edge deck of an arcless digraph is empty")
    _check_cap(g.n, kind)
    scale, terms = _arc_terms(kind, g.arc_weights())
    _, members = _pencil_cards(kind, g.n, g.arcs, terms)
    total = None if g.weights is None else sum(g.weights, Fraction(0))
    # Coefficient k of a member is its column entry over L^(n-k) (see _unscaled).
    return Deck(kind, members, [scale ** (g.n - k) for k in range(g.n + 1)], total)
