"""Recover a digraph polynomial from its edge deck.

The deck sum S(x) = sum of the deck members satisfies

    (m - n) * g + x * g' = S(x),

so coefficient k of g obeys (m - n + k) * c_k = s_k. s_k is the int sum
of the deck's column k over the column's one denominator, so every c_k
with m - n + k != 0 is forced at the cost of one division. The one
exponent k* = n - m (when it lands in [0, n]) is annihilated: x^{k*}
solves the homogeneous equation, and only structural side constraints
can pin it: the trace rule at m = 1, and at m = n the zero column sums
of D - A for determinant kinds with beta = -gamma. When none applies,
the honest answer is a one-parameter family, not a guess.
"""

from __future__ import annotations

from fractions import Fraction

from . import polynomials
from .digraphs import Digraph, Frozen
from .graph_polys import DETERMINANT, Deck, PolyKind, deck, poly_of


class Unique(Frozen):
    """The deck fixes the polynomial: `poly`, a coefficient tuple."""

    __slots__ = ("poly",)


class OneParameterFamily(Frozen):
    """base + C * x^free_exponent satisfies the deck equation for every C."""

    __slots__ = ("base", "free_exponent")


class Inconsistent(Frozen):
    """No digraph has this deck; `detail` says which equation fails."""

    __slots__ = ("detail",)


ReconstructionResult = Unique | OneParameterFamily | Inconsistent


def reconstruct(d: Deck) -> ReconstructionResult:
    """Solve the coefficient equations (m - n + k) * c_k = s_k.

    n and m are inferred from the deck itself (member degree and
    cardinality). Every member must be monic of degree n, as the pencil
    polynomial of every card is; any other deck is Inconsistent. So is a
    deck of more than n(n - 1) members, the most arcs a loopless digraph
    on n vertices has, and one of one member with arc_weight 0. Side
    constraints on the annihilated coefficient, applied in order: the
    trace rule pins c_{n-1} to -beta*W when m = 1, W the deck's arc_weight
    (m when unset), and a determinant kind with beta = -gamma (f2 among
    the named kinds) pins c_0 to 0 when m = n. Anything else with k* in
    range stays a one-parameter family.

    At m = n the annihilated c_0 has a closed form in the arcs, for any
    beta. No rule here uses it: whether the deck fixes it is open.

    Proposition. Let m = n. Then c_0 = 0 unless every vertex has in-degree
    exactly 1. If every vertex has, then

        c_0 = (-1)^n * prod(w_e) * beta^(n - |V(cycles)|)
              * prod_C (beta^|C| + s_C * gamma^|C|),

    where C runs over the directed cycles of G, V(cycles) is the set of
    vertices on them, and s_C = (-1)^(|C| - 1) in det mode, 1 in per mode.

    Proof. c_0 is the pencil polynomial at x = 0, det or per of
    -(beta*D + gamma*A), which is (-1)^n times that of M = beta*D + gamma*A.
    Column t of M is beta*d_t at row t plus gamma*w at the row of each
    arc (s, t) of weight w, d_t the weighted in-degree of t. A vertex of
    in-degree 0 makes its column zero, and then c_0 = 0. Otherwise the n
    arcs give every vertex in-degree exactly 1: t has one arc (p(t), t),
    of weight w_t, and column t is w_t * (beta*e_t + gamma*e_p(t)).
    Taking w_t out of every column leaves beta*I + gamma*P, with P the 0/1
    matrix of the predecessor map p. A permutation q of range(n) adds a
    term only if q(t) is t or p(t) for every t, and the t with q(t) = p(t)
    are mapped onto themselves by p, so they form a union of cycles of
    p: vertex sets of directed cycles of G, which are disjoint since each
    vertex has one predecessor. Each subset of the cycles gives one term:
    gamma^|C| for each chosen cycle C, with the sign (-1)^(|C| - 1) of a
    cyclic permutation in det mode, and beta for every other vertex. The
    sum over subsets is the product over cycles above, with
    beta^(n - |V(cycles)|) from the vertices on no cycle. QED

    tests/test_closed_form.py checks the proposition against poly_of.
    """
    m = len(d.coefficients)
    if m == 0:
        raise ValueError("cannot reconstruct from an empty deck")
    n = d.n
    sums, dens = list(map(sum, zip(*d.coefficients))), d.denominators
    # Monic: the leading entry equals its column's denominator (both 1 in canonical form).
    for row in d.coefficients:
        if row[n] != dens[n]:
            return Inconsistent(f"deck member leading coefficient {Fraction(row[n], dens[n])} != 1")
    if m > n * (n - 1):
        return Inconsistent(f"{m} deck members, more than the {n * (n - 1)} arcs "
                            f"a loopless digraph on {n} vertices can have")
    if m == 1 and d.arc_weight == 0:
        return Inconsistent("arc_weight 0 for a single arc, whose weight is nonzero")
    kstar = n - m
    coeffs = [Fraction(s, q * (k - kstar)) if k != kstar else Fraction(0)
              for k, (s, q) in enumerate(zip(sums, dens))]
    if kstar < 0:
        return Unique(polynomials.normalize(coeffs))
    if sums[kstar] != 0:
        return Inconsistent(f"coefficient {kstar}: equation 0 * c_{kstar} = "
                            f"{Fraction(sums[kstar], dens[kstar])} cannot hold")
    if kstar == n - 1:
        # Trace rule: coefficient n-1 of the pencil polynomial is
        # -beta * trace(D) = -beta * (total arc weight).
        coeffs[kstar] = -d.kind.beta * (m if d.arc_weight is None else d.arc_weight)
        return Unique(polynomials.normalize(coeffs))
    if kstar == 0 and d.kind.mode == DETERMINANT and d.kind.beta == -d.kind.gamma:
        # At x = 0 the pencil is -beta*D - gamma*A = -beta*(D - A), whose
        # columns sum to zero, so its determinant and c_0 (left 0) vanish.
        return Unique(polynomials.normalize(coeffs))
    return OneParameterFamily(polynomials.normalize(coeffs), kstar)


class RoundTripReport(Frozen):
    """Outcome of deck -> reconstruct against the known source polynomial.

    outcome is "recovered" (Unique and equal), "covered" (family contains
    the truth), or "missed".
    """

    __slots__ = ("outcome", "expected", "result")


def verify_roundtrip(g: Digraph, kind: PolyKind) -> RoundTripReport:
    expected = poly_of(g, kind)
    result = reconstruct(deck(g, kind))
    if isinstance(result, Unique):
        outcome = "recovered" if result.poly == expected else "missed"
    elif isinstance(result, OneParameterFamily):
        diff = polynomials.sub(expected, result.base)
        in_family = all(
            c == 0 for k, c in enumerate(diff) if k != result.free_exponent
        )
        outcome = "covered" if in_family else "missed"
    else:
        outcome = "missed"
    return RoundTripReport(outcome, expected, result)
