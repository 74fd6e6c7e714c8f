"""Recover a digraph polynomial from its edge deck.

The deck sum S(x) = sum of the deck members satisfies

    (m - n) * g + x * g' = S(x),

so coefficient k of g obeys (m - n + k) * c_k = s_k. s_k is the int sum
of the deck's column k over the column's one denominator, so every c_k
with m - n + k != 0 is forced at the cost of one division. The one
exponent k* = n - m (when it lands in [0, n]) is annihilated: x^{k*}
solves the homogeneous equation, and only structural side constraints
can pin it. The trace rule, c_{n-1} = -beta * W for the total arc weight
W, is applied once, right after the solve: it checks c_{n-1} where the
deck forces it (m >= 2) and pins it where it is free (m = 1). At m = n
the zero column sums of D - A pin c_0 to 0 for determinant kinds with
beta = -gamma. When no rule pins x^{k*}, the honest answer is a
one-parameter family, not a guess.

The module reads decks only: `reconstruct` takes a Deck and `outcome`
reads its answer against a polynomial. A round trip from a digraph is
composed by the caller, outcome(reconstruct(deck(g, kind)), poly_of(g,
kind)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from . import polynomials
from .digraphs import Frozen
from .graph_polys import DETERMINANT, Deck


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
    on n vertices has, and one of one member with arc_weight 0.
    Then the rules, in order. The trace rule, c_{n-1} = -beta*W with W
    the deck's arc_weight (m when the field is absent), holds for every
    pencil polynomial: where the deck forces c_{n-1} (m >= 2) a deck that
    disagrees with it is Inconsistent, and c_{n-1} is then set to -beta*W,
    which pins it where it is free (m = 1). The annihilated equation
    0 * c_{k*} = s_{k*} must hold. The answer is Unique when m > n (no
    coefficient is annihilated), when m = 1, or when m = n for a
    determinant kind with beta = -gamma (f2 among the named kinds): at
    x = 0 its pencil is -beta*(D - A), whose columns sum to zero, so c_0,
    left 0 by the solve, vanishes. Anything else stays a one-parameter
    family.

    At m = n the annihilated c_0 is, by the corollary in graph_polys'
    module docstring, 0 unless every in-degree is 1, and then the term on
    all n arcs. No rule here uses it: whether the deck fixes it is open.
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
    # Trace rule: coefficient n-1 of the pencil polynomial is
    # -beta * trace(D) = -beta * (total arc weight).
    weight = m if d.arc_weight is None else d.arc_weight
    trace = -d.kind.beta * weight
    if m >= 2 and coeffs[n - 1] != trace:
        return Inconsistent(f"coefficient {n - 1} is {coeffs[n - 1]}, but the trace rule "
                            f"gives -beta * W = {trace} for the arc weight W = {weight}")
    coeffs[n - 1] = trace
    if kstar >= 0 and sums[kstar] != 0:
        return Inconsistent(f"coefficient {kstar}: equation 0 * c_{kstar} = "
                            f"{Fraction(sums[kstar], dens[kstar])} cannot hold")
    if m > n or m == 1 or m == n and d.kind.mode == DETERMINANT and d.kind.beta == -d.kind.gamma:
        return Unique(polynomials.normalize(coeffs))
    return OneParameterFamily(polynomials.normalize(coeffs), kstar)


def outcome(result: ReconstructionResult, poly: polynomials.Polynomial) -> str:
    """How `result` stands to a polynomial `poly` the deck came from:
    "recovered" (Unique and equal), "covered" (a family that contains it)
    or "missed" (anything else, an Inconsistent result included)."""
    if isinstance(result, Unique):
        return "recovered" if result.poly == poly else "missed"
    if isinstance(result, OneParameterFamily):
        pairs = enumerate(zip_longest(poly, result.base, fillvalue=0))
        if all(a == b for k, (a, b) in pairs if k != result.free_exponent):
            return "covered"
    return "missed"
