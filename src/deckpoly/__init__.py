"""Exact edge-deck polynomial toolkit for loopless digraphs.

Six pencil polynomials (characteristic, Laplacian and signless Laplacian,
each in determinant and permanent flavor), their edge decks, the identities
tying a digraph's polynomial to its deck, deck reconstruction, and
exhaustive collision search over small digraphs. All arithmetic is exact
rational; there is no floating point anywhere.

The package namespace holds the names README's Library section documents;
everything else is reached through its submodule (`deckpoly.identities`,
`deckpoly.search`, `deckpoly.serialize`, ...).
"""

from .digraphs import Digraph, validate
from .graph_polys import (
    F1,
    F2,
    F3,
    F4,
    F5,
    F6,
    Deck,
    PolyKind,
    deck,
    parse_kind,
    poly_of,
    poly_of_oracle,
)
from .reconstruct import Inconsistent, OneParameterFamily, Unique, reconstruct

__version__ = "0.1.0"

__all__ = [
    "Deck",
    "Digraph",
    "F1",
    "F2",
    "F3",
    "F4",
    "F5",
    "F6",
    "Inconsistent",
    "OneParameterFamily",
    "PolyKind",
    "Unique",
    "deck",
    "parse_kind",
    "poly_of",
    "poly_of_oracle",
    "reconstruct",
    "validate",
]
