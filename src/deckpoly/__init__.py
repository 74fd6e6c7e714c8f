"""Exact edge-deck polynomial toolkit for loopless digraphs.

Six pencil polynomials (characteristic, Laplacian and signless Laplacian,
each in determinant and permanent flavor), their edge decks, the identities
tying a digraph's polynomial to its deck, deck reconstruction, and
exhaustive collision search over small digraphs. All arithmetic is exact
rational; there is no floating point anywhere.
"""

from .digraphs import (
    Digraph,
    InvalidDigraphError,
    adjacency,
    delete_arc,
    directed_cycle,
    directed_path,
    enumerate_digraphs,
    validate,
)
from .graph_polys import (
    F1,
    F2,
    F3,
    F4,
    F5,
    F6,
    SIX_KINDS,
    Deck,
    PolyKind,
    deck,
    kind_name,
    parse_kind,
    pencil_at,
    poly_of,
    poly_of_oracle,
)
from .identities import (
    IdentityReport,
    check_eq17,
    check_thm21,
    check_thm22,
    check_thm23,
    check_thm31,
)
from .reconstruct import (
    Inconsistent,
    OneParameterFamily,
    ReconstructionResult,
    RoundTripReport,
    Unique,
    deck_sum,
    reconstruct,
    verify_roundtrip,
)
from .search import CollisionGroup, canonical_counterexample, find_deck_collisions

__version__ = "0.1.0"

__all__ = [
    "CollisionGroup",
    "Deck",
    "Digraph",
    "F1",
    "F2",
    "F3",
    "F4",
    "F5",
    "F6",
    "IdentityReport",
    "Inconsistent",
    "InvalidDigraphError",
    "OneParameterFamily",
    "PolyKind",
    "ReconstructionResult",
    "RoundTripReport",
    "SIX_KINDS",
    "Unique",
    "adjacency",
    "canonical_counterexample",
    "check_eq17",
    "check_thm21",
    "check_thm22",
    "check_thm23",
    "check_thm31",
    "deck",
    "deck_sum",
    "delete_arc",
    "directed_cycle",
    "directed_path",
    "enumerate_digraphs",
    "find_deck_collisions",
    "kind_name",
    "parse_kind",
    "pencil_at",
    "poly_of",
    "poly_of_oracle",
    "reconstruct",
    "validate",
    "verify_roundtrip",
]
