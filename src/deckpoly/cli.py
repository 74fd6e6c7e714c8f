"""Command line front door: digraph and deck files in, exact results out.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success (or a
unique reconstruction), 2 bad flags or unreadable/invalid input, 3 a
one-parameter reconstruction family, 4 an inconsistent deck, 5 a violated
identity in a verify sweep. Identical invocations with identical files
and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import contextmanager
from functools import cache
from math import comb

from . import graph_polys, identities, matrices, search, serialize
from .digraphs import validate
from .reconstruct import OneParameterFamily, Unique, reconstruct
from .graph_polys import (
    DET_MAX_VERTICES,
    DETERMINANT,
    F4,
    PERMANENT,
    SIX_KINDS,
    deck,
    kind_name,
    parse_kind,
    poly_of,
)
from .serialize import FormatError, to_canonical_json

# The check of each theorem whose trials draw an int matrix; the others draw
# a digraph. Named, not bound, so the call goes through the identities
# module's attribute, which a tracer may wrap.
MATRIX_CHECKS = {"2.1": "check_thm21", "2.2": "check_thm22", "2.3": "check_thm23"}
THEOREMS = (*MATRIX_CHECKS, "3.1", "1.7")
# Theorems whose trials may take a permanent of order --max-n.
PERMANENT_THEOREMS = ("2.3", "3.1", "1.7")


def _print(obj) -> None:
    sys.stdout.write(to_canonical_json(obj) + "\n")


def _load_digraph(path: str):
    g = serialize.digraph_from_obj(serialize.load_json(path))
    validate(g)
    return g


def cmd_compute(args) -> int:
    g = _load_digraph(args.input)
    p = poly_of(g, parse_kind(args.kind))
    _print(serialize.poly_to_strings(p))
    return 0


def cmd_deck(args) -> int:
    g = _load_digraph(args.input)
    d = deck(g, parse_kind(args.kind))
    serialize.dump_json(serialize.deck_to_obj(d), args.output)
    return 0


def cmd_reconstruct(args) -> int:
    d = serialize.deck_from_obj(serialize.load_json(args.deck))
    result = reconstruct(d)
    _print(serialize.result_to_obj(result))
    if isinstance(result, Unique):
        return 0
    if isinstance(result, OneParameterFamily):
        return 3
    return 4


def _verify_trial(theorem: str, rng: random.Random, max_n: int, weighted: bool):
    if theorem in MATRIX_CHECKS:
        matrix = identities.random_matrix(rng, rng.randint(1, max_n))
        return getattr(identities, MATRIX_CHECKS[theorem])(matrix)
    g = identities.random_digraph(rng, max_n, weighted=weighted)
    if theorem == "3.1":
        beta = identities.random_rational(rng)
        gamma = identities.random_nonzero_rational(rng)
        mode = rng.choice((DETERMINANT, PERMANENT))
        return identities.check_thm31(g, beta, gamma, mode)
    return identities.check_eq17(g, rng.choice(SIX_KINDS))


def cmd_verify(args) -> int:
    if args.trials < 1 or args.max_n < 1:
        raise ValueError("--trials and --max-n must be >= 1")
    if args.weighted and args.theorem in MATRIX_CHECKS:
        raise ValueError(f"--weighted weights digraph arcs; theorem {args.theorem} takes int matrices")
    taken, cap = (("permanents", matrices.RYSER_MAX_ORDER)
                  if args.theorem in PERMANENT_THEOREMS else ("determinants", DET_MAX_VERTICES))
    if args.max_n > cap:
        raise ValueError(f"theorem {args.theorem} takes {taken} of order up to --max-n, "
                         f"capped at {cap}, got {args.max_n}")
    rng = random.Random(args.seed)
    violations = []
    for _ in range(args.trials):
        report = _verify_trial(args.theorem, rng, args.max_n, args.weighted)
        if not report.holds:
            violations.append(serialize.report_to_obj(report))
    _print({
        "format_version": serialize.FORMAT_VERSION,
        "theorem": args.theorem,
        "trials": args.trials,
        "max_n": args.max_n,
        "seed": args.seed,
        "weighted": args.weighted,
        "violations": violations,
        "verdict": "violated" if violations else "holds",
    })
    return 5 if violations else 0


def _budget() -> int:
    raw = os.environ.get("DECKPOLY_BUDGET")
    if raw is None:
        return search.DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise FormatError(f"DECKPOLY_BUDGET must be an integer, got {raw!r}") from exc


def cmd_search(args) -> int:
    kind = parse_kind(args.kind)
    groups = search.find_deck_collisions(args.vertices, args.arcs, kind, budget=_budget())
    with open(args.output, "w", encoding="utf-8") as fh:
        for group in groups:
            fh.write(to_canonical_json(serialize.collision_group_to_obj(group)) + "\n")
    _print({
        "format_version": serialize.FORMAT_VERSION,
        "vertices": args.vertices,
        "arcs": args.arcs,
        "kind": kind_name(kind),
        "digraphs": comb(args.vertices * (args.vertices - 1), args.arcs),
        "groups": len(groups),
    })
    return 0


def cmd_counterexample(args) -> int:
    graph_polys._check_cap(args.n, F4)  # f4 is always computed
    cycle, rival = search.canonical_counterexample(args.n)
    pair = {"cycle": cycle, "path_plus_arc": rival}
    out = {
        "format_version": serialize.FORMAT_VERSION,
        "n": args.n,
        "digraphs": {name: serialize.digraph_to_obj(g) for name, g in pair.items()},
        "polynomials": {},
        "decks": {},
    }
    for name in ("f1", "f4"):
        kind = parse_kind(name)
        out["polynomials"][name] = {
            label: serialize.poly_to_strings(poly_of(g, kind)) for label, g in pair.items()
        }
        out["decks"][name] = {
            label: serialize.deck_to_obj(deck(g, kind)) for label, g in pair.items()
        }
    _print(out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The deckpoly parser, built on the first call and kept for the
    process: main reuses it, since parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="deckpoly",
        description="Exact digraph pencil polynomials, edge decks, identity checks, "
                    "deck reconstruction, and collision search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="polynomial of a digraph file")
    p.add_argument("--kind", required=True, help='"f1".."f6" or "general:BETA,GAMMA,det|per"')
    p.add_argument("--input", required=True, help="digraph JSON file")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("deck", help="edge deck of a digraph file, canonically sorted")
    p.add_argument("--kind", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="deck JSON file to write")
    p.set_defaults(func=cmd_deck)

    p = sub.add_parser("reconstruct", help="recover a polynomial from a deck file")
    p.add_argument("--deck", required=True, help="deck JSON file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="seeded random sweep of one identity")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--weighted", action="store_true",
                   help="draw nonzero rational arc weights (theorems 3.1 and 1.7 only)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive deck-collision search")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--arcs", type=int, required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--output", required=True,
                   help="newline-delimited collision groups are written here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("counterexample", help="the colliding cycle / path-plus-arc pair")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_counterexample)

    return parser


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int/str digit limit (4,300 digits by default) for one
    command, whose exact inputs and answers may be longer, and restore it
    for the caller. Pythons before 3.10.7 have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with _unlimited_int_digits():
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
