"""Command line front door: digraph and deck files in, exact results out.

Results go to stdout, diagnostics to stderr. Exit codes: 0 success (or a
unique reconstruction), 2 bad flags or unreadable/invalid input, 3 a
one-parameter reconstruction family, 4 an inconsistent deck, 5 a violated
identity in a verify sweep. Identical invocations with identical files
and seeds produce byte-identical output. An --output file is overwritten
in place and cut to length (no O_TRUNC); a failed write leaves it empty.
verify's theorem labels, what a trial of each draws and the cap that binds
it are read from identities.THEOREMS.
"""

from __future__ import annotations

import os
import random
import re
import sys
from contextlib import contextmanager, suppress
from math import comb
from types import SimpleNamespace

from . import graph_polys, identities, search, serialize
from .digraphs import validate
from .reconstruct import OneParameterFamily, Unique, reconstruct
from .graph_polys import F4, PERMANENT, deck, kind_name, parse_kind, poly_of
from .serialize import FormatError, to_canonical_json


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


def cmd_verify(args) -> int:
    if args.trials < 1 or args.max_n < 1:
        raise ValueError("--trials and --max-n must be >= 1")
    draws, mode, _ = identities.THEOREMS[args.theorem]
    if args.weighted and draws == identities.MATRIX:
        raise ValueError(f"--weighted weights digraph arcs; theorem {args.theorem} takes int matrices")
    taken = "permanents" if mode == PERMANENT else "determinants"
    cap = graph_polys.cap_of(mode)
    if args.max_n > cap:
        raise ValueError(f"theorem {args.theorem} takes {taken} of order up to --max-n, "
                         f"capped at {cap}, got {args.max_n}")
    rng = random.Random(args.seed)
    violations = []
    for _ in range(args.trials):
        report = identities.trial(args.theorem, rng, args.max_n, args.weighted)
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
    return search.DEFAULT_BUDGET if raw is None else _integer("DECKPOLY_BUDGET", raw)


def cmd_search(args) -> int:
    kind = parse_kind(args.kind)
    groups = search.find_deck_collisions(args.vertices, args.arcs, kind, budget=_budget())
    serialize.write_text(args.output, "".join(
        to_canonical_json(serialize.collision_group_to_obj(group)) + "\n" for group in groups))
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


REQUIRED = "required"
# The verify labels whose trials draw a digraph, the ones --weighted weights.
_DIGRAPH_THEOREMS = [label for label, (draws, _, _) in identities.THEOREMS.items()
                     if draws == identities.DIGRAPH]
KIND = (str, REQUIRED, '"f1".."f6" or "general:BETA,GAMMA,det|per", read as written')
INPUT = (str, REQUIRED, "digraph JSON file")

# Each command's function, one-line help and flags. A flag maps its name to
# (type, default, help): the type is str, int, a tuple of the values the
# flag takes, or bool for a switch that takes no value; the default is
# REQUIRED for a flag that must be given. _read_flags reads argv against
# this table in one loop: building argparse's parsers, whose gettext calls
# import locale, took a fresh process 3.7-6.2 ms, more than a small search.
COMMANDS = {
    "compute": (cmd_compute, "polynomial of a digraph file", {"kind": KIND, "input": INPUT}),
    "deck": (cmd_deck, "edge deck of a digraph file, canonically sorted", {
        "kind": KIND, "input": INPUT, "output": (str, REQUIRED, "deck JSON file to write")}),
    "reconstruct": (cmd_reconstruct, "recover a polynomial from a deck file", {
        "deck": (str, REQUIRED, "deck JSON file")}),
    "verify": (cmd_verify, "seeded random sweep of one identity", {
        "theorem": (tuple(identities.THEOREMS), REQUIRED, "identity to check"),
        "trials": (int, 100, "random instances to check"),
        "max-n": (int, 6, "largest order drawn"),
        "seed": (int, REQUIRED, "seed of the instance stream"),
        "weighted": (bool, False, "draw nonzero rational arc weights "
                                  f"(theorems {' and '.join(_DIGRAPH_THEOREMS)} only)")}),
    "search": (cmd_search, "exhaustive deck-collision search", {
        "vertices": (int, REQUIRED, "vertex count n"),
        "arcs": (int, REQUIRED, "arc count m"),
        "kind": KIND,
        "output": (str, REQUIRED, "newline-delimited collision groups are written here")}),
    "counterexample": (cmd_counterexample, "the colliding cycle / path-plus-arc pair", {
        "n": (int, REQUIRED, "vertex count, at least 3")}),
}
# The words after a flag that start with "-" and still read as its value: "-"
# alone, a negative number, or text with a space. Any other such word reads
# as a flag, so "--output --kind f1" lacks the output's value.
_NOT_A_FLAG = re.compile(r"-|-\d+|-\d*\.\d+|-.* .*")


def _integer(name: str, raw: str) -> int:
    """raw in the one rational grammar (graph_polys.parse_rational) with
    denominator 1, which int() is not: it also reads " 5" and "1_000"."""
    with suppress(ValueError):
        if (value := graph_polys.parse_rational(raw)).denominator == 1:
            return value.numerator
    got = repr(raw) if len(raw) <= 20 else f"a value of {len(raw)} characters"
    raise FormatError(f"{name} must be an integer, got {got}")


def _usage(command) -> str:
    if command is None:
        return f"usage: deckpoly [-h] {{{','.join(COMMANDS)}}} ..."
    words = ["usage: deckpoly", command, "[-h]"]
    for name, (type_, default, _) in COMMANDS[command][2].items():
        word = _spelling(name, type_)
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _spelling(name: str, type_) -> str:
    if type_ is bool:
        return f"--{name}"
    if isinstance(type_, tuple):
        return f"--{name} {{{','.join(type_)}}}"
    return f"--{name} {name.upper().replace('-', '_')}"


def _help(command) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Exact digraph pencil polynomials, edge decks, identity checks,",
                  "deck reconstruction, and collision search.", "", "commands:"]
        lines += [f"  {name:<16}{spec[1]}" for name, spec in COMMANDS.items()]
        flags = {}
    else:
        lines.append(f"{COMMANDS[command][1]}.")
        flags = COMMANDS[command][2]
    lines += ["", "flags:", f"  {'-h, --help':<16}show this help and exit"]
    for name, (type_, default, text) in flags.items():
        note = ("" if type_ is bool else " (required)" if default is REQUIRED
                else f" (default {default})")
        lines += [f"  {_spelling(name, type_)}", f"{'':<18}{text}{note}"]
    return "\n".join(lines) + "\n"


def _read_flags(command, argv):
    """The flags of argv for command (None: the top level, which has none)
    read against COMMANDS, with their defaults, as attributes named with _
    for -; or None when argv asks for help. A flag is --name VALUE or
    --name=VALUE, and name may be any prefix of one flag's name. Raises
    ValueError on an unknown, ambiguous, malformed or missing flag."""
    flags = COMMANDS[command][2] if command else {}
    values = {}
    argv = iter(argv)
    for arg in argv:
        if arg == "-h":
            return None
        if not arg.startswith("--"):
            if command:
                raise ValueError(f"unrecognized argument {arg!r}")
            raise ValueError(f"unknown command {arg!r}; choose from {', '.join(COMMANDS)}")
        name, eq, value = arg[2:].partition("=")
        names = ([name] if name in flags else
                 [f for f in (*flags, "help") if name and f.startswith(name)])
        if len(names) != 1:
            raise ValueError(f"{'ambiguous' if names else 'unknown'} flag --{name}")
        name = names[0]
        type_ = bool if name == "help" else flags[name][0]
        if type_ is bool:
            if eq:
                raise ValueError(f"--{name} takes no value")
            if name == "help":
                return None
            values[name] = True
            continue
        if not eq:
            value = next(argv, None)
            if value is None or value.startswith("-") and not _NOT_A_FLAG.fullmatch(value):
                raise ValueError(f"--{name} expects a value")
        if type_ is int:
            value = _integer(f"--{name}", value)
        elif isinstance(type_, tuple) and value not in type_:
            raise ValueError(f"--{name} must be one of {', '.join(type_)}, got {value!r}")
        values[name] = value
    if command is None:
        raise ValueError(f"a command is required; choose from {', '.join(COMMANDS)}")
    if missing := [f"--{f}" for f, spec in flags.items() if spec[1] is REQUIRED and f not in values]:
        raise ValueError(f"missing required flags: {', '.join(missing)}")
    return SimpleNamespace(**{f.replace("-", "_"): values.get(f, spec[1])
                              for f, spec in flags.items()})


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int/str digit limit (4,300 digits by default) for one
    command, whose exact inputs and answers may be longer, and restore it
    for the caller."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _read_flags(command, argv[1:] if command else argv)
    except ValueError as exc:
        sys.stderr.write(f"{_usage(command)}\nerror: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(_help(command))
        return 0
    try:
        with _unlimited_int_digits():
            return COMMANDS[command][0](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
