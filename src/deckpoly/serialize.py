"""JSON payloads shared by the library and the CLI.

Every top-level payload carries "format_version": 1. Rationals are
serialized as strings ("p/q", or a plain decimal string for integers) so
no precision is lost in transit; only those two forms are read back.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd

from .digraphs import Digraph
from .graph_polys import (MAX_RATIONAL_CHARS, Deck, _rational_pairs, _scaled_columns, kind_name,
                          parse_kind, parse_rational)
from .polynomials import Polynomial
from .reconstruct import Inconsistent, OneParameterFamily, Unique

FORMAT_VERSION = 1
# What a value json.load returns is called in errors.
_JSON_TYPES = {dict: "an object", list: "an array", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


class FormatError(ValueError):
    """A payload does not match the documented file formats."""


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _payload_n(obj, what: str) -> int:
    """The integer "n" of a `what` payload: a JSON object whose
    format_version, current when absent, is the integer FORMAT_VERSION
    (not true, 1.0 or "1")."""
    if not isinstance(obj, dict):
        raise FormatError(f"a {what} payload must be a JSON object")
    version = _require_int(obj.get("format_version", FORMAT_VERSION), '"format_version"')
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    return _require_int(obj.get("n"), '"n"')


def fraction_from_str(text) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def poly_to_strings(p: Polynomial) -> list[str]:
    return [str(c) for c in p]


def _rational_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, without building the Fraction."""
    common = gcd(p, q)
    p, q = p // common, q // common
    return f"{p}/{q}" if q != 1 else str(p)


def matrix_to_strings(matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix]


def digraph_to_obj(g: Digraph) -> dict:
    obj = {
        "format_version": FORMAT_VERSION,
        "n": g.n,
        "arcs": [[s, t] for s, t in g.arcs],
    }
    if g.weights is not None:
        obj["weights"] = [str(w) for w in g.weights]
    return obj


def digraph_from_obj(obj) -> Digraph:
    n = _payload_n(obj, "digraph")
    arcs = obj.get("arcs")
    if not isinstance(arcs, list):
        raise FormatError('"arcs" must be an array of [source, target] pairs')
    pairs = []
    for arc in arcs:
        if not isinstance(arc, list) or len(arc) != 2:
            raise FormatError(f"arc {arc!r} must be a [source, target] pair")
        pairs.append((_require_int(arc[0], "arc source"), _require_int(arc[1], "arc target")))
    weights = None
    if obj.get("weights") is not None:
        raw = obj["weights"]
        if not isinstance(raw, list) or len(raw) != len(pairs):
            raise FormatError('"weights" must be an array parallel to "arcs"')
        weights = tuple(fraction_from_str(w) for w in raw)
    return Digraph(n=n, arcs=tuple(pairs), weights=weights)


def _deck_members(d: Deck) -> list[list[str]]:
    """The members of d as coefficient strings, str() of each Fraction."""
    return [[str(c) if q == 1 else _rational_str(c, q) for c, q in zip(row, d.denominators)]
            for row in d.coefficients]


def deck_to_obj(d: Deck) -> dict:
    obj = {
        "format_version": FORMAT_VERSION,
        "n": d.n,
        "kind": kind_name(d.kind),
        "polys": _deck_members(d),
    }
    if d.arc_weight is not None:
        obj["arc_weight"] = str(d.arc_weight)
    return obj


def deck_from_obj(obj) -> Deck:
    n = _payload_n(obj, "deck")
    if n < 1:
        raise FormatError(f'"n" must be >= 1, got {n}')
    kind = obj.get("kind", "")
    if not isinstance(kind, str):
        got = _JSON_TYPES.get(type(kind), type(kind).__name__)
        raise FormatError(f'bad deck kind: "kind" must be a string, got {got}')
    try:
        kind = parse_kind(kind)
    except ValueError as exc:
        raise FormatError(f"bad deck kind: {exc}") from exc
    raw = obj.get("polys")
    if not isinstance(raw, list) or not raw:
        raise FormatError('"polys" must be a non-empty array of polynomials')
    if not all(isinstance(item, list) and item for item in raw):
        raise FormatError("a polynomial must be a non-empty array of coefficient strings")
    arc_weight = obj.get("arc_weight")
    if arc_weight is not None:
        arc_weight = fraction_from_str(arc_weight)
    try:
        return Deck(kind, *_scaled_columns(n, [_rational_pairs(item) for item in raw]), arc_weight)
    except ValueError as exc:  # a bad coefficient or a member of the wrong degree
        raise FormatError(str(exc)) from exc


def value_to_obj(value):
    """Serialize a scalar or polynomial identity side."""
    if isinstance(value, tuple):
        return poly_to_strings(value)
    return str(value)


def report_to_obj(report) -> dict:
    return {
        "identity": report.identity,
        "instance": report.instance,
        "lhs": value_to_obj(report.lhs),
        "rhs": value_to_obj(report.rhs),
        "verdict": report.verdict,
    }


def result_to_obj(result) -> dict:
    if isinstance(result, Unique):
        return {"result": "unique", "poly": poly_to_strings(result.poly)}
    if isinstance(result, OneParameterFamily):
        return {
            "result": "one_parameter_family",
            "base": poly_to_strings(result.base),
            "free_exponent": result.free_exponent,
        }
    if isinstance(result, Inconsistent):
        return {"result": "inconsistent", "detail": result.detail}
    raise TypeError(f"not a reconstruction result: {result!r}")


def collision_group_to_obj(group) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind_name(group.deck.kind),
        "n": group.deck.n,
        "m": len(group.deck.coefficients),
        "deck_signature": _deck_members(group.deck),
        "members": [
            {"digraph": digraph_to_obj(g), "poly": poly_to_strings(p)}
            for g, p in group.members
        ],
    }


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_canonical_json(obj) -> str:
    """One fixed rendering so identical runs emit identical bytes."""
    return _CANONICAL.encode(obj)


def _bounded_int(text: str) -> int:
    """An integer literal of a JSON input, read only up to MAX_RATIONAL_CHARS
    characters, like a rational string: int() takes time quadratic in the
    length, and the CLI lifts Python's digit limit on it."""
    if len(text) > MAX_RATIONAL_CHARS:
        raise FormatError(f"integer literal of {len(text)} characters; "
                          f"at most {MAX_RATIONAL_CHARS} are read")
    return int(text)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_bounded_int)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc


def _cut(fd: int, length: int) -> None:
    """Truncate fd's file to length if it is longer. A character device or
    FIFO has size 0, so it is never truncated (that would raise EINVAL)."""
    if os.fstat(fd).st_size > length:
        os.ftruncate(fd, length)


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, in place: the file is opened without
    O_TRUNC, which cost about 0.1 ms per file that holds data on an ext4
    file system mounted with `discard`, and cut to the text's length after
    the write. A write that raises leaves the file empty, so no old byte
    ever follows new ones."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
        try:
            view = memoryview(data)
            while view:  # a raw write may take only part of its bytes
                view = view[fh.write(view):]
            _cut(fh.fileno(), len(data))
        except BaseException:
            _cut(fh.fileno(), 0)
            raise


def dump_json(obj, path: str) -> None:
    write_text(path, to_canonical_json(obj) + "\n")
