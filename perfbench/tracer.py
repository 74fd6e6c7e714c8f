"""Spans around deckpoly's functions, recorded from outside the package.

`Tracer.install()` wraps each target function and rebinds every name that
refers to it in every loaded deckpoly module. Rebinding all names, not
just the defining module's attribute, is needed because of three traps:

1. `poly_of` and `deck` are imported by name into `identities`,
   `reconstruct`, `search` and `cli`; patching `graph_polys` alone would
   miss every call made through those names.
2. On the package, `deckpoly.reconstruct` is the function, not the
   module, so modules are fetched from `sys.modules`.
3. `graph_polys._kernel` looks up `matrices.det_bareiss` and
   `matrices.per_ryser` at call time, so rebinding the `matrices`
   attributes covers every kernel call made by `poly_of`.

A span is (name, start, end, parent span), read from the given clock;
spans stay in memory until `dump()`. Self time is a span's duration minus
its children's durations (calls are nested and single-threaded, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed with spans.
SPANNED = (
    ("matrices", "det_bareiss"),
    ("matrices", "per_ryser"),
    ("polynomials", "interpolate"),
    ("graph_polys", "pencil_at"),
    ("graph_polys", "poly_of"),
    ("graph_polys", "deck"),
    ("search", "find_deck_collisions"),
    ("identities", "check_thm21"),
    ("identities", "check_thm22"),
    ("identities", "check_thm23"),
    ("reconstruct", "reconstruct"),
    ("serialize", "to_canonical_json"),
    ("serialize", "deck_from_obj"),
    ("cli", "main"),
)
# Called too often for a span each; only counted.
COUNTED = (("digraphs", "delete_arc"),)
YIELDING = (("digraphs", "enumerate_digraphs"),)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.stats: dict[str, float] = defaultdict(int)
        self._restore: list = []

    def _after(self, name: str):
        """Extra per-call stats taken from a call's arguments or result."""
        stats = self.stats

        def max_order(args, result):
            stats[name + ".max_order"] = max(stats[name + ".max_order"], len(args[0]))

        def output_bytes(args, result):
            stats[name + ".bytes"] += len(result)

        def groups(args, result):
            stats["search.groups"] += len(result)

        return {
            "matrices.det_bareiss": max_order,
            "matrices.per_ryser": max_order,
            "serialize.to_canonical_json": output_bytes,
            "search.find_deck_collisions": groups,
        }.get(name)

    def _spanned(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock, after = self.spans, self.stack, self.clock, self._after(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        stats, key = self.stats, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yielding(self, name: str, fn):
        stats, key = self.stats, name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stats[key] += 1
                yield item

        return wrapper

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "deckpoly" or name.startswith("deckpoly.")]
        targets = ([(t, self._spanned) for t in SPANNED]
                   + [(t, self._counted) for t in COUNTED]
                   + [(t, self._yielding) for t in YIELDING])
        for (module, func), make in targets:
            original = getattr(sys.modules["deckpoly." + module], func)
            wrapper = make(f"{module}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def layer_stats(self) -> dict[str, float]:
        """calls, total_s and self_s per spanned function, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(int, self.stats)
        for idx, (nid, start, end, _) in enumerate(self.spans):
            name = self.names[nid]
            out[name + ".calls"] += 1
            out[name + ".total_s"] += end - start
            out[name + ".self_s"] += end - start - child_time[idx]
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as {"names": [...], "spans": [[name, start, end, parent], ...]}."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
