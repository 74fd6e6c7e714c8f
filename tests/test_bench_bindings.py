"""The benchmark's hold on the package: every name perfbench's tracer wraps
and every deckpoly name its child process uses still resolves. The tracer
has no fallback for a missing name, so a rename under src/ would otherwise
surface only as a failed benchmark run.

perfbench/ is read here, never edited.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import deckpoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def import_all_modules():
    for info in pkgutil.iter_modules(deckpoly.__path__):
        importlib.import_module(f"deckpoly.{info.name}")


def test_every_traced_name_resolves():
    tracer = load_tracer()
    import_all_modules()
    targets = tracer.SPANNED + tracer.COUNTED + tracer.YIELDING
    assert targets
    for module, func in targets:
        assert callable(getattr(importlib.import_module(f"deckpoly.{module}"), func)), (module, func)


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracer()
    import_all_modules()
    deck = deckpoly.graph_polys.deck
    t = tracer.Tracer()
    try:
        t.install()
        assert deckpoly.graph_polys.deck is not deck
    finally:
        t.uninstall()
    assert deckpoly.graph_polys.deck is deck


def from_import(module, name):
    """What `from module import name` binds."""
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def test_every_name_the_benchmark_child_uses_resolves():
    """Every deckpoly name perfbench/child.py imports, and every attribute
    it reads off one of those names, as `deckpoly.deck` or `serialize.deck_from_obj`."""
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "deckpoly":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deckpoly":
            for alias in node.names:
                bound[alias.asname or alias.name] = from_import(node.module, alias.name)
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound}
    # The round trip the roundtrip workload times, and the checks after it.
    assert {("deckpoly", "deck"), ("serialize", "deck_to_obj"), ("serialize", "deck_from_obj"),
            ("deckpoly", "reconstruct"), ("deckpoly", "poly_of_oracle")} <= read
    assert "_poly_of_cached" in bound
    for name, attr in sorted(read):
        assert hasattr(bound[name], attr), f"{name}.{attr}"
