"""The benchmark's hold on the package: every name perfbench's tracer wraps
and every deckpoly name its child process uses still resolves. The tracer
has no fallback for a missing name, so a rename under src/ would otherwise
surface only as a failed benchmark run. And the other way round: every
public name under src/ is used by the package, exported by it, or bound by
the benchmark, so code only the tests use lives in tests/oracles.py.

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


def child_bindings():
    """What perfbench/child.py binds from deckpoly, {name: object}, and the
    (name, attribute) pairs it reads off those names, as `deckpoly.deck` or
    `serialize.deck_from_obj`."""
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
    return bound, read


def test_every_name_the_benchmark_child_uses_resolves():
    """Every deckpoly name perfbench/child.py imports, and every attribute
    it reads off one of those names."""
    bound, read = child_bindings()
    # The round trip the roundtrip workload times, and the checks after it.
    assert {("deckpoly", "deck"), ("serialize", "deck_to_obj"), ("serialize", "deck_from_obj"),
            ("deckpoly", "reconstruct"), ("deckpoly", "poly_of_oracle")} <= read
    assert "_poly_of_cached" in bound
    for name, attr in sorted(read):
        assert hasattr(bound[name], attr), f"{name}.{attr}"


SRC = Path(deckpoly.__file__).resolve().parent


def public_definitions(tree):
    """(name, node) for each public name a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def loaded_names(node):
    """Every name `node` reads, bare (`deck`) or as an attribute (`graph_polys.deck`)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_public_name_under_src_has_a_user_outside_the_tests():
    """A public module-level name must be read somewhere under src/ outside
    its own definition, be in deckpoly.__all__, or be bound by the benchmark
    (a tracer target, or a name perfbench/child.py imports or reads).
    Anything else is used by the tests alone and belongs in tests/oracles.py."""
    tracer = load_tracer()
    bound, read = child_bindings()
    benchmark = {func for _, func in tracer.SPANNED + tracer.COUNTED + tracer.YIELDING}
    benchmark |= set(bound) | {attr for _, attr in read}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    definitions = [(module, name, node) for module, tree in trees.items()
                   for name, node in public_definitions(tree)]
    assert len(definitions) > 50
    unused = [f"{module}: {name}" for module, name, definition in definitions
              if name not in deckpoly.__all__ and name not in benchmark
              and not any(name in loaded_names(node) for tree in trees.values()
                          for node in tree.body if node is not definition)]
    assert unused == []
