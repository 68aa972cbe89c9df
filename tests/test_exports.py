import ast
import importlib
import pathlib
import pkgutil

import pytest

import qebev

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(qebev.__path__) if name != "__main__"
)
SRC = pathlib.Path(qebev.__file__).parent
# The files whose references keep a name public: every qebev module (the
# package root included) and the two perfbench files that drive and trace it.
PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"
CALLERS = [*sorted(SRC.glob("*.py")), PERFBENCH / "layers.py", PERFBENCH / "harness.py"]
# Exported names no other caller references, each with why it stays public.
UNREFERENCED_EXPORTS = {
    "bench.BenchRow": "the rows of the ScalingReport that run_scaling returns",
    "bench.ScalingReport": "returned by run_scaling",
    "dqem.FitResult": "returned by fit_projections",
    "ltfm.SequenceResult": "returned by run_sequence; perfbench reads its frames",
    "ltfm.iter_sequence": "the streaming form of run_sequence, for callers that keep no frames",
}


@pytest.mark.parametrize("name", ["qebev", *(f"qebev.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    # perfbench's traced runs getattr every exported name, so an export left
    # behind by a deletion would crash them rather than fail a unit test.
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


def references(path: pathlib.Path) -> set[str]:
    """The "module.name" pairs of qebev modules that a file refers to: names
    imported from a module, attributes read off a module, and span names
    spelled as strings (perfbench's)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}  # local name -> the qebev module it is
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if path.parent != SRC:
                    continue
                source = ("qebev." + node.module) if node.module else "qebev"
            else:
                source = node.module or ""
            for alias in node.names:
                if source == "qebev" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif source.startswith("qebev."):
                    found.add(f"{source[len('qebev.'):]}.{alias.name}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.partition(".")[0] in MODULES:
                found.add(node.value)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_every_export_has_a_caller_or_a_reason():
    # A public name is one that another module, the package root or perfbench
    # calls, or one that the allowlist says why it keeps.  The allowlist holds
    # no name that is no longer exported or that has gained a caller.
    refs = {path.stem: references(path) for path in CALLERS}
    unreferenced = set()
    for short in MODULES:
        callers = set().union(*(r for stem, r in refs.items() if stem != short))
        mod = importlib.import_module(f"qebev.{short}")
        unreferenced |= {f"{short}.{attr}" for attr in mod.__all__} - callers
    assert unreferenced == set(UNREFERENCED_EXPORTS)


def test_every_perfbench_span_is_a_function_install_wraps():
    # perfbench.layers.install wraps each traced module's __all__ and the
    # names in layers.PRIVATE.  A span it does not wrap is never recorded,
    # so its per-layer metric would silently read 0.
    from perfbench import layers

    spans = {*layers.TIMES.values(), *layers.CALLS.values(), *layers.OBSERVERS,
             *layers.MEMORY_SPANS}
    assert spans
    for span in sorted(spans):
        short, attr = span.split(".")
        assert short in layers.TRACED_MODULES, span
        mod = importlib.import_module(f"qebev.{short}")
        fn = getattr(mod, attr, None)
        assert callable(fn) and not isinstance(fn, type), span
        assert fn.__module__ == mod.__name__, span
        assert attr in (*mod.__all__, *layers.PRIVATE.get(short, ())), span
