import importlib
import pkgutil

import pytest

import qebev

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(qebev.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", ["qebev", *(f"qebev.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    # perfbench's traced runs getattr every exported name, so an export left
    # behind by a deletion would crash them rather than fail a unit test.
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing


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
