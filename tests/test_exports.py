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
