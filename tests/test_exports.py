"""Every name a module lists in ``__all__`` must exist on that module."""

import importlib
import pkgutil

import pytest

import k3pairs

MODULES = [importlib.import_module(f"k3pairs.{info.name}")
           for info in pkgutil.iter_modules(k3pairs.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing {missing}"
