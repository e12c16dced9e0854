import importlib
import pkgutil

import pytest

import toepcov

MODULES = sorted(
    name for name in (m.name for m in pkgutil.iter_modules(toepcov.__path__))
    if hasattr(importlib.import_module(f"toepcov.{name}"), "__all__")
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    """A name removed from a module must also leave its ``__all__``."""
    mod = importlib.import_module(f"toepcov.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
