import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_perfbench_targets_resolve():
    """Every entry point the benchmark traces still exists in the package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"toepcov.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"toepcov.{module}.{attr}")
    assert not missing
