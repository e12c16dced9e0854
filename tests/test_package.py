import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
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


def test_readme_quickstart_runs():
    """README's library quickstart runs as printed."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    order, family, err = out.getvalue().split()
    assert (order, family) == ("1", "exp-1")
    assert float(err) == pytest.approx(0.0281, abs=5e-5)
