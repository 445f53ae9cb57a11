"""Every name the benchmark imports from the package still resolves.

``perfbench/`` imports library names inside its functions, so a removal
it still depends on would otherwise show only in the slow benchmark run.
This reads the benchmark's sources with ``ast`` and changes nothing there.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dysurv_imports():
    """``(file, module, name)`` for every ``from dysurv[.module] import name``
    in ``perfbench/*.py``, at any nesting depth."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "dysurv" or node.module.startswith("dysurv.")
            ):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def _resolves(module: str, name: str) -> bool:
    # as the import statement does: an attribute, else a submodule
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_imports_resolves():
    imports = _dysurv_imports()
    assert len({(m, n) for _, m, n in imports}) >= 20  # the walk reaches nested imports
    missing = [f"{f}: from {m} import {n}" for f, m, n in imports if not _resolves(m, n)]
    assert missing == []
