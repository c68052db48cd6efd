"""numpy stays behind one module.

The cross-instance dual-test engine (:mod:`repro.core.xbatch`) is the
only vectorized code in the package; every other module is exact
Python-int code that runs the same with or without numpy installed.
The scan reads the package source by AST, so a comment or docstring
that names numpy does not count, and it needs neither numpy nor
hypothesis.  The scanner is checked on its own too: a boundary check
that misses an import form would pass on a tree that breaks the rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def imported_modules(tree: ast.AST):
    """Every absolute module name an ``import`` statement in ``tree`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def imports_numpy(source: str) -> bool:
    """Whether any ``import`` statement in ``source`` names numpy."""
    return any(
        name == "numpy" or name.startswith("numpy.")
        for name in imported_modules(ast.parse(source))
    )


def test_only_the_dual_test_engine_imports_numpy():
    importers = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if imports_numpy(path.read_text(encoding="utf-8"))
    }
    assert importers == {"core/xbatch.py"}


@pytest.mark.parametrize(
    "source",
    [
        "import numpy",
        "import numpy as np",
        "import numpy.linalg",
        "import os, numpy",
        "from numpy import int64",
        "from numpy.typing import NDArray",
        "def f():\n    import numpy as np\n    return np",
        "try:\n    import numpy as np\nexcept ImportError:\n    np = None",
    ],
    ids=["plain", "aliased", "submodule", "in-a-list", "from", "from-submodule",
         "function-local", "guarded"],
)
def test_scan_sees_every_import_form(source):
    assert imports_numpy(source)


@pytest.mark.parametrize(
    "source",
    [
        '"""Vectorized on import numpy; see core/xbatch.py."""',
        "# import numpy as np",
        "import numpy_financial\nfrom numpydoc import docscrape",
        "from . import numpy",
    ],
    ids=["docstring", "comment", "similar-name", "relative"],
)
def test_scan_ignores_what_is_not_a_numpy_import(source):
    assert not imports_numpy(source)
