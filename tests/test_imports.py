"""Every name a package module imports is used in that module.

No linter ships with the package, so this scan stands in for one: an
import is used when its name occurs in the module body or is listed in
the module's __all__ (a re-export).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nlclaw").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_scan_flags_unused_and_honours_all():
    src = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom typing import Callable, Sequence\n"
        "from .grids import sample\n"
        "__all__ = ['sample']\n"
        "def f(x: Sequence) -> None:\n    return np.sum(x)\n"
    )
    assert unused_imports(src) == ["Callable", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
