"""Every name a package module imports is used in that module, and a 1D
run loads no scipy module.

No linter ships with the package, so the scan below stands in for one: an
import is used when its name occurs in the module body or is listed in
the module's __all__ (a re-export).
"""

import ast
import subprocess
import sys
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


# scipy.optimize and scipy.ndimage cost about half a second to import, so
# the package imports each inside the one function that calls it: brentq in
# the Godunov sonic-point search, convolve1d in the 2D solver
NO_SCIPY = """
import sys
from pathlib import Path


def scipy_modules():
    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))


import nlclaw, nlclaw.acceptance, nlclaw.cli, nlclaw.runner

scipy_modules()
out = Path(sys.argv[1])
for name, text in {
    "nn": "mode = nn\\ninitial = riemann 1 0\\ndomain = -1 1.5\\n",
    "freg": "mode = flux_reg\\nflux = cubic\\ninitial = riemann 2 0\\n"
            "domain = -0.5 2.5\\n",
}.items():
    scn = out / f"{name}.scn"
    scn.write_text(
        f"name = {name}\\n{text}epsilon = 0.1\\nT = 0.2\\ndx = 0.02\\n"
        "stride = 4\\n"
    )
    assert nlclaw.runner.run_file(scn, out / "res") == 0, name
scipy_modules()
"""


def test_a_1d_riemann_run_loads_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_runs = proc.stdout.split("\n")[:2]
    assert after_import == "", f"the imports loaded {after_import}"
    assert after_runs == "", f"the runs loaded {after_runs}"
    assert len(list((tmp_path / "res").iterdir())) == 6
