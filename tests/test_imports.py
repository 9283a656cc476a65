"""Every name a package module imports is used in that module, no module
imports scipy, and no run loads it.

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


def scipy_imports(source: str) -> list:
    """Line numbers of the statements in source that import scipy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_scipy_scan_flags_every_import_form():
    src = (
        "import numpy as np\nimport scipy\n"
        "def f():\n    from scipy.optimize import brentq\n"
        "    import scipy.ndimage as nd\n"
        "from .scipyish import x\nfrom scipyish import y\n"
    )
    assert scipy_imports(src) == [2, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path.read_text()) == []


# The package needs numpy only.  The scan above sees the package's own
# imports; a fresh process that imports every module, makes two 1D runs
# and a 2D run, and a Godunov solve whose data range holds a sonic point
# must also end with no scipy module loaded, so nothing reaches scipy
# through another package either.
NO_SCIPY = """
import sys
from pathlib import Path


def scipy_modules():
    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))


import nlclaw, nlclaw.acceptance, nlclaw.cli, nlclaw.runner
from nlclaw.fluxes import burgers_flux
from nlclaw.grids import RiemannData, sample
from nlclaw.reference import _sonic_point, godunov_solve

scipy_modules()
out = Path(sys.argv[1])
for name, text in {
    "nn": "mode = nn\\ninitial = riemann 1 0\\ndomain = -1 1.5\\n",
    "freg": "mode = flux_reg\\nflux = cubic\\ninitial = riemann 2 0\\n"
            "domain = -0.5 2.5\\n",
    "plane": "mode = nn2d\\ninitial = expression -tanh(x)\\n"
             "domain = -1 1\\ndomain_y = 0 0.2\\n",
}.items():
    scn = out / f"{name}.scn"
    scn.write_text(
        f"name = {name}\\n{text}epsilon = 0.1\\nT = 0.2\\ndx = 0.02\\n"
        "stride = 4\\n"
    )
    assert nlclaw.runner.run_file(scn, out / "res") == 0, name
# f' = u changes sign inside [-1, 0.5], so the solve bisects for omega
assert -1.0 < _sonic_point(burgers_flux(), -1.0, 0.5) < 0.5
godunov_solve(sample(RiemannData(-1.0, 0.5), -1, 1, 0.05), burgers_flux(), 0.2)
scipy_modules()
"""


def test_runs_in_1d_and_2d_and_godunov_load_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_runs = proc.stdout.split("\n")[:2]
    assert after_import == "", f"the imports loaded {after_import}"
    assert after_runs == "", f"the runs loaded {after_runs}"
    assert len(list((tmp_path / "res").iterdir())) == 9


# perfbench's setup_s times a fresh `import nlclaw.runner`, the start of
# every run: it must not load the selftest, the command line, the
# standard modules only they use, or scipy.  numpy loads tempfile itself
# (through importlib.resources), so the check is on the modules the
# import adds to a fresh interpreter that has imported numpy.
RUN_PATH_AVOIDS = (
    "nlclaw.acceptance", "nlclaw.cli", "subprocess", "tempfile", "argparse",
)
RUNNER_IMPORT = """
import sys
import numpy
before = set(sys.modules)
import nlclaw.runner
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_runner_loads_no_selftest_cli_or_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER_IMPORT],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "nlclaw.runner" in added
    assert [
        m for m in added
        if m in RUN_PATH_AVOIDS or m.split(".")[0] == "scipy"
    ] == []
