"""Every defaulted parameter of a package function is set by some caller.

A default that no call under src/ overrides is a setting nobody uses: a
constant in disguise, or a way to loosen a check that no claim needs.
This scan finds them.  A parameter counts as passed when some call under
src/ supplies it by keyword, or by position far enough along; calls are
matched by bare name (f(...)) or attribute name (obj.f(...)), and a
class's __init__ by calls to the class.  A call with *args or **kwargs
passes every position or every keyword.

Dataclass fields are out of reach: their defaults live in the class
body, not in a def, so an unused field default is not flagged here.

An environment variable is a setting no signature shows, so a second
scan fails on any read of os.environ or os.getenv in the package.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nlclaw").glob("*.py"))

# entry points whose defaults serve callers outside the package
ALLOWED = {"cli.main(argv)"}


def _defs(tree: ast.Module):
    """(callable name, parameter names after self, defaulted names) for
    every def; __init__ is named after its class."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args]
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                if cls is not None and not static and params:
                    params = params[1:]
                defaulted = params[len(params) - len(a.defaults):] if a.defaults else []
                defaulted += [
                    k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                ]
                name = cls if node.name == "__init__" and cls else node.name
                out.append((name, params, defaulted))
                visit(node.body, None)

    visit(tree.body, None)
    return out


def _calls(trees):
    """name -> list of (positional count, keyword names) over all calls;
    a count or keyword set of None means *args or **kwargs."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name is None:
                continue
            star = any(isinstance(a, ast.Starred) for a in node.args)
            kws = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((
                None if star else len(node.args),
                None if None in kws else kws,
            ))
    return calls


def unpassed_defaults(sources: dict) -> list:
    """'module.function(param)' for each defaulted parameter that no call
    in sources passes; sources maps module name to source text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = _calls(trees.values())
    found = []
    for mod, tree in trees.items():
        for name, params, defaulted in _defs(tree):
            sites = calls.get(name, [])
            for p in defaulted:
                i = params.index(p) if p in params else None
                if not any(
                    kws is None or p in kws
                    or (i is not None and (npos is None or npos > i))
                    for npos, kws in sites
                ):
                    found.append(f"{mod}.{name}({p})")
    return sorted(found)


def test_scan_flags_unpassed_defaults():
    src = (
        "class Box:\n"
        "    def __init__(self, a, b=1):\n        self.a = a\n"
        "    def get(self, k=0, *, strict=False):\n        return k\n"
        "def f(x, y=2, z=3):\n    return x\n"
        "def g(*args):\n    return f(*args)\n"
        "def h(w=0):\n    return w\n"
        "Box(1).get(5)\nf(1, z=4)\nh(**{})\n"
    )
    assert unpassed_defaults({"m": src}) == [
        "m.Box(b)", "m.get(strict)",
    ]


def test_every_default_is_passed_by_some_caller():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert [d for d in unpassed_defaults(sources) if d not in ALLOWED] == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(sources: dict) -> list:
    """'module:line' for each use of os.environ or os.getenv (as an
    attribute of os, or imported from os by name) in sources."""
    found = []
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                hit = (
                    isinstance(node.value, ast.Name) and node.value.id == "os"
                    and node.attr in ENVIRONMENT_NAMES
                )
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(
                    a.name in ENVIRONMENT_NAMES for a in node.names
                )
            else:
                continue
            if hit:
                found.append((mod, node.lineno))
    return [f"{mod}:{line}" for mod, line in sorted(found)]


def test_scan_flags_environment_reads():
    src = (
        "import os\n"
        "from os import getenv\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B')\n"
        "c = os.cpu_count()\n"
        "environ = {}\n"
    )
    assert environment_reads({"m": src}) == ["m:2", "m:3", "m:4"]


def test_package_reads_no_environment():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert environment_reads(sources) == []
