"""There is one Picard loop and one consumer of the step schedule per
solver family.

Every non-conservative solve, 1D and 2D, steps through
solver._transport_steps, so a fix to the Picard iteration lands in one
place.  This scan keeps it that way: range(PICARD_MAX_ITERS) may be
iterated by one function only, and step_times(...) may be called by the
functions that own a schedule only (solver.schedule, which lists the
stored times, the Picard loop, and the Godunov oracle, which steps on the
same schedule).  A function is named module.name after the innermost def
around the node; lambdas and comprehensions belong to their def.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "nlclaw").glob("*.py"))

PICARD_LOOPS = ["solver._transport_steps"]
SCHEDULE_CONSUMERS = [
    "reference.godunov_solve", "solver._transport_steps", "solver.schedule",
]


def _name(node) -> str | None:
    """The bare or attribute name of a Name or Attribute node."""
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


def _owners(tree: ast.Module):
    """(innermost enclosing def name or None, node) for every node."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) else owner
            yield from visit(child, inner)

    yield from visit(tree, None)


def scan(sources: dict) -> tuple[list, list]:
    """The functions that iterate range(PICARD_MAX_ITERS), in a for loop
    or a comprehension, and the functions that call step_times, each as
    a sorted list of 'module.function' (module-level code: 'module.');
    sources maps module name to source text."""
    loops, consumers = set(), set()
    for mod, text in sources.items():
        for owner, node in _owners(ast.parse(text)):
            where = f"{mod}.{owner or ''}"
            if isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if (
                    isinstance(it, ast.Call) and _name(it.func) == "range"
                    and any(_name(a) == "PICARD_MAX_ITERS" for a in it.args)
                ):
                    loops.add(where)
            elif isinstance(node, ast.Call) and _name(node.func) == "step_times":
                consumers.add(where)
    return sorted(loops), sorted(consumers)


def test_scan_flags_a_second_picard_loop():
    src = (
        "from . import solver\n"
        "def _transport_steps(T, dt):\n"
        "    for k in step_times(T, dt):\n"
        "        for j in range(PICARD_MAX_ITERS):\n            pass\n"
        "def second(T, dt):\n"
        "    f = lambda: [j for j in range(solver.PICARD_MAX_ITERS)]\n"
        "    return [t for _, t, _, _ in solver.step_times(T, dt)], f\n"
        "for j in range(PICARD_MAX_ITERS):\n    pass\n"
        "for j in range(10):\n    pass\n"
    )
    assert scan({"m": src}) == (
        ["m.", "m._transport_steps", "m.second"],
        ["m._transport_steps", "m.second"],
    )


def test_one_picard_loop_and_its_schedule_consumers():
    loops, consumers = scan({p.stem: p.read_text() for p in SOURCES})
    assert loops == PICARD_LOOPS
    assert consumers == SCHEDULE_CONSUMERS
