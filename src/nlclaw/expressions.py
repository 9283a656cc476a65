"""Tiny arithmetic grammar for scenario files.

Grammar, in full: the single variable ``x``, decimal numbers, the binary
operators ``+ - * / ^`` (``^`` is the power operator), unary minus, the
functions ``exp``, ``tanh``, ``sin``, ``abs``, ``sgn``, and parentheses.
Nothing else.  Anything richer belongs in user code via the library
surface.

Expressions are parsed with the stdlib ``ast`` module after rewriting
``^`` to Python's ``**``; the tree is then checked against a whitelist
and compiled to a numpy evaluator, so no general Python execution can be
smuggled in through a scenario file.
"""

from __future__ import annotations

import ast

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]

_FUNCS = {
    "exp": np.exp,
    "tanh": np.tanh,
    "sin": np.sin,
    "abs": np.abs,
    "sgn": np.sign,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


class ExpressionError(ValueError):
    """Malformed expression; the message carries column positions."""


def _rewrite_pow(text: str) -> tuple[str, list[int]]:
    """Replace ^ with ** and keep, per rewritten character, the column
    it came from in the original text (0-based)."""
    out = []
    colmap = []
    for i, ch in enumerate(text):
        if ch == "^":
            out.append("**")
            colmap.extend((i, i))
        else:
            out.append(ch)
            colmap.append(i)
    return "".join(out), colmap


def _orig_col(colmap: list[int], offset_1based: int | None) -> int:
    if offset_1based is None:
        return 1
    j = min(max(offset_1based - 1, 0), len(colmap) - 1) if colmap else 0
    return (colmap[j] + 1) if colmap else 1


class Expression:
    """A compiled expression in one variable, callable on arrays."""

    def __init__(self, text: str, fn):
        self.text = text
        self._fn = fn

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(self._fn(x), dtype=float)
        if out.shape != x.shape:  # a constant
            out = np.broadcast_to(out, x.shape)
        return out.copy()

    def __repr__(self) -> str:
        return f"Expression({self.text!r})"


def _compile(node: ast.AST, colmap: list[int], errors: list[str]):
    bad = lambda msg: errors.append(
        f"column {_orig_col(colmap, getattr(node, 'col_offset', 0) + 1)}: {msg}"
    )
    if isinstance(node, ast.Expression):
        return _compile(node.body, colmap, errors)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        ):
            v = float(node.value)
            return lambda x: v
        bad(f"literal {node.value!r} is not a number")
        return lambda x: np.nan
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        bad(f"unknown name {node.id!r} (only 'x' is available)")
        return lambda x: np.nan
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        inner = _compile(node.operand, colmap, errors)
        if isinstance(node.op, ast.UAdd):
            return inner
        return lambda x: np.negative(inner(x))
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            bad(f"operator {type(node.op).__name__} not in the grammar")
            return lambda x: np.nan
        left = _compile(node.left, colmap, errors)
        right = _compile(node.right, colmap, errors)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            got = getattr(node.func, "id", "<expression>")
            bad(
                f"unknown function {got!r} "
                f"(grammar has {', '.join(sorted(_FUNCS))})"
            )
            return lambda x: np.nan
        if len(node.args) != 1 or node.keywords:
            bad(f"{node.func.id} takes exactly one positional argument")
            return lambda x: np.nan
        fn = _FUNCS[node.func.id]
        inner = _compile(node.args[0], colmap, errors)
        return lambda x: fn(inner(x))
    bad(f"syntax element {type(node).__name__} not in the grammar")
    return lambda x: np.nan


def parse_expression(text: str) -> Expression:
    """Parse one expression; raises ExpressionError listing every problem."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    if "\n" in text or "\r" in text:
        raise ExpressionError("expression must be a single line")
    rewritten, colmap = _rewrite_pow(text)
    try:
        tree = ast.parse(rewritten, mode="eval")
    except SyntaxError as e:
        col = _orig_col(colmap, e.offset)
        raise ExpressionError(f"column {col}: syntax error") from None
    errors: list[str] = []
    fn = _compile(tree, colmap, errors)
    if errors:
        raise ExpressionError("; ".join(errors))
    return Expression(text, fn)
