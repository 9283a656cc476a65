"""The snapshot writer's layout against the layout it replaced.

runner._level_text lays a table out one piece per value, each value
carrying the separator that follows it.  The writer before it kept the
separators as pieces of their own and merged the adjacent pieces every
level shares (the separators, the node column and the line end) once per
table.  That writer is kept below, as it was, as the reference: the new
one must give the same str for every level, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw import runner
from nlclaw.runner import Snapshot


def reference_reprs(values: np.ndarray, spelling: dict) -> np.ndarray:
    """repr of every float in a 1D array, as an object array of str, with
    the reprs that spelling names replaced; distinct by bit pattern."""
    keys = values.view(np.uint64)
    bits = np.sort(keys)
    bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    if spelling:
        text = [spelling.get(t, t) for t in text]
    return np.array(text, dtype=object)[bits.searchsorted(keys)]


def reference_level_text(snap: Snapshot, sep: str, end: str, spelling: dict):
    """The rows of snap level by level, a (t, x, u) row laid out as the
    pieces level, sep + x + sep, u and end: runs of the pieces every level
    shares are joined once per table."""
    n = snap.nodes.size
    if not len(snap):
        return
    # a row's pieces: None for the level, a field's index, and the
    # separators, node texts and end, each run of these joined here
    pieces = []
    for k, col in enumerate(snap.order):
        pieces += [sep] if k else []
        pieces.append(
            None if col == 0
            else reference_reprs(snap.nodes, spelling) if col == 1
            else col - 2
        )
    fixed = (str, np.ndarray)  # the pieces every level shares
    merged = []
    for p in pieces + [end]:
        if isinstance(p, fixed) and merged and isinstance(merged[-1], fixed):
            merged[-1] = merged[-1] + p
        else:
            merged.append(p)
    w = len(merged)
    text = [""] * (w * n)
    for s, p in enumerate(merged):
        if isinstance(p, fixed):
            text[s::w] = [p] * n if isinstance(p, str) else p.tolist()
    for i, level in enumerate(reference_reprs(snap.levels, spelling).tolist()):
        for s, p in enumerate(merged):
            if p is None:
                text[s::w] = [level] * n
            elif isinstance(p, int):
                row = snap.fields[p][i]
                text[s::w] = reference_reprs(row, spelling).tolist()
        yield "".join(text)


# the column orders the runner writes: (t, x, u), euler's (t, x, rho, v),
# nn2d's (x, y, u) and a plot's (x, u)
ORDERS = ((0, 1, 2), (0, 1, 2, 3), (1, 0, 2), (1, 2))

# (sep, end, spelling) of the CSV, JSON and .dat files
LAYOUTS = {
    "csv": (",", "\n", {}),
    "json": (",\n      ", "\n    ],\n    [\n      ", runner._JSON_SPELLING),
    "dat": (" ", "\n", {}),
}

_SIGNED = (0.0, -0.0, 1 / 3, 5e-324, float("nan"), float("inf"), -float("inf"))


def _block(draw, kind: str, shape: tuple) -> np.ndarray:
    """Values of a column block: both signed zeros mixed with a few other
    values (the non-finite ones among them), one value repeated, or all
    values distinct."""
    if kind == "signed":
        elements = st.sampled_from(_SIGNED)
        return draw(hnp.arrays(np.float64, shape, elements=elements))
    if kind == "repeated":
        return np.full(shape, draw(st.sampled_from(_SIGNED + (-1e-5, 1e16))))
    return draw(hnp.arrays(
        np.float64, shape, elements=st.floats(allow_nan=False), unique=True
    ))


@st.composite
def _tables(draw):
    order = draw(st.sampled_from(ORDERS))
    kind = draw(st.sampled_from(("signed", "repeated", "distinct")))
    n_levels = draw(st.integers(0, 3)) if 0 in order else 1
    n_nodes = draw(st.integers(0, 7))
    fields = tuple(
        _block(draw, kind, (n_levels, n_nodes)) for _ in range(max(order) - 1)
    )
    return Snapshot(
        _block(draw, kind, (n_levels,)), _block(draw, kind, (n_nodes,)),
        fields, order=order,
    )


def _same_text(snap: Snapshot, layout: str) -> list:
    new = list(runner._level_text(snap, *LAYOUTS[layout]))
    assert new == list(reference_level_text(snap, *LAYOUTS[layout]))
    return new


@settings(max_examples=300, deadline=None, derandomize=True)
@given(snap=_tables(), layout=st.sampled_from(sorted(LAYOUTS)))
def test_level_text_is_the_merged_layout_byte_for_byte(snap, layout):
    assert len(_same_text(snap, layout)) == (
        snap.levels.size if snap.nodes.size else 0
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_a_riemann_shaped_table_is_the_merged_layout(order, layout):
    # 801 nodes of two states with a smeared front, a -0.0 and the
    # non-finite values in each field row; one level, then three
    x = np.linspace(-0.5, 1.5, 801)
    for n_levels in (1, 3):
        t = np.linspace(0.0, 1.0, n_levels) if 0 in order else np.zeros(1)
        u = np.where(x[np.newaxis] < t[:, np.newaxis], 1.0, 0.2)
        u[:, 400:403] = (0.75, 1 / 3, 0.25)
        u[:, 10:14] = (-0.0, float("nan"), float("inf"), -float("inf"))
        fields = (u, 2.0 * u)[:max(order) - 1]
        snap = Snapshot(t, x, fields, order=order)
        assert len(_same_text(snap, layout)) == t.size


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("order", ORDERS, ids=str)
def test_an_empty_table_has_no_levels(order, layout):
    width = max(order) - 1
    for levels, nodes in (((), (0.0, 1.0)), ((0.0,), ())):
        fields = (np.zeros((len(levels), len(nodes))),) * width
        snap = Snapshot(levels, nodes, fields, order=order)
        assert _same_text(snap, layout) == []
