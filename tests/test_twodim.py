"""2D solver: reduction to 1D, symmetry, exact invariants."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw import solver, twodim
from nlclaw.fluxes import burgers_flux, zero_flux
from nlclaw.grids import interpolate_at, interpolate_values, sample
from nlclaw.kernel import build_mollifier, convolve_values
from nlclaw.solver import (
    PicardDivergenceError,
    SolverConfig,
    _axis_stencil,
    _cubic_weights,
    _foot_stencil,
    _interp_foot,
    _interp_grid,
    solve_nn,
)
from nlclaw.twodim import (
    GridFunction2D,
    _convolve2,
    sample_2d,
    solve_velocity_reg_2d,
    tv_2d,
)


def test_gridfunction_2d_validation():
    ok = np.zeros((3, 4))
    with pytest.raises(ValueError):
        GridFunction2D(0.0, 0.0, -0.1, 0.1, ok)
    with pytest.raises(ValueError):
        GridFunction2D(0.0, 0.0, 0.1, 0.0, ok)
    with pytest.raises(ValueError):
        GridFunction2D(0.0, 0.0, 0.1, 0.1, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction2D(0.0, 0.0, 0.1, 0.1, np.zeros((1, 4)))
    bad = ok.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        GridFunction2D(0.0, 0.0, 0.1, 0.1, bad)


def test_sample_2d_constant_and_callable():
    g = sample_2d(0.75, -1.0, 1.0, 0.0, 0.5, 0.5, 0.25)
    assert np.all(g.values == 0.75)
    h = sample_2d(lambda X, Y: X + 10.0 * Y, -1.0, 1.0, 0.0, 0.5, 0.5, 0.25)
    assert h.values.shape == (3, 5)
    assert abs(h.values[0, 0] - (-1.0)) < 1e-15
    assert abs(h.values[2, 4] - (1.0 + 5.0)) < 1e-15
    with pytest.raises(TypeError):
        sample_2d("datum", -1.0, 1.0, 0.0, 0.5, 0.5, 0.25)


def test_tv_2d_constant_zero():
    g = sample_2d(3.0, 0.0, 1.0, 0.0, 1.0, 0.1, 0.1)
    assert tv_2d(g) == 0.0


def test_tv_2d_block_perimeter():
    # k x k block of ones: 2k jump pairs per direction, perimeter 4*k*dx
    dx = 0.1
    n = 20
    k = 5
    vals = np.zeros((n, n))
    vals[7:7 + k, 9:9 + k] = 1.0
    g = GridFunction2D(0.0, 0.0, dx, dx, vals)
    assert abs(tv_2d(g) - 4.0 * k * dx) < 1e-12


def test_constant_datum_stays_constant():
    g = sample_2d(1.3, -1.0, 1.0, -1.0, 1.0, 0.05, 0.05)
    tr = solve_velocity_reg_2d(
        g, (burgers_flux(radius=2.0), burgers_flux(radius=2.0)),
        0.2, 0.3, SolverConfig(store_stride=4),
    )
    for st in tr.states:
        assert np.all(st.values == 1.3)


def test_zero_fluxes_freeze_the_state():
    # positions round-trip with half-ulp error, so the frozen state can
    # wobble at 1e-16 scale but no further
    g = sample_2d(
        lambda X, Y: np.exp(-(X**2 + Y**2)), -1.0, 1.0, -1.0, 1.0, 0.05, 0.05
    )
    tr = solve_velocity_reg_2d(
        g, (zero_flux(), zero_flux()), 0.2, 0.25, SolverConfig()
    )
    assert float(np.max(np.abs(tr.final.values - g.values))) <= 1e-13


def test_row_equality_with_1d_solver():
    # y-independent data + inactive y-flux: every row must reproduce the
    # 1D solve to roundoff, not merely to discretisation accuracy.
    dx = 0.01
    eps = 0.1
    T = 0.3
    f = lambda x: -np.tanh(x)
    g2 = sample_2d(lambda X, Y: f(X) + 0.0 * Y, -2.0, 2.0, 0.0, 0.2, dx, dx)
    u1 = sample(f, -2.0, 2.0, dx)
    cfg = SolverConfig(store_stride=10**9)
    tr2 = solve_velocity_reg_2d(
        g2, (burgers_flux(radius=2.0), zero_flux()), eps, T, cfg
    )
    tr1 = solve_nn(u1, eps, T, cfg)
    assert np.allclose(tr2.times, tr1.times, atol=1e-15)
    final2 = tr2.final.values
    final1 = tr1.states[-1].values
    worst = 0.0
    for j in range(final2.shape[0]):
        worst = max(worst, float(np.max(np.abs(final2[j] - final1))))
    assert worst <= 1e-10


def test_xy_swap_symmetry():
    g = sample_2d(
        lambda X, Y: np.exp(-2.0 * (X + Y) ** 2),
        -1.5, 1.5, -1.5, 1.5, 0.02, 0.02,
    )
    fl = burgers_flux(radius=1.5)
    tr = solve_velocity_reg_2d(
        g, (fl, fl), 0.1, 0.2, SolverConfig(store_stride=10**9)
    )
    final = tr.final.values
    assert float(np.max(np.abs(final - final.T))) <= 1e-10


def test_max_principle_exact_2d():
    g = sample_2d(
        lambda X, Y: np.sin(3.0 * X) * np.cos(2.0 * Y),
        -1.0, 1.0, -1.0, 1.0, 0.02, 0.02,
    )
    lo, hi = float(g.values.min()), float(g.values.max())
    fl = burgers_flux(radius=1.5)
    tr = solve_velocity_reg_2d(
        g, (fl, fl), 0.1, 0.5, SolverConfig(store_stride=10)
    )
    for st in tr.states:
        assert float(st.values.min()) >= lo
        assert float(st.values.max()) <= hi


def test_tv_2d_bounded_along_trajectory():
    g = sample_2d(
        lambda X, Y: np.exp(-2.0 * (X**2 + Y**2)),
        -1.5, 1.5, -1.5, 1.5, 0.02, 0.02,
    )
    fl = burgers_flux(radius=1.5)
    tr = solve_velocity_reg_2d(
        g, (fl, fl), 0.1, 0.5, SolverConfig(store_stride=10)
    )
    tv0 = tv_2d(tr.states[0])
    worst = max(tv_2d(st) for st in tr.states)
    assert worst <= 1.05 * tv0


def test_picard_divergence_reported_2d(monkeypatch):
    g = sample_2d(
        lambda X, Y: np.tanh(4.0 * X), -1.0, 1.0, -1.0, 1.0, 0.05, 0.05
    )
    fl = burgers_flux(radius=1.5)
    monkeypatch.setattr(solver, "PICARD_MAX_ITERS", 1)
    with pytest.raises(PicardDivergenceError):
        solve_velocity_reg_2d(g, (fl, fl), 0.2, 0.2, SolverConfig())


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def axis_rule(vals, los, his, o, h, q):
    """One stage of the foot field's per-axis rule, along the 1D array vals
    at the point q, in numpy scalars: the value and the bounds of the pair
    around q of the bounds los and his of vals.  The value is the end value
    off the grid (its bounds the end node's), grids.interpolate_at in an
    end cell, and inside the 4-point cubic in _interp_foot's order."""
    n = vals.size
    pos = (q - o) / h
    if pos < 0.0 or pos > n - 1:
        k = 0 if pos < 0.0 else n - 1
        return vals[k], los[k], his[k]
    i = min(int(pos), n - 2)
    lo, hi = np.minimum(los[i], los[i + 1]), np.maximum(his[i], his[i + 1])
    if i < 1 or i > n - 3:
        return interpolate_at(vals, o, h, q), lo, hi
    w = _cubic_weights(np.array([pos - i]))[:, 0]
    out = ((w[0] * vals[i - 1] + w[1] * vals[i]) + w[2] * vals[i + 1]) + (
        w[3] * vals[i + 2]
    )
    return out, lo, hi


def foot_per_axis(phi, grid, qx, qy, axis):
    """One foot-field component at the feet, foot by foot: axis_rule along
    x on every row, then along y on the column of the results, clipped to
    the bounds it carried, plus the identity offset along the component's
    own axis off the grid.  The oracle for _interp_grid with stencils."""
    (x0, dx, _), (y0, dy, _) = grid
    o, h, n = grid[axis]
    out = []
    for x, y in zip(qx, qy):
        col = np.array([axis_rule(row, row, row, x0, dx, x) for row in phi])
        v, lo, hi = axis_rule(*col.T, y0, dy, y)
        v = np.minimum(np.maximum(v, lo), hi)
        q = (x, y)[axis]
        pos = (q - o) / h
        if pos < 0.0:
            v = v + (q - o)
        elif pos > n - 1:
            v = v + (q - (o + (n - 1) * h))
        out.append(v)
    return np.array(out)


def linear_per_axis(vals, grid, qx, qy):
    """vals at the feet, foot by foot: grids.interpolate_at along x on
    every row, then along y on the column of the results.  The oracle for
    _interp_grid without stencils."""
    (x0, dx, _), (y0, dy, _) = grid
    return np.array([
        interpolate_at(
            np.array([interpolate_at(row, x0, dx, x) for row in vals]),
            y0, dy, y,
        )
        for x, y in zip(qx, qy)
    ])


@st.composite
def _foot_cases(draw):
    """Two foot-field components with repeats and signed zeros, and feet
    on nodes, inside cells, on the grid edges and up to three cells
    outside it, signed zeros included."""
    ny, nx = draw(st.integers(2, 6)), draw(st.integers(2, 8))
    element = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 0.5, -1.0]),
        st.floats(-2.0, 2.0),
    )
    phis = tuple(draw(hnp.arrays(np.float64, (ny, nx), elements=element))
                 for _ in range(2))
    x0, y0 = (draw(st.sampled_from([0.0, -0.0, -0.5, -1.3])) for _ in "xy")
    dx, dy = (draw(st.sampled_from([0.05, 0.25, 1.0])) for _ in "xy")
    m = draw(st.integers(1, 12))

    def positions(o, d, n):
        end = o + (n - 1) * d
        return np.array(draw(st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, o, end, o + d, end - 0.5 * d]),
                st.floats(o - 3 * d, end + 3 * d),
            ),
            min_size=m, max_size=m,
        )))

    return phis, x0, y0, dx, dy, positions(x0, dx, nx), positions(y0, dy, ny)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_foot_cases())
def test_interp_grid_is_bitwise_the_per_axis_rule(case):
    phis, x0, y0, dx, dy, qx, qy = case
    ny, nx = phis[0].shape
    grid = ((x0, dx, nx), (y0, dy, ny))
    feet = np.stack((qx, qy))
    stencils = [_axis_stencil(*axis, q) for axis, q in zip(grid, feet)]
    # a stacked phi gives each component bitwise as alone
    got = _interp_grid(np.stack(phis), grid, feet, stencils)
    assert len(got) == 2
    for axis, (phi, g) in enumerate(zip(phis, got)):
        want = foot_per_axis(phi, grid, qx, qy, axis)
        assert np.array_equal(bits(want), bits(g))
    want = linear_per_axis(phis[0], grid, qx, qy)
    got = _interp_grid(phis[0], grid, feet, None)
    assert np.array_equal(bits(want), bits(got))
    # on a stack of arrays, each array's result bitwise as alone
    got = _interp_grid(np.stack(phis), grid, feet, None)
    for phi, g in zip(phis, got):
        want = linear_per_axis(phi, grid, qx, qy)
        assert np.array_equal(bits(want), bits(g))


@st.composite
def _line_cases(draw):
    """Two components' values along a line of n nodes, the line's axis
    (origin, spacing, nodes), an axis across it of dyadic nodes (exact in
    floats), and for each node across, feet along the line: on nodes,
    inside cells, in both end cells, off both ends, signed zeros."""
    n, across = draw(st.integers(2, 9)), draw(st.integers(2, 5))
    element = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 0.5, -1.0]),
        st.floats(-2.0, 2.0),
    )
    lines = draw(hnp.arrays(np.float64, (2, n), elements=element))
    o = draw(st.sampled_from([0.0, -0.0, -0.5, -1.3]))
    h = draw(st.sampled_from([0.05, 0.25, 1.0]))
    o2 = draw(st.sampled_from([0.0, -0.0, -0.5, -1.25]))
    h2 = draw(st.sampled_from([0.25, 0.5, 1.0]))
    end = o + (n - 1) * h
    fixed = [-0.0, o - 1.5 * h, o, o + 0.25 * h, end - 0.25 * h, end,
             end + 2.0 * h]
    m = draw(st.integers(0, 6))
    feet = [
        fixed + draw(st.lists(
            st.floats(o - 3 * h, end + 3 * h), min_size=m, max_size=m
        ))
        for _ in range(across)
    ]
    return lines, (o, h, n), (o2, h2, across), np.array(feet)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_line_cases(), axis=st.sampled_from([0, 1]))
def test_each_node_line_in_2d_is_bitwise_the_1d_rule(case, axis):
    # fields constant across the lines (rows for axis 0, columns for 1)
    # and feet on node lines: each line of the 2D foot interpolant, trace
    # and datum is bitwise the 1D rule along it
    lines, along, across, q = case
    nodes = across[0] + across[1] * np.arange(across[2])
    on = np.broadcast_to(nodes[:, np.newaxis], q.shape)
    if axis == 0:
        vals = np.repeat(lines[:, np.newaxis, :], across[2], axis=1)
        grid, feet = (along, across), np.stack((q, on))
    else:
        vals = np.repeat(lines[:, :, np.newaxis], across[2], axis=2)
        grid, feet = (across, along), np.stack((on, q))
    flat = feet.reshape(2, -1)
    stencils = [_axis_stencil(*ax, f) for ax, f in zip(grid, flat)]
    phi = _interp_grid(vals, grid, feet, stencils)
    trace = _interp_grid(vals, grid, feet, None)
    datum = _interp_grid(vals[0], grid, feet, None)
    o, h, n = along
    for r, qr in enumerate(q):
        stencil = _foot_stencil(o, h, n, qr)
        pos = (qr - o) / h
        for c, line in enumerate(lines):
            want = _interp_foot(line, o, h, stencil)
            if c != axis:  # no offset along the other component's axis
                want = np.where(
                    pos < 0.0, line[0], np.where(pos > n - 1, line[-1], want)
                )
            assert np.array_equal(bits(phi[c, r]), bits(want))
            want = interpolate_values(line, o, h, qr)
            assert np.array_equal(bits(trace[c, r]), bits(want))
        want = interpolate_values(lines[0], o, h, qr)
        assert np.array_equal(bits(datum[r]), bits(want))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    ny=st.integers(2, 12),
    nx=st.integers(2, 30),
    ratios=st.tuples(st.floats(1.0, 8.0), st.floats(1.0, 8.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_convolve2_is_the_1d_rule_per_row_then_per_column(ny, nx, ratios, seed):
    mx = build_mollifier(0.05 * ratios[0], 0.05)
    my = build_mollifier(0.02 * ratios[1], 0.02)
    vals = np.random.default_rng(seed).normal(size=(ny, nx))
    rows = np.array([convolve_values(mx, row) for row in vals])
    want = np.array([convolve_values(my, col) for col in rows.T]).T
    got = _convolve2(mx, my, vals)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_an_inactive_axis_is_not_mollified_and_keeps_every_bit(monkeypatch):
    # criterion 13's solve, to a shorter T: the zero flux's velocity is all
    # +0.0, and so is its mollification, which _convolve2 skips
    u0 = sample_2d(
        lambda X, Y: -np.tanh(X) + 0.0 * Y, -3.0, 3.0, 0.0, 0.2, 1e-2, 1e-2
    )
    fluxes = (burgers_flux(radius=1.5), zero_flux(radius=1.5))
    calls = []

    def counted(m, vals):
        calls.append(vals.shape)
        return convolve_values(m, vals)

    monkeypatch.setattr(twodim, "convolve_values", counted)
    got = solve_velocity_reg_2d(u0, fluxes, 0.1, 0.1, SolverConfig())
    short = len(calls)
    monkeypatch.setattr(
        twodim, "_convolve2",
        lambda mx, my, vals: counted(my, counted(mx, vals).T).T,
    )
    want = solve_velocity_reg_2d(u0, fluxes, 0.1, 0.1, SolverConfig())
    assert np.array_equal(got.picard_counts, want.picard_counts)
    assert np.array_equal(
        got.values.view(np.uint64), want.values.view(np.uint64)
    )
    # two convolutions per velocity, where mollifying both components
    # takes four: one velocity per pass, and one more that ends the last
    # step on its bound (each step's ending velocity is the next step's)
    assert (
        2 * short == len(calls) - short == 4 * (want.picard_counts.sum() + 1)
    )


def picard_pass_calls_2d():
    """The Python and C-function calls (sys.setprofile's call and c_call
    events) of each warm Picard pass of criterion 13's 2D solve (21 x 601
    nodes), to T 0.2: the events from one call of its velocity_of to
    the next, from the second step on.  A step that ends on its bound
    rebuilds the velocity and then evaluates the bound, and the next step's
    first pass keeps that velocity: its events join the interval."""
    u0 = sample_2d(
        lambda X, Y: -np.tanh(X) + 0.0 * Y, -3.0, 3.0, 0.0, 0.2, 1e-2, 1e-2
    )
    fluxes = (burgers_flux(radius=1.5), zero_flux(radius=1.5))
    counts = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "velocity_of":
            counts.append(0)
        if event in ("call", "c_call"):
            counts[-1] += 1

    sys.setprofile(profile)
    try:
        tr = solve_velocity_reg_2d(
            u0, fluxes, 0.1, 0.2, SolverConfig(store_stride=10**9)
        )
    finally:
        sys.setprofile(None)
    # the first count is the set-up's, the last one ends with the solve's
    first = 1 + int(tr.picard_counts[0])
    return counts[first:-1]


def test_a_2d_pass_makes_few_calls():
    # numpy's per-call cost is a share of a 2D pass too (199 calls when
    # the foot interpolant made 16 takes): keep its count from creeping back
    counts = picard_pass_calls_2d()
    assert len(counts) > 30
    assert max(counts) <= 173
