"""2D solver: reduction to 1D, symmetry, exact invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw import solver, twodim
from nlclaw.fluxes import burgers_flux, zero_flux
from nlclaw.grids import sample
from nlclaw.kernel import build_mollifier, convolve_values
from nlclaw.solver import (
    PicardDivergenceError,
    SolverConfig,
    _cubic_weights,
    solve_nn,
)
from nlclaw.twodim import (
    GridFunction2D,
    _axis_weights,
    _bilinear,
    _convolve2,
    _interp_foot_2d,
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


def interp_foot_2d_per_component(phi, x0, y0, dx, dy, qx, qy, axis):
    """One foot-field component at the feet, its stencil built for it
    alone and gathered with 2D fancy indexing: the oracle for the shared
    stencil of _interp_foot_2d."""
    ny, nx = phi.shape
    cqx = np.clip(qx, x0, x0 + (nx - 1) * dx)
    cqy = np.clip(qy, y0, y0 + (ny - 1) * dy)
    px = (cqx - x0) / dx
    py = (cqy - y0) / dy
    i = np.minimum(px.astype(np.int64), nx - 2)
    j = np.minimum(py.astype(np.int64), ny - 2)
    tx = px - i
    ty = py - j
    wx = _axis_weights(tx, i, nx)
    wy = _axis_weights(ty, j, ny)
    cols = [i - 1, i, i + 1, np.minimum(i + 2, nx - 1)]
    cols[0] = np.maximum(cols[0], 0)
    rows = [j - 1, j, j + 1, np.minimum(j + 2, ny - 1)]
    rows[0] = np.maximum(rows[0], 0)
    out = np.zeros_like(px)
    for r in range(4):
        xr = (
            wx[0] * phi[rows[r], cols[0]]
            + wx[1] * phi[rows[r], cols[1]]
            + wx[2] * phi[rows[r], cols[2]]
            + wx[3] * phi[rows[r], cols[3]]
        )
        out = out + wy[r] * xr
    c00 = phi[j, i]
    c01 = phi[j, i + 1]
    c10 = phi[j + 1, i]
    c11 = phi[j + 1, i + 1]
    lo = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    hi = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    out = np.clip(out, lo, hi)
    off = qx - cqx if axis == 0 else qy - cqy
    return out + off


def bilinear_fancy_index(vals, x0, y0, dx, dy, qx, qy):
    """_bilinear with its cell corners gathered by 2D fancy indexing."""
    ny, nx = vals.shape
    px = np.clip((qx - x0) / dx, 0.0, nx - 1.0)
    py = np.clip((qy - y0) / dy, 0.0, ny - 1.0)
    i = np.minimum(px.astype(np.int64), nx - 2)
    j = np.minimum(py.astype(np.int64), ny - 2)
    tx = px - i
    ty = py - j
    c00 = vals[j, i]
    c01 = vals[j, i + 1]
    c10 = vals[j + 1, i]
    c11 = vals[j + 1, i + 1]
    low = (1.0 - tx) * c00 + tx * c01
    high = (1.0 - tx) * c10 + tx * c11
    out = (1.0 - ty) * low + ty * high
    lo = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    hi = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    return np.clip(out, lo, hi)


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
def test_interp_foot_2d_is_bitwise_the_per_component_form(case):
    phis, x0, y0, dx, dy, qx, qy = case
    got = _interp_foot_2d(np.stack(phis), x0, y0, dx, dy, qx, qy)
    assert len(got) == 2
    for axis, (phi, g) in enumerate(zip(phis, got)):
        want = interp_foot_2d_per_component(phi, x0, y0, dx, dy, qx, qy, axis)
        assert np.array_equal(want.view(np.uint64), g.view(np.uint64))
    want = bilinear_fancy_index(phis[0], x0, y0, dx, dy, qx, qy)
    got = _bilinear(phis[0], x0, y0, dx, dy, qx, qy)
    assert np.array_equal(want.view(np.uint64), got.view(np.uint64))
    # on a stack of arrays, each array's result bitwise as alone
    got = _bilinear(np.stack(phis), x0, y0, dx, dy, qx, qy)
    for phi, g in zip(phis, got):
        want = bilinear_fancy_index(phi, x0, y0, dx, dy, qx, qy)
        assert np.array_equal(want.view(np.uint64), g.view(np.uint64))


def axis_weights_where_form(t, idx, n):
    """_axis_weights as an np.where blend of every cubic weight with its
    linear edge weight, at every foot: the oracle."""
    inner = (idx >= 1) & (idx <= n - 3)
    linear = (0.0, 1.0 - t, t, 0.0)
    return tuple(
        np.where(inner, w, lin) for w, lin in zip(_cubic_weights(t), linear)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_foot_cases())
def test_axis_weights_are_bitwise_the_where_form(case):
    # feet inside, on and outside the grid, clamped and split into cell
    # and fraction as _interp_foot_2d does, as a row and as a 2D array
    phis, x0, y0, dx, dy, qx, qy = case
    ny, nx = phis[0].shape
    for q, o, d, n in ((qx, x0, dx, nx), (qy, y0, dy, ny)):
        for feet in (q, np.stack((q, q[::-1]))):
            p = (np.clip(feet, o, o + (n - 1) * d) - o) / d
            i = np.minimum(p.astype(np.int64), n - 2)
            got = _axis_weights(p - i, i, n)
            want = axis_weights_where_form(p - i, i, n)
            assert len(got) == 4
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


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
    # two convolutions per pass, where mollifying both components takes four
    assert 2 * short == len(calls) - short == 4 * want.picard_counts.sum()
