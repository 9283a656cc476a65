"""2D solver: reduction to 1D, symmetry, exact invariants."""

import numpy as np
import pytest

from nlclaw import solver
from nlclaw.fluxes import burgers_flux, zero_flux
from nlclaw.grids import sample
from nlclaw.solver import PicardDivergenceError, SolverConfig, solve_nn
from nlclaw.twodim import (
    GridFunction2D,
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
