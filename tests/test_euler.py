import numpy as np
import pytest

from nlclaw.diagnostics import check_invariants
from nlclaw.euler import (
    _reversed_grid,
    conservative_residual,
    from_invariants,
    recombine,
    solve_isentropic,
    to_invariants,
)
from nlclaw.grids import GridFunction1D, GridMismatchError, sample
from nlclaw.solver import SolverConfig, solve_nn


def smooth_pulse(dx, xa=-6.0, xb=6.0):
    rho0 = sample(lambda x: 1.0 + 0.1 * np.exp(-x * x), xa, xb, dx)
    vel0 = rho0.with_values(np.zeros(rho0.n))
    return rho0, vel0


def test_round_trip_machine_precision():
    rng = np.random.default_rng(7)
    x = np.linspace(-1.0, 1.0, 101)
    rho = GridFunction1D(-1.0, 0.02, 1.0 + 0.5 * rng.random(101))
    vel = rho.with_values(rng.standard_normal(101) * 0.3)
    rho2, vel2 = from_invariants(*to_invariants(rho, vel))
    assert np.max(np.abs(rho2.values - rho.values)) <= 1e-14
    assert np.max(np.abs(vel2.values - vel.values)) <= 1e-14


def test_trivial_invariant_values():
    ones = GridFunction1D(0.0, 0.1, np.ones(8))
    zeros = ones.with_values(np.zeros(8))
    mu, lam = to_invariants(ones, zeros)
    assert np.array_equal(mu.values, np.ones(8))
    assert np.array_equal(lam.values, np.ones(8))
    c = 0.7
    mu2, lam2 = to_invariants(zeros, zeros.with_values(np.full(8, c)))
    assert np.array_equal(mu2.values, np.full(8, c))
    assert np.array_equal(lam2.values, np.full(8, -c))


def test_grid_mismatch_raises():
    a = GridFunction1D(0.0, 0.1, np.ones(8))
    b = GridFunction1D(0.5, 0.1, np.ones(8))
    with pytest.raises(GridMismatchError):
        to_invariants(a, b)
    with pytest.raises(GridMismatchError):
        from_invariants(a, GridFunction1D(0.0, 0.1, np.ones(9)))


def test_vacuum_flagged_not_rejected():
    x = np.linspace(-2.0, 2.0, 41)
    rho = GridFunction1D(-2.0, 0.1, np.maximum(0.0, 1.0 - np.abs(x)))
    vel = rho.with_values(np.zeros(41))
    cfg = SolverConfig()
    rho_levels = recombine(*solve_isentropic(rho, vel, 0.2, 0.05, cfg))[0]
    assert np.min(rho_levels) <= 0.0
    lifted = rho.with_values(rho.values + 0.5)
    rho_levels = recombine(*solve_isentropic(lifted, vel, 0.2, 0.05, cfg))[0]
    assert np.min(rho_levels) > 0.0


def test_constant_state_stationary_with_small_residual():
    dx = 0.0125
    rho0 = sample(1.0, -6.0, 6.0, dx)
    vel0 = rho0.with_values(np.full(rho0.n, 0.5))
    mu, lam = solve_isentropic(
        rho0, vel0, 0.1, 0.3, SolverConfig(store_stride=1)
    )
    rho, vel = recombine(mu, lam)
    assert np.array_equal(rho[-1], rho0.values)
    assert np.array_equal(vel[-1], vel0.values)
    r1, r2 = conservative_residual(rho0, mu.times, rho, vel)
    # residual of an exactly stationary state is pure quadrature error
    assert r1 <= 1e-3
    assert r2 <= 1e-3


def test_even_density_odd_velocity_preserved():
    eps = 0.1
    rho0, vel0 = smooth_pulse(eps / 8.0)
    mu, lam = solve_isentropic(rho0, vel0, eps, 0.3, SolverConfig())
    rho, vel = recombine(mu, lam)
    rv = rho[-1]
    vv = vel[-1]
    assert np.max(np.abs(rv - rv[::-1])) <= 1e-10
    assert np.max(np.abs(vv + vv[::-1])) <= 1e-10


def test_shared_time_grid_and_state_count():
    eps = 0.1
    rho0, vel0 = smooth_pulse(eps / 8.0)
    mu, lam = solve_isentropic(rho0, vel0, eps, 0.2, SolverConfig())
    assert np.array_equal(mu.times, lam.times)
    rho, vel = recombine(mu, lam)
    assert rho.shape == vel.shape == (mu.times.size, rho0.n)
    assert mu.times[0] == 0.0
    assert abs(mu.times[-1] - 0.2) <= 1e-12


def test_both_invariants_live_on_the_data_grid():
    # lam is solved on the mirrored grid, yet its trajectory sits on the
    # data's grid exactly; mirroring the mirrored grid back would land x0
    # a roundoff off -1.3 on this domain
    rho0 = sample(lambda x: 1.0 + 0.1 * np.exp(-x * x), -1.3, 2.9, 0.0125)
    vel0 = rho0.with_values(0.2 * np.tanh(rho0.x))
    mu, lam = solve_isentropic(rho0, vel0, 0.1, 0.1, SolverConfig())
    assert mu.grid.x0 == lam.grid.x0 == rho0.x0
    assert mu.times.tobytes() == lam.times.tobytes()
    mu0, lam0 = to_invariants(rho0, vel0)
    assert np.array_equal(lam.grid.values, lam0.values)
    assert np.array_equal(lam.values[0], lam0.values)


def test_invariant_trajectories_pass_solver_checks():
    eps = 0.1
    rho0, _ = smooth_pulse(eps / 8.0)
    vel0 = rho0.with_values(0.2 * np.tanh(rho0.x))
    mu, lam = solve_isentropic(rho0, vel0, eps, 0.3, SolverConfig())
    assert check_invariants(mu).passed
    assert check_invariants(lam).passed


def test_residual_refinement_ratio():
    results = {}
    for eps in (0.1, 0.05):
        rho0, vel0 = smooth_pulse(eps / 8.0)
        mu, lam = solve_isentropic(
            rho0, vel0, eps, 0.3, SolverConfig(store_stride=1)
        )
        results[eps] = conservative_residual(
            rho0, mu.times, *recombine(mu, lam)
        )
    assert results[0.1][0] / results[0.05][0] >= 1.8
    assert results[0.1][1] / results[0.05][1] >= 1.8


def manufactured_levels(dx, dt, T=0.3, xa=-6.0, xb=6.0):
    """Exact smooth solution as (grid, times, rho, vel): lam constant, mu
    solves Burgers by characteristics (fixed-point solve of
    xi = x - t*mu0(xi))."""
    c = 0.8

    def mu0_fn(z):
        return 1.0 + 0.1 * np.tanh(z)

    nx = int(round((xb - xa) / dx)) + 1
    x = xa + dx * np.arange(nx)
    nt = int(round(T / dt)) + 1
    times = dt * np.arange(nt)
    xi = np.tile(x, (nt, 1))
    for _ in range(60):
        xi = x - times[:, None] * mu0_fn(xi)
    mu = mu0_fn(xi)
    return GridFunction1D(xa, dx, x), times, 0.5 * (mu + c), 0.5 * (mu - c)


def test_residual_consistency_on_exact_solution():
    coarse = conservative_residual(*manufactured_levels(0.02, 0.01))
    fine = conservative_residual(*manufactured_levels(0.01, 0.005))
    assert fine[0] <= 1e-3
    assert fine[1] <= 1e-3
    assert coarse[0] / fine[0] >= 1.8
    assert coarse[1] / fine[1] >= 1.8


def test_flipped_lam_sign_inflates_residual():
    eps = 0.1
    dx = eps / 8.0
    rho0, _ = smooth_pulse(dx)
    vel0 = rho0.with_values(0.2 * np.tanh(rho0.x))
    cfg = SolverConfig(store_stride=1)
    mu, lam = solve_isentropic(rho0, vel0, eps, 0.3, cfg)
    r1, r2 = conservative_residual(rho0, mu.times, *recombine(mu, lam))
    # mutant: drop the x -> -x conjugation, i.e. solve the wrong-sign
    # lam equation, and recombine with the correct mu levels
    wrong = solve_nn(to_invariants(rho0, vel0)[1], eps, 0.3, cfg, dt=mu.dt)
    m1, m2 = conservative_residual(rho0, mu.times, *recombine(mu, wrong))
    assert m1 >= 10.0 * r1
    assert m2 >= 10.0 * r2


def test_decoupling_joint_equals_alone_bitwise():
    # vel0 = 0 gives equal invariant sups, so the standalone solves pick
    # the same time step as the coupled one and equality can be bitwise
    eps = 0.1
    rho0, vel0 = smooth_pulse(eps / 8.0)
    mu, lam = solve_isentropic(rho0, vel0, eps, 0.3, SolverConfig())
    mu0, lam0 = to_invariants(rho0, vel0)
    mu_alone = solve_nn(mu0, eps, 0.3, SolverConfig())
    for joint, alone in zip(mu.states, mu_alone.states):
        assert np.array_equal(joint.values, alone.values)
    lam_alone = solve_nn(_reversed_grid(lam0), eps, 0.3, SolverConfig())
    for joint, alone in zip(lam.states, lam_alone.states):
        assert np.array_equal(joint.values, alone.values[::-1])


def test_residual_preconditions():
    grid, times, rho, vel = manufactured_levels(0.05, 0.15)
    assert times.size == 3
    with pytest.raises(ValueError):
        conservative_residual(grid, times[:2], rho[:2], vel[:2])
    with pytest.raises(ValueError):
        conservative_residual(grid, times[:2], rho, vel)
    with pytest.raises(ValueError):
        conservative_residual(grid, times, rho, vel[:, 1:])
