"""Two-dimensional velocity-regularised nonlocal solver.

The 2D scheme runs solver._transport_steps, the one Picard loop, with a
vector foot field (Phix, Phiy): it is advected by a Picard-self-consistent
semi-Lagrangian step and the state is recovered by composing the initial
datum with it.  The foot field, the trace of the feet and the datum are
interpolated by solver._interp_grid, the 1D per-axis rules applied along
x and then along y: on a field constant along y, at feet on node rows,
each row is bitwise the 1D result.  On y-independent data with an
inactive y-flux, a 2D solve reproduces the 1D solution to roundoff
rather than to discretisation accuracy.

The kernel is the tensor product of the 1D kernels of kernel.build_mollifier
for dx and dy, applied separably by kernel.convolve_values.  Velocity is
(eta_eps * f1'(u), eta_eps * f2'(u)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import FluxSpec
from .grids import uniform_grid
from .kernel import Mollifier, build_mollifier, convolve_values
from .solver import (
    SolverConfig,
    Trajectory,
    _axis_stencil,
    _Foot,
    _interp_grid,
    _solve_transport,
    speed_bound,
    time_step,
)

__all__ = [
    "GridFunction2D",
    "sample_2d",
    "solve_velocity_reg_2d",
    "tv_2d",
]


@dataclass
class GridFunction2D:
    """Nodal values on a uniform 2D grid; values[j, i] sits at
    (x0 + i*dx, y0 + j*dy)."""

    x0: float
    y0: float
    dx: float
    dy: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.dx <= 0.0 or self.dy <= 0.0:
            raise ValueError("dx and dy must be positive")
        if self.values.ndim != 2:
            raise ValueError("values must be a 2D array")
        if self.values.shape[0] < 2 or self.values.shape[1] < 2:
            raise ValueError("need at least 2 nodes per axis")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def with_values(self, values: np.ndarray) -> "GridFunction2D":
        return GridFunction2D(self.x0, self.y0, self.dx, self.dy, values)

    def copy(self) -> "GridFunction2D":
        return self.with_values(self.values.copy())


def sample_2d(
    data, xa: float, xb: float, ya: float, yb: float, dx: float, dy: float
) -> GridFunction2D:
    """Sample a callable of (x, y) or a constant on the covering grid."""
    x0, nx = uniform_grid(xa, xb, dx)
    y0, ny = uniform_grid(ya, yb, dy)
    X = x0 + dx * np.arange(nx)[np.newaxis, :]
    Y = y0 + dy * np.arange(ny)[:, np.newaxis]
    if callable(data):
        vals = np.broadcast_to(
            np.asarray(data(X, Y), dtype=float), (ny, nx)
        ).copy()
    elif isinstance(data, (int, float, np.floating, np.integer)):
        vals = np.full((ny, nx), float(data))
    else:
        raise TypeError(f"cannot sample data of type {type(data).__name__}")
    return GridFunction2D(float(x0), float(y0), float(dx), float(dy), vals)


def tv_2d(u: GridFunction2D) -> float:
    """Anisotropic discrete total variation:
    sum |u(i+1,j) - u(i,j)| dy + sum |u(i,j+1) - u(i,j)| dx."""
    vx = np.sum(np.abs(np.diff(u.values, axis=1))) * u.dy
    vy = np.sum(np.abs(np.diff(u.values, axis=0))) * u.dx
    return float(vx + vy)


def _convolve2(mx: Mollifier, my: Mollifier, vals: np.ndarray) -> np.ndarray:
    """Tensor-product mollification with constant end extension:
    kernel.convolve_values along each row with mx, then along each column
    (through a transpose) with my, so each pass is bitwise the 1D rule on
    each row or column.  vals whose bits are all zero (the velocity of an
    inactive flux) are all +0.0, and so is their mollification: they are
    returned as they are."""
    if not vals.view(np.uint64).any():
        return vals
    return convolve_values(my, convolve_values(mx, vals).T).T


def solve_velocity_reg_2d(
    u0: GridFunction2D,
    fluxes: tuple[FluxSpec, FluxSpec],
    epsilon: float,
    T: float,
    cfg: SolverConfig,
) -> Trajectory:
    """Solve du/dt + (eta*f1'(u)) du/dx + (eta*f2'(u)) du/dy = 0 to time T.

    solver._transport_steps with a two-component foot field: both
    components of the backward characteristic map are advected and u(t) =
    u0 o Phi.  The datum is grids.interpolate_values' clipped linear rule
    on the samples u0 along x and then along y, so each value lies in the
    range of the four samples around it and the maximum principle is
    exact.
    """
    f1, f2 = fluxes
    mx = build_mollifier(epsilon, u0.dx)
    my = build_mollifier(epsilon, u0.dy)
    grid = ((u0.x0, u0.dx, u0.nx), (u0.y0, u0.dy, u0.ny))

    def velocity_of(u: np.ndarray) -> np.ndarray:
        return np.stack((
            _convolve2(mx, my, f1.fprime(u)),
            _convolve2(mx, my, f2.fprime(u)),
        ))

    foot = _Foot(
        nodes=np.stack(np.meshgrid(u0.x, u0.y)),
        interp_linear=lambda v, pts: _interp_grid(v, grid, pts, None),
        stencil=lambda feet: (feet, [
            _axis_stencil(*axis, q)
            for axis, q in zip(grid, feet.reshape(2, -1))
        ]),
        interp_foot=lambda phi, st: _interp_grid(phi, grid, *st),
        datum=lambda phi: _interp_grid(u0.values, grid, phi, None),
        changed=lambda new, old: (0, new.shape[-1]),  # full passes only
        reach=lambda v, dt: 0,
    )
    dt = time_step(cfg, min(u0.dx, u0.dy), u0.values)
    speed = max(speed_bound("velocity_reg", f, u0.values) for f in fluxes)
    return _solve_transport(
        u0, mx, T, cfg, velocity_of, "velocity_reg_2d", speed, dt=dt, foot=foot
    )
