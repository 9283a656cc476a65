"""Two-dimensional velocity-regularised nonlocal solver.

The 2D scheme runs solver._transport_steps, the one Picard loop, with a
vector foot field (Phix, Phiy): it is advected by a Picard-self-consistent
semi-Lagrangian step and the state is recovered by composing the initial
datum with it.  Only the interpolants and the datum evaluation are 2D.
On y-independent data with an inactive y-flux, a 2D solve reproduces the
1D solution to roundoff rather than to discretisation accuracy.

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
    _cubic_weights,
    _Foot,
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


def _bilinear(
    vals: np.ndarray,
    x0: float,
    y0: float,
    dx: float,
    dy: float,
    qx: np.ndarray,
    qy: np.ndarray,
) -> np.ndarray:
    """Clipped bilinear interpolation with constant extension outside, of
    vals or of each array of a stack of them (shape (..., ny, nx)).

    Symmetric-form weights (1-t)*a + t*b hit both endpoints exactly, so
    evaluation at the nodes reproduces nodal values to the bit; the corner
    clip mirrors the 1D clipped-linear rule per axis."""
    ny, nx = vals.shape[-2:]
    px = np.clip((qx - x0) / dx, 0.0, nx - 1.0)
    py = np.clip((qy - y0) / dy, 0.0, ny - 1.0)
    i = np.minimum(px.astype(np.int64), nx - 2)
    j = np.minimum(py.astype(np.int64), ny - 2)
    tx = px - i
    ty = py - j
    flat = vals.reshape(*vals.shape[:-2], -1)
    k = j * nx + i
    c00 = flat.take(k, axis=-1)
    c01 = flat.take(k + 1, axis=-1)
    c10 = flat.take(k + nx, axis=-1)
    c11 = flat.take(k + (nx + 1), axis=-1)
    low = (1.0 - tx) * c00 + tx * c01
    high = (1.0 - tx) * c10 + tx * c11
    out = (1.0 - ty) * low + ty * high
    lo = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    hi = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    return np.clip(out, lo, hi)


def _axis_weights(
    t: np.ndarray, idx: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stencil weights at offsets (-1, 0, 1, 2) for one axis.

    Cubic Lagrange, overwritten with linear on the two edge cells; the
    choice is made per axis, so a trivial axis (feet on the nodes) never
    demotes the other axis's accuracy."""
    weights = _cubic_weights(t)
    edge = (idx < 1) | (idx > n - 3)
    for w, lin in zip(weights, (0.0, 1.0 - t[edge], t[edge], 0.0)):
        w[edge] = lin
    return weights


def _interp_foot_2d(
    phi: np.ndarray,
    x0: float,
    y0: float,
    dx: float,
    dy: float,
    qx: np.ndarray,
    qy: np.ndarray,
) -> np.ndarray:
    """Interpolate both foot-field components phi (shape (2, ny, nx)) at
    the feet (qx, qy), into one (2, *qx.shape) array.

    Tensor product of the per-axis stencils from _axis_weights, clipped to
    the four corner values of the containing cell: the same containment
    rule that makes the 1D scheme range- and variation-shrinking.  Feet
    outside the grid get the clamped-point value plus an identity offset
    along the component's own axis (x for the first, y for the second),
    exact wherever the boundary zone is causally constant.  The stencil
    (positions, weights and flat node indices) is built once, and each
    gather takes the node values of both components at once.
    """
    ny, nx = phi.shape[1:]
    cqx = np.clip(qx, x0, x0 + (nx - 1) * dx)
    cqy = np.clip(qy, y0, y0 + (ny - 1) * dy)
    px = (cqx - x0) / dx
    py = (cqy - y0) / dy
    i = np.minimum(px.astype(np.int64), nx - 2)
    j = np.minimum(py.astype(np.int64), ny - 2)
    wx = _axis_weights(px - i, i, nx)
    wy = _axis_weights(py - j, j, ny)
    cols = [np.maximum(i - 1, 0), i, i + 1, np.minimum(i + 2, nx - 1)]
    rows = [np.maximum(j - 1, 0), j, j + 1, np.minimum(j + 2, ny - 1)]
    flat = phi.reshape(2, -1)
    out = np.zeros((2, *px.shape))
    corners = []
    for r, (row, w) in enumerate(zip(rows, wy)):
        base = row * nx
        taps = [flat.take(base + col, axis=1) for col in cols]
        out = out + w * (
            wx[0] * taps[0] + wx[1] * taps[1] + wx[2] * taps[2]
            + wx[3] * taps[3]
        )
        if r in (1, 2):  # rows j and j + 1, columns i and i + 1
            corners += taps[1:3]
    c00, c01, c10, c11 = corners
    lo = np.minimum(np.minimum(c00, c01), np.minimum(c10, c11))
    hi = np.maximum(np.maximum(c00, c01), np.maximum(c10, c11))
    return np.clip(out, lo, hi) + np.stack((qx - cqx, qy - cqy))


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
    u0 o Phi.  The datum is the clipped bilinear interpolant of the
    samples u0, so the maximum principle is exact.
    """
    f1, f2 = fluxes
    mx = build_mollifier(epsilon, u0.dx)
    my = build_mollifier(epsilon, u0.dy)
    x0, y0, dx, dy = u0.x0, u0.y0, u0.dx, u0.dy

    def velocity_of(u: np.ndarray) -> np.ndarray:
        return np.stack((
            _convolve2(mx, my, f1.fprime(u)),
            _convolve2(mx, my, f2.fprime(u)),
        ))

    foot = _Foot(
        nodes=np.stack(np.meshgrid(u0.x, u0.y)),
        interp_linear=lambda v, pts: _bilinear(v, x0, y0, dx, dy, *pts),
        stencil=lambda feet: feet,
        interp_foot=lambda phi, feet: _interp_foot_2d(
            phi, x0, y0, dx, dy, *feet
        ),
        datum=lambda phi: _bilinear(u0.values, x0, y0, dx, dy, *phi),
        changed=lambda new, old: (0, new.shape[-1]),  # full passes only
        reach=lambda v, dt: 0,
    )
    dt = time_step(cfg, min(dx, dy), u0.values)
    speed = max(speed_bound("velocity_reg", f, u0.values) for f in fluxes)
    return _solve_transport(
        u0, mx, T, cfg, velocity_of, "velocity_reg_2d", speed, dt=dt, foot=foot
    )
