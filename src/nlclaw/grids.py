"""Uniform-grid function representation, norms, sampling, interpolation.

All solvers in this package operate on functions sampled at the nodes
x_i = x0 + i*dx of a uniform 1D grid.  Outside the grid every function is
extended by its end values (constant continuation), which matches data that
are constant outside a compact interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DatumError",
    "GridFunction1D",
    "GridMismatchError",
    "PiecewiseInitialData",
    "RiemannData",
    "l1_distance",
    "sample",
    "sup_norm",
    "total_variation",
    "uniform_grid",
]


class GridMismatchError(ValueError):
    """Two grid functions do not live on the same grid."""


class DatumError(ValueError):
    """An initial datum the solvers cannot use: a value that is not finite
    where it is sampled or evaluated, or breakpoints closer than the grid
    resolves."""


@dataclass
class GridFunction1D:
    """Function values at the nodes x0 + i*dx, i = 0..len(values)-1."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.dx <= 0.0:
            raise ValueError("dx must be positive")
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("values must be a 1D sequence of length >= 2")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (self.values.size - 1)

    def with_values(self, values: np.ndarray) -> "GridFunction1D":
        return GridFunction1D(self.x0, self.dx, np.asarray(values, dtype=float))

    def copy(self) -> "GridFunction1D":
        return GridFunction1D(self.x0, self.dx, self.values.copy())

    def same_grid(self, other: "GridFunction1D") -> bool:
        """Same node count, and x0 and dx equal to relative 1e-12."""
        return (
            self.n == other.n
            and abs(self.x0 - other.x0) <= 1e-12 * max(1.0, abs(self.x0))
            and abs(self.dx - other.dx) <= 1e-12 * self.dx
        )

    def window_slice(self, a: float, b: float) -> slice:
        """Index slice of nodes with a <= x_i <= b (half-cell tolerance)."""
        lo = int(np.ceil((a - self.x0) / self.dx - 0.5))
        hi = int(np.floor((b - self.x0) / self.dx + 0.5))
        lo = max(lo, 0)
        hi = min(hi, self.n - 1)
        if hi < lo:
            raise ValueError("window contains no grid nodes")
        return slice(lo, hi + 1)


@dataclass(frozen=True)
class RiemannData:
    """Two-state step datum: uL for x <= 0, uR for x > 0."""

    uL: float
    uR: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, self.uL, self.uR)


@dataclass(frozen=True)
class PiecewiseInitialData:
    """Piecewise datum: pieces[k] on (breakpoints[k-1], breakpoints[k]].

    pieces has one more entry than breakpoints; pieces[0] applies left of the
    first breakpoint and pieces[-1] right of the last.  Evaluation at a
    breakpoint uses the left piece (left-continuity convention).  Each piece
    must be Lipschitz with constant at most lipschitz_C on its interval.
    """

    breakpoints: tuple
    pieces: tuple
    lipschitz_C: float = 0.0

    def __post_init__(self) -> None:
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) != len(bps) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.lipschitz_C < 0.0:
            raise ValueError("lipschitz_C must be nonnegative")

    def __call__(self, x):
        """The datum at the points x, a float array of x's shape (at least
        1D).  Each piece is called only on its points, and not at all when
        it has none.

        Points that are 1D and nondecreasing (the sampled grid, and the
        feet wherever the foot field is monotone) are cut at the
        breakpoints by one searchsorted, so each piece runs on a
        contiguous slice of x, a view it must not write into.  Other points
        (unsorted, containing NaN, or of higher rank) go through one
        boolean mask per piece.  Both rules give the same values.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        if x.ndim == 1 and (x[1:] >= x[:-1]).all():
            # x <= a_k exactly on x[:cuts[k]] (left continuity), so piece k
            # owns x[cuts[k-1]:cuts[k]]
            cuts = x.searchsorted(self.breakpoints, side="right").tolist()
            for piece, lo, hi in zip(self.pieces, [0, *cuts], [*cuts, x.size]):
                if lo < hi:
                    out[lo:hi] = np.asarray(piece(x[lo:hi]), dtype=float)
            return out
        # 'left' side counts breakpoints strictly below x, so x == a_k picks
        # the piece ending at a_k (left continuity).
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="left")
        for k, piece in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = np.asarray(piece(x[mask]), dtype=float)
        return out

    def min_gap(self) -> float:
        if len(self.breakpoints) < 2:
            return np.inf
        gaps = np.diff(np.asarray(self.breakpoints))
        return float(gaps.min())


def uniform_grid(a: float, b: float, dx: float) -> tuple[float, int]:
    """Left endpoint and node count of the uniform grid covering [a, b].

    The node count is chosen so the last node lands on b up to rounding of
    (b - a)/dx; callers that need exact endpoints should pass commensurate
    a, b, dx.
    """
    if dx <= 0.0:
        raise ValueError("dx must be positive")
    if b <= a:
        raise ValueError("empty interval")
    n = int(round((b - a) / dx)) + 1
    return float(a), max(n, 2)


def sample(data, a: float, b: float, dx: float) -> GridFunction1D:
    """Sample initial data on the uniform grid covering [a, b].

    data may be a RiemannData, a PiecewiseInitialData, a plain callable of x,
    or a number (constant datum).  Sampling is pointwise at the nodes; jumps
    follow the left-continuity convention of the data object.
    """
    x0, n = uniform_grid(a, b, dx)
    x = x0 + dx * np.arange(n)
    if isinstance(data, PiecewiseInitialData):
        if data.min_gap() < 4.0 * dx:
            raise DatumError(
                "grid too coarse: fewer than 4 cells between breakpoints"
            )
        vals = data(x)
    elif callable(data):
        vals = np.asarray(data(x), dtype=float)
        if vals.shape != x.shape:
            vals = np.broadcast_to(vals, x.shape).astype(float)
    else:
        vals = np.full(n, float(data))
    if not np.all(np.isfinite(vals)):
        raise DatumError("values must be finite")
    return GridFunction1D(x0, dx, vals)


def total_variation(u: GridFunction1D) -> float:
    """Sum of absolute nodal increments; zero iff u is constant."""
    return float(np.sum(np.abs(np.diff(u.values))))


def sup_norm(u: GridFunction1D) -> float:
    return float(np.max(np.abs(u.values)))


def l1_distance(u: GridFunction1D, v: GridFunction1D, window=None) -> float:
    """Rectangle-rule L1 distance; grids must coincide.

    window, if given, is an (a, b) interval restricting the sum to nodes
    inside it.
    """
    if not u.same_grid(v):
        raise GridMismatchError("l1_distance requires identical grids")
    diff = np.abs(u.values - v.values)
    if window is not None:
        sl = u.window_slice(*window)
        diff = diff[sl]
    return float(np.sum(diff) * u.dx)


def interpolate_values(
    values: np.ndarray, x0: float, dx: float, xq: np.ndarray
) -> np.ndarray:
    """Piecewise-linear interpolation with constant extension.

    The result is clipped to the two bracketing nodal values, so it can
    never overshoot even in the last floating-point digit.  The solvers'
    exact maximum principle rests on this clip.
    """
    xq = np.asarray(xq, dtype=float)
    n = values.size
    pos = (xq - x0) / dx
    # np.clip without its Python wrapper.  On a tie (0.0 against -0.0)
    # np.maximum and np.minimum return their second operand, while np.clip
    # keeps the value against scalar bounds and the bound against array
    # bounds; so scalar bounds go first and array bounds second.
    pos = np.minimum(n - 1.0, np.maximum(0.0, pos))
    i = np.minimum(pos.astype(np.int64), n - 2)
    return _lerp(values[i], values[i + 1], pos - i)


def _lerp(a, b, theta):
    """a + theta (b - a), clipped to [min(a, b), max(a, b)], elementwise:
    interpolate_values' rule on the pairs of values a, b around each point
    at its fraction theta of the way from a to b."""
    out = b - a  # then in place: bitwise a + theta (b - a)
    out *= theta
    out += a
    return np.minimum(np.maximum(out, np.minimum(a, b)), np.maximum(a, b))


def interpolate_at(
    values: np.ndarray, x0: float, dx: float, xq: float
) -> float:
    """interpolate_values at the one point xq, in Python floats.

    interpolate_values owns the rule; this is its arithmetic in its order,
    so the result is bitwise that of interpolate_values(values, x0, dx,
    np.array([xq]))[0], without numpy's per-call cost on a 1-element array.
    Each np.maximum or np.minimum becomes a comparison that, as numpy does,
    returns its second operand on a tie and passes a NaN through.
    """
    n = values.size
    pos = (xq - x0) / dx
    pos = 0.0 if 0.0 > pos else pos
    pos = n - 1.0 if n - 1.0 < pos else pos
    i = min(int(pos), n - 2)
    theta = pos - i
    a = values.item(i)
    b = values.item(i + 1)
    out = a + theta * (b - a)
    lo = b if b <= a else a
    hi = b if b >= a else a
    out = lo if lo >= out else out
    return hi if hi <= out else out
