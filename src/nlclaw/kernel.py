"""Mollifier family and discrete convolution, the one rule for
constant-end mollification in 1D and 2D.

The bump is eta(x) = exp(-1/(1-x^2)) on (-1, 1), scaled as eta_eps(x) =
eta(x/eps)/eps.  Discrete kernels sample it at the grid offsets and are
renormalised to unit mass (np.sum of the weights is 1.0 or one of its two
float neighbours), so its continuum normalising constant never enters.
They are symmetric, nonnegative and compactly supported in [-eps, eps],
so convolving a constant returns that constant up to the rounding of
the weighted sum (a few ulps; within 1e-14 for values of order one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mollifier",
    "ResolutionError",
    "build_mollifier",
    "convolve_values",
]


class ResolutionError(ValueError):
    """Kernel half-width is not resolved by the grid (eps < dx)."""


def _bump_unnormalized(x: np.ndarray) -> np.ndarray:
    """exp(-1/(1-x^2)) inside (-1, 1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Discrete symmetric unit-mass kernel of half-width epsilon.

    weights[r + k] holds the weight at offset k*dx for k = -r..r with
    r = ceil(epsilon/dx).  Invariants: symmetric, nonnegative, np.sum 1.0
    or one of its two float neighbours, zero beyond |k|*dx > epsilon.
    """

    epsilon: float
    dx: float
    weights: np.ndarray

    @property
    def radius(self) -> int:
        return (self.weights.size - 1) // 2

    @property
    def sup(self) -> float:
        """Sup-norm of the continuum kernel this discretisation represents."""
        return float(self.weights.max() / self.dx)


def build_mollifier(epsilon: float, dx: float) -> Mollifier:
    """Sample eta_eps at offsets k*dx and renormalise to unit mass.

    One side is computed and mirrored, so symmetry is exact by
    construction.  The centre weight absorbs the residual, which leaves
    np.sum of the weights at 1.0 or one of its two float neighbours: a
    nudge of the centre by the defect can round the sum past 1.0, and
    exactly 1.0 is not always reachable by moving one weight.
    """
    if epsilon <= 0.0 or dx <= 0.0:
        raise ValueError("epsilon and dx must be positive")
    if epsilon < dx:
        raise ResolutionError(
            f"kernel under-resolved: epsilon={epsilon} < dx={dx}"
        )
    r = int(np.ceil(epsilon / dx))
    offsets = dx * np.arange(r + 1)
    side = _bump_unnormalized(offsets / epsilon)
    w = np.concatenate([side[::-1], side[1:]])
    w = w / w.sum()
    # np.sum is the arbiter: up to five nudges of the centre bring it to 1.0
    # or an adjacent float (every result digest reads these weights)
    for _ in range(5):
        defect = 1.0 - float(w.sum())
        if defect == 0.0:
            break
        w[r] += defect
    return Mollifier(float(epsilon), float(dx), w)


def convolve_values(m: Mollifier, values: np.ndarray) -> np.ndarray:
    """Kernel applied along the last axis of raw nodal values, any rank,
    with constant end extension.

    Each row (a 1D slice along the last axis) is padded with r copies of
    its end values, the padded rows are laid end to end and one
    np.convolve runs over them.  An output that straddles two rows is
    never read, and every row of the result is bitwise the result of
    calling this on that row alone.

    Nonnegative unit-mass weights make each output value a convex
    combination of inputs, so neither the sup-norm nor the total variation
    can increase beyond the rounding of the weighted sum (a few ulps, see
    the module docstring).
    """
    r = m.radius
    n = values.shape[-1]
    padded = np.empty(values.shape[:-1] + (n + 2 * r,))
    padded[..., :r] = values[..., :1]
    padded[..., r : r + n] = values
    padded[..., r + n :] = values[..., -1:]
    # Symmetric kernel: correlation and convolution coincide.  padded is
    # C-ordered whatever the layout of values (a transposed input too),
    # so row k of the result starts where row k of padded does.
    out = np.convolve(padded.ravel(), m.weights, mode="valid")
    return np.ndarray(values.shape, out.dtype, out, strides=padded.strides)
