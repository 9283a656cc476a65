"""Flux descriptors for the general-flux regularisations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["FluxSpec", "burgers_flux", "cubic_flux", "zero_flux"]


@dataclass(frozen=True)
class FluxSpec:
    """Flux f with derivative fprime on the data range.

    radius bounds the interval [-radius, radius] the data is known to stay
    in (maximum principle).  Construction spot-checks that f and fprime
    are finite there and that fprime really is the derivative of f, by
    central differences at five points of that interval.
    """

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("radius must be > 0")
        pts = np.linspace(-self.radius, self.radius, 5)
        h = 1e-6 * max(1.0, self.radius)
        with np.errstate(over="ignore", invalid="ignore"):
            fa = np.asarray(self.f(pts + h), dtype=float)
            fb = np.asarray(self.f(pts - h), dtype=float)
            fp = np.asarray(self.fprime(pts), dtype=float)
            if not (np.isfinite(fa).all() and np.isfinite(fb).all()
                    and np.isfinite(fp).all()):
                raise ValueError(
                    f"f or fprime is not finite on [-{self.radius:.6g}, "
                    f"{self.radius:.6g}]"
                )
            fd = (fa - fb) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fp))))
        if np.max(np.abs(fd - fp)) > 1e-6 * scale:
            raise ValueError("fprime disagrees with finite differences of f")


def burgers_flux(radius: float = 1.0) -> FluxSpec:
    """f(u) = u^2/2.  fprime is the identity, returned without copying so
    the three regularisation modes coincide bitwise for this flux."""
    return FluxSpec(
        f=lambda u: 0.5 * u * u,
        fprime=lambda u: u,
        radius=radius,
    )


def cubic_flux(radius: float = 2.0) -> FluxSpec:
    """f(u) = u^3/3, fprime(u) = u^2."""
    return FluxSpec(
        f=lambda u: u * u * u / 3.0,
        fprime=lambda u: u * u,
        radius=radius,
    )


def zero_flux(radius: float = 1.0) -> FluxSpec:
    """f = 0.  Used as the inactive component of a 2D flux pair, turning a
    2D solve into decoupled 1D transport along the other axis."""
    return FluxSpec(
        f=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        fprime=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        radius=radius,
    )
