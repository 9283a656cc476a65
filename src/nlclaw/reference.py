"""Entropy-solution references for the local conservation law.

Four mutually independent oracles, so that no single discretisation bias
can masquerade as truth:

  * burgers_riemann_exact: the closed-form self-similar solution for
    two-state data under the quadratic flux.
  * lax_oleinik_solve: variational (Hopf-Lax) evaluation, minimising the
    action over grid nodes; brutally simple, O(dx) accurate.
  * godunov_solve: first-order finite volumes with the exact Riemann
    interface flux, for any convex flux.
  * front_tracking_solve: exact piecewise-constant evolution with shocks
    at Rankine-Hugoniot speeds and rarefactions as ladders of small
    admissible jumps.

The Lax-Oleinik and front-tracking oracles are specific to the quadratic
flux f(u) = u^2/2; Godunov takes any convex FluxSpec.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .fluxes import FluxSpec
from .grids import GridFunction1D, RiemannData
from .solver import (
    SPEED_PROBES, SUP_FLOOR, check_node_steps, speed_bound, step_times,
)

__all__ = [
    "FrontTrackingSolution",
    "NonConvexFluxError",
    "burgers_riemann_exact",
    "front_tracking_solve",
    "godunov_solve",
    "lax_oleinik_solve",
]


def burgers_riemann_exact(d: RiemannData, xi) -> float | np.ndarray:
    """Entropy solution of the quadratic-flux Riemann problem at xi = x/t.

    Decreasing data gives a shock travelling at (uL+uR)/2; increasing data
    a rarefaction fan u = xi between the states.
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    uL, uR = d.uL, d.uR
    if uL > uR:
        sigma = 0.5 * (uL + uR)
        out = np.where(xi_arr < sigma, uL, uR)
    elif uL < uR:
        out = np.clip(xi_arr, uL, uR)
    else:
        out = np.full_like(xi_arr, uL)
    return float(out[0]) if scalar else out


def lax_oleinik_solve(u0: GridFunction1D, t: float) -> GridFunction1D:
    """Hopf-Lax evaluation of the entropy solution at time t (quadratic flux).

    u(t, x_i) = (x_i - y*)/t with y* the grid node minimising
    U0(y) + (x_i - y)^2 / (2t), U0 the cumulative rectangle-rule
    antiderivative of u0.  Ties go to the smaller y, which pins shock
    positions deterministically.  Minimisation is restricted to the grid,
    so nodes whose true minimiser lies outside it (within sup|u0| * t of
    the ends) inherit a boundary artefact; pad the domain accordingly.

    The argmin of the objective is nondecreasing in x, which licenses the
    divide-and-conquer search below; cost O(n log n).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    vals = u0.values
    n = vals.size
    x = u0.x
    U0 = np.concatenate([[0.0], np.cumsum(vals[:-1]) * u0.dx])
    out = np.empty(n)
    stack = [(0, n - 1, 0, n - 1)]
    inv2t = 1.0 / (2.0 * t)
    while stack:
        ilo, ihi, jlo, jhi = stack.pop()
        if ilo > ihi:
            continue
        im = (ilo + ihi) // 2
        seg = U0[jlo : jhi + 1] + (x[im] - x[jlo : jhi + 1]) ** 2 * inv2t
        jm = jlo + int(np.argmin(seg))  # first minimum: tie to smaller y
        out[im] = (x[im] - x[jm]) / t
        stack.append((ilo, im - 1, jlo, jm))
        stack.append((im + 1, ihi, jm, jhi))
    return u0.with_values(out)


def _sonic_point(flux: FluxSpec, lo: float, hi: float) -> float:
    """Minimiser of f over [lo, hi] for convex f, the stagnation value of
    the exact Riemann flux.

    lo when f'(lo) >= 0, hi when f'(hi) <= 0.  Otherwise a bisection on
    the sign of f' in Python floats keeps f'(lo) < 0 < f'(hi) and stops at
    a midpoint u* with f'(u*) == 0 or equal to one of the ends, so either
    f'(u*) == 0 or f' changes sign between u* and an adjacent float.
    """
    def fprime(u: float) -> float:
        return float(np.asarray(flux.fprime(u)))

    if fprime(lo) >= 0.0:
        return lo
    if fprime(hi) <= 0.0:
        return hi
    while True:
        mid = 0.5 * lo + 0.5 * hi  # hi - lo can overflow; the halves cannot
        slope = fprime(mid)
        if slope == 0.0 or mid == lo or mid == hi:
            return mid
        if slope < 0.0:
            lo = mid
        else:
            hi = mid


class NonConvexFluxError(ValueError):
    """The flux is not convex on the range of the data."""


GODUNOV_CFL = 0.9


def godunov_solve(
    u0: GridFunction1D, flux: FluxSpec, T: float
) -> GridFunction1D:
    """State at time T of the first-order finite-volume entropy solver
    with exact Riemann fluxes, at CFL number GODUNOV_CFL.

    Requires f convex on the data range (NonConvexFluxError otherwise),
    and rejects a solve beyond the solvers' node-step budget
    (WorkBudgetError) before any step.
    The interface flux is f(clip(omega, ul, ur)) for ul <= ur (omega the
    sonic value) and max(f(ul), f(ur)) for ul > ur.  Monotone scheme: TV
    non-increasing, max principle.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    lo, hi = float(np.min(u0.values)), float(np.max(u0.values))
    if hi - lo < 1e-12:  # constant data: probe a unit interval around it
        lo, hi = lo - 0.5, hi + 0.5
    # the local law's characteristics move at f'(u), as velocity_reg's do
    speed = speed_bound("velocity_reg", flux, (lo, hi))
    probe = np.linspace(lo, hi, SPEED_PROBES)
    fp = np.asarray(flux.fprime(probe), dtype=float)
    if np.any(np.diff(fp) < -1e-10 * max(1.0, speed)):
        raise NonConvexFluxError(
            "godunov_solve requires a convex flux on the data range"
        )
    omega = _sonic_point(flux, lo, hi)
    dx = u0.dx
    dt = GODUNOV_CFL * dx / max(speed, SUP_FLOOR)
    check_node_steps(u0.n, T, dt)
    vals = u0.values.copy()

    def interface_flux(ul: np.ndarray, ur: np.ndarray) -> np.ndarray:
        f_ul = flux.f(ul)
        f_ur = flux.f(ur)
        shock = np.maximum(f_ul, f_ur)               # ul > ur
        rare = flux.f(np.clip(omega, ul, ur))        # ul <= ur
        return np.where(ul > ur, shock, rare)

    for _, _, _, h in step_times(T, dt):
        F = interface_flux(vals[:-1], vals[1:])
        # constant extension: boundary interfaces see equal states
        F_left = np.concatenate([[float(flux.f(vals[0]))], F])
        F_right = np.concatenate([F, [float(flux.f(vals[-1]))]])
        vals = vals - (h / dx) * (F_right - F_left)
    return u0.with_values(vals)


@dataclass
class _Track:
    """Internal mutable record: one front's life from birth to death."""

    x_birth: float
    t_birth: float
    speed: float
    uL: float
    uR: float
    t_death: float = np.inf
    left: int = -1   # index of the left neighbour, -1 at the end
    right: int = -1

    def position(self, t: float) -> float:
        return self.x_birth + self.speed * (t - self.t_birth)


class FrontTrackingSolution:
    """The front tracks plus an exact evaluator for the tracked solution.

    A front born at t > 0 is the merger of the two whose t_death is its
    t_birth: it joins the left state of the left one to the right state
    of the right one."""

    def __init__(self, tracks: list, T: float, delta: float,
                 constant_state: float):
        self.tracks = tracks
        self.T = T
        self.delta = delta
        self._constant_state = constant_state

    def _alive(self, t: float) -> list:
        # at a collision instant the dying fronts (death == t) give way to
        # the merged front (birth == t)
        alive = [
            tr for tr in self.tracks if tr.t_birth <= t < tr.t_death
        ]
        alive.sort(key=lambda tr: (tr.position(t), tr.speed))
        return alive

    def evaluate(self, t: float, x) -> np.ndarray:
        """u(t, x); at a front position the left state applies."""
        if not (0.0 <= t <= self.T + 1e-12):
            raise ValueError("t outside [0, T]")
        xq = np.atleast_1d(np.asarray(x, dtype=float))
        alive = self._alive(t)
        if not alive:
            # constant solution: no fronts at all
            return np.full_like(xq, self._constant_state)
        pos = np.array([tr.position(t) for tr in alive])
        idx = np.searchsorted(pos, xq, side="left")
        levels = np.array([alive[0].uL] + [tr.uR for tr in alive])
        return levels[idx]

    def sample_on(self, grid: GridFunction1D, t: float) -> GridFunction1D:
        return grid.with_values(self.evaluate(t, grid.x))


def front_tracking_solve(
    u0: GridFunction1D, T: float
) -> FrontTrackingSolution:
    """Track every front of the grid function u0, read as piecewise
    constant with a jump midway between any two unequal neighbours, up to
    time T.

    Decreasing jumps travel as single shocks; increasing jumps are split
    into ladders of admissible sub-jumps of size at most delta, 1e-2
    times the data range.  Colliding neighbours are replaced by the
    front joining their outer states; for the quadratic flux such a
    merger is always an admissible shock, so no re-fanning ever occurs.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    vals, x = u0.values, u0.x
    jump_idx = np.nonzero(np.diff(vals) != 0.0)[0]
    positions = (0.5 * (x[jump_idx] + x[jump_idx + 1])).tolist()
    levels = [float(vals[0])] + [float(vals[j + 1]) for j in jump_idx]
    rng = (max(levels) - min(levels)) if len(levels) > 1 else 0.0
    delta = max(1e-2 * rng, 1e-12)

    tracks: list[_Track] = []
    for p, (la, lb) in zip(positions, zip(levels[:-1], levels[1:])):
        if lb < la:
            tracks.append(_Track(p, 0.0, 0.5 * (la + lb), la, lb))
        else:
            m = max(1, int(np.ceil((lb - la) / delta)))
            sub = la + (lb - la) * np.arange(m + 1) / m
            for a, b in zip(sub[:-1], sub[1:]):
                tracks.append(_Track(p, 0.0, 0.5 * (a + b), float(a), float(b)))

    sol = FrontTrackingSolution(tracks, T, delta, float(levels[0]))
    if not tracks:
        return sol

    # doubly linked neighbour structure over the initial (sorted) fronts
    order = sorted(range(len(tracks)), key=lambda i: (tracks[i].x_birth, tracks[i].speed))
    for a, b in zip(order[:-1], order[1:]):
        tracks[a].right = b
        tracks[b].left = a

    counter = 0
    heap: list[tuple[float, int, int, int]] = []

    def collision_time(i: int, j: int) -> float | None:
        ti, tj = tracks[i], tracks[j]
        if ti.speed <= tj.speed + 1e-15:
            return None
        t_ref = max(ti.t_birth, tj.t_birth)
        gap = tj.position(t_ref) - ti.position(t_ref)
        t_col = t_ref + max(gap, 0.0) / (ti.speed - tj.speed)
        return t_col if t_col <= T + 1e-12 else None

    def push(i: int, j: int) -> None:
        nonlocal counter
        t_col = collision_time(i, j)
        if t_col is not None:
            counter += 1
            heapq.heappush(heap, (t_col, counter, i, j))

    for a, b in zip(order[:-1], order[1:]):
        push(a, b)

    while heap:
        t_col, _, i, j = heapq.heappop(heap)
        ti, tj = tracks[i], tracks[j]
        if ti.t_death != np.inf or tj.t_death != np.inf or ti.right != j:
            continue  # stale event
        x_col = ti.position(t_col)
        ti.t_death = t_col
        tj.t_death = t_col
        new = _Track(
            x_col, t_col, 0.5 * (ti.uL + tj.uR), ti.uL, tj.uR,
            left=ti.left, right=tj.right,
        )
        tracks.append(new)
        k = len(tracks) - 1
        if ti.left >= 0:
            tracks[ti.left].right = k
        if tj.right >= 0:
            tracks[tj.right].left = k
        if new.left >= 0:
            push(new.left, k)
        if new.right >= 0:
            push(k, new.right)
    return sol
