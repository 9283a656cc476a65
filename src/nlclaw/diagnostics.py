"""Executable checks and measurements over solver trajectories.

Every structural property the solvers promise (range bounds, total
variation, L1 time regularity, stability envelopes, one-sided slope
bounds, front speeds, convergence and non-convergence under eps -> 0)
is realised here as a measurement with an explicit threshold, so a run
either demonstrably honours its contract or fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fluxes import FluxSpec
from .grids import (
    GridFunction1D,
    GridMismatchError,
    RiemannData,
    sample,
    total_variation,
    uniform_grid,
)
from .kernel import Mollifier
from .reference import burgers_riemann_exact, godunov_solve, lax_oleinik_solve
from .solver import (
    SolverConfig,
    Trajectory,
    check_node_steps,
    check_stored_levels,
    solve,
    speed_bound,
    transport_step,
)

__all__ = [
    "CheckResult",
    "ConvergenceTable",
    "DiagnosticsReport",
    "FRONT_SPEED_TOL",
    "FrontSpeedFit",
    "MultipleCrossingsError",
    "NoCrossingError",
    "StudyScenario",
    "catastrophe_time",
    "check_invariants",
    "convergence_study",
    "front_speed_check",
    "measure_front_speed_fit",
    "oleinik_check",
    "predicted_front_speed",
    "stability_envelope",
    "sweep_dx",
]


class NoCrossingError(ValueError):
    """A state in the fit window never crosses the requested level."""


class MultipleCrossingsError(ValueError):
    """A state in the fit window crosses the requested level more than once."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "detail": self.detail,
        }


@dataclass
class DiagnosticsReport:
    """Named check results for one trajectory, with the contract applied."""

    mode: str
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, value: float, threshold: float,
            detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, value, threshold, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


def catastrophe_time(u0: GridFunction1D) -> float:
    """First blow-up time of the local solution: 1 / max(-u0'), or
    infinity for non-decreasing data (forward-difference estimate)."""
    slopes = np.diff(u0.values) / u0.dx
    S = float(np.max(-slopes))
    if S <= 0.0:
        return np.inf
    return 1.0 / S


@dataclass(frozen=True)
class FrontSpeedFit:
    """Least-squares line through level-crossing positions over time."""

    speed: float
    stderr: float
    times: np.ndarray
    positions: np.ndarray


def _crossing_position(
    grid: GridFunction1D, values: np.ndarray, level: float
) -> float:
    d = values - level
    sign = np.sign(d)
    # treat exact hits as crossings at the node
    hits = np.nonzero(d == 0.0)[0]
    flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    count = hits.size + flips.size
    if count == 0:
        raise NoCrossingError(f"no crossing of level {level}")
    if count > 1:
        # adjacent hit/flip pairs describe one crossing smeared over a cell
        all_idx = np.sort(np.concatenate([hits.astype(float), flips + 0.5]))
        if all_idx[-1] - all_idx[0] > 1.5:
            raise MultipleCrossingsError(
                f"{count} crossings of level {level}"
            )
    if hits.size:
        return float(grid.x0 + grid.dx * hits[0])
    i = int(flips[0])
    x = grid.x
    th = d[i] / (d[i] - d[i + 1])
    return float(x[i] + th * grid.dx)


FRONT_SPEED_TOL = 0.02  # relative gap of a measured to a predicted speed


def predicted_front_speed(
    mode: str, flux: FluxSpec | None, uL: float, uR: float
) -> float | None:
    """Front speed of the regularised schemes on the decreasing Riemann
    datum (uL, uR): mode-dependent, not the Rankine-Hugoniot value.  None
    when no closed-form prediction is claimed (conservative variant)."""
    if mode == "nn":
        return 0.5 * (uL + uR)
    if mode == "velocity_reg":
        return 0.5 * float(flux.fprime(uL) + flux.fprime(uR))
    if mode == "flux_reg":
        return float(flux.fprime(0.5 * (uL + uR)))
    return None


def measure_front_speed_fit(
    traj: Trajectory, level: float, window: tuple[float, float]
) -> FrontSpeedFit:
    """Fit position(t) of the level crossing over stored times in window."""
    t_lo, t_hi = window
    sel = (traj.times >= t_lo - 1e-12) & (traj.times <= t_hi + 1e-12)
    times = traj.times[sel]
    if times.size < 2:
        raise ValueError("need at least two stored states in the fit window")
    pos = np.array(
        [_crossing_position(traj.grid, v, level) for v in traj.values[sel]]
    )
    A = np.vstack([times, np.ones_like(times)]).T
    coef, res, _, _ = np.linalg.lstsq(A, pos, rcond=None)
    slope = float(coef[0])
    n = times.size
    if n > 2 and res.size:
        var = float(res[0]) / (n - 2)
        denom = float(np.sum((times - times.mean()) ** 2))
        stderr = float(np.sqrt(var / denom))
    else:
        stderr = 0.0
    return FrontSpeedFit(slope, stderr, times, pos)


def front_speed_check(
    traj: Trajectory, flux: FluxSpec | None, data: RiemannData, T: float
) -> tuple:
    """The front-speed claim of a solve of the decreasing Riemann datum
    data to T: (fit, predicted, check), the fit of the crossing of (uL +
    uR)/2 over [T/2, T], traj's mode's predicted speed, and the
    "front_speed" CheckResult that the fit is within FRONT_SPEED_TOL of
    |predicted|, None when no nonzero speed is predicted."""
    fit = measure_front_speed_fit(traj, 0.5 * (data.uL + data.uR), (0.5 * T, T))
    predicted = predicted_front_speed(traj.mode, flux, data.uL, data.uR)
    if predicted is None or abs(predicted) <= 1e-12:
        return fit, predicted, None
    return fit, predicted, CheckResult(
        "front_speed",
        abs(fit.speed - predicted) <= FRONT_SPEED_TOL * abs(predicted),
        fit.speed, predicted,
        f"within {FRONT_SPEED_TOL:.0%} of the mode's predicted speed",
    )


TV_DEFICIT_TOL = 0.01  # terminal TV loss, relative to TV(u0)
LIPSCHITZ_SLACK = 1.05  # on the L1 time-Lipschitz bound
MASS_TOL = 1e-8  # mass drift per unit time (conservative mode)
ENVELOPE_SLACK = 1.05  # on the initial distance of stability_envelope
OLEINIK_TOL = 1e-8  # above the one-sided slope bound C


def check_invariants(traj: Trajectory) -> DiagnosticsReport:
    """Mode-aware structural checks over every stored state.

    Non-conservative modes must honour the exact range bound, the exact
    TV bound (no stored state exceeds the initial variation) with a small
    terminal deficit; the conservative mode to mass conservation instead
    (its range may grow).  Every mode is held to the L1 time-Lipschitz
    bound with K = S * TV(u0), S = traj.speed_bound (solver.speed_bound):
    sup|u0| in nn and conservative, sup|f'| on u0's range in the flux
    modes, and the detail names S as sup|u0| wherever the two are equal.
    """
    rep = DiagnosticsReport(mode=traj.mode)
    vals = traj.values
    dx = traj.grid.dx
    u0 = vals[0]
    lo0, hi0 = float(u0.min()), float(u0.max())
    tvs = np.sum(np.abs(np.diff(vals, axis=1)), axis=1)  # TV of each level
    tv0 = float(tvs[0])

    if traj.mode != "conservative":
        worst = max(0.0, lo0 - float(vals.min()), float(vals.max()) - hi0)
        rep.add("max principle", worst <= 0.0, worst, 0.0,
                "largest excursion beyond the initial range")

        excess = float(np.max(tvs - tv0))
        tv_tol = 1e-9 * max(1.0, tv0)
        rep.add("tv bounded by initial", excess <= tv_tol, excess, tv_tol,
                "largest excess of TV(u(t)) over TV(u0)")
        deficit = tv0 - float(tvs[-1])
        rep.add("tv terminal deficit", deficit <= TV_DEFICIT_TOL * tv0 + 1e-12,
                deficit, TV_DEFICIT_TOL * tv0,
                "TV lost between t=0 and t=T")
    else:
        masses = np.sum(vals, axis=1) * dx
        drift = float(np.max(np.abs(masses - masses[0])))
        span = max(1.0, traj.final_time)
        rep.add("mass conservation", drift <= MASS_TOL * span, drift,
                MASS_TOL * span, "largest drift of the discrete integral")

    S = traj.speed_bound
    K = S * tv0
    steps = np.sum(np.abs(np.diff(vals, axis=0)), axis=1) * dx
    bounds = LIPSCHITZ_SLACK * K * np.diff(traj.times) + 1e-14
    worst_ratio = float(np.max(steps / bounds, initial=0.0))
    speed = "sup|u0|" if S == float(np.max(np.abs(u0))) else "sup|f'(u0)|"
    rep.add("l1 time lipschitz", worst_ratio <= 1.0, worst_ratio, 1.0,
            f"worst ratio of stored-pair L1 distance to {LIPSCHITZ_SLACK}*K*dt, "
            f"K = {speed}*TV(u0) = {K:.6g}")
    return rep


def stability_envelope(
    traj_u: Trajectory, traj_v: Trajectory, m: Mollifier
) -> DiagnosticsReport:
    """L1 distance of two runs stays inside exp(C t) times the initial
    distance, C = sup-kernel * (TV(u0) + TV(v0))."""
    if traj_u.times.size != traj_v.times.size or np.any(
        np.abs(traj_u.times - traj_v.times) > 1e-12
    ):
        raise ValueError("trajectories must share stored times")
    if not traj_u.grid.same_grid(traj_v.grid):
        raise GridMismatchError("stability_envelope requires identical grids")
    C = m.sup * (total_variation(traj_u.grid) + total_variation(traj_v.grid))
    dist = np.sum(np.abs(traj_u.values - traj_v.values), axis=1) * traj_u.grid.dx
    d0 = float(dist[0])
    rep = DiagnosticsReport(mode=traj_u.mode)
    if d0 == 0.0:
        # identical data must stay identical (both solvers are
        # deterministic), up to roundoff
        excess = dist
    else:
        log_bound = C * traj_u.times + np.log(d0 * ENVELOPE_SLACK)
        with np.errstate(divide="ignore"):
            excess = np.log(dist) - log_bound
    k = int(np.argmax(excess))
    worst, worst_t = 0.0, 0.0
    if excess[k] > 0.0:
        worst, worst_t = float(excess[k]), float(traj_u.times[k])
    if d0 == 0.0:
        rep.add("stability envelope", worst <= 1e-12, worst, 1e-12,
                "identical data: max distance over time")
    else:
        rep.add("stability envelope", worst <= 0.0, worst, 0.0,
                f"max log-excess over exp({C:.4g} t) * d0 * {ENVELOPE_SLACK}, "
                f"worst at t={worst_t:.4g}")
    return rep


def oleinik_check(
    u: GridFunction1D,
    C: float,
    excluded: Sequence[tuple[float, float]] = (),
) -> DiagnosticsReport:
    """One-sided slope bound: forward differences at most C + OLEINIK_TOL
    outside the excluded intervals (tubes around shock positions)."""
    slopes = np.diff(u.values) / u.dx
    x_left = u.x[:-1]
    x_right = u.x[1:]
    mask = np.ones(slopes.size, dtype=bool)
    for a, b in excluded:
        mask &= ~((x_right >= a) & (x_left <= b))
    rep = DiagnosticsReport(mode="any")
    if not np.any(mask):
        rep.add("oleinik one-sided bound", True, -np.inf, C + OLEINIK_TOL,
                "all cells excluded")
        return rep
    worst = float(np.max(slopes[mask]))
    rep.add("oleinik one-sided bound", worst <= C + OLEINIK_TOL, worst,
            C + OLEINIK_TOL,
            f"max forward difference outside {len(tuple(excluded))} excluded tube(s)")
    return rep


@dataclass
class ConvergenceRow:
    """One eps of a sweep.  trajectory and reference (the solve and the
    reference state on its grid) are kept for callers that check more
    than the errors; as_dict leaves them out."""

    epsilon: float
    dx: float
    dt: float
    error_L1: float
    error_sup: float
    floor_dominated: bool
    trajectory: Trajectory | None = field(
        default=None, repr=False, compare=False
    )
    reference: GridFunction1D | None = field(
        default=None, repr=False, compare=False
    )

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "dx": self.dx,
            "dt": self.dt,
            "error_L1": self.error_L1,
            "error_sup": self.error_sup,
            "floor_dominated": bool(self.floor_dominated),
        }


@dataclass
class ConvergenceTable:
    """eps vs error records, and log-log rates fitted through them."""

    rows: list
    reference: str

    def __post_init__(self) -> None:
        eps = [r.epsilon for r in self.rows]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("rows must be sorted by decreasing epsilon")
        if any(r.error_L1 < 0 or r.error_sup < 0 for r in self.rows):
            raise ValueError("errors must be nonnegative")

    def errors(self, norm: str) -> np.ndarray:
        """Each row's error in norm ("sup" or "l1")."""
        if norm == "sup":
            return np.array([r.error_sup for r in self.rows])
        if norm == "l1":
            return np.array([r.error_L1 for r in self.rows])
        raise ValueError(f"unknown norm {norm!r}")

    def fit_rate(self, norm: str, n_points: int | None = 3) -> float:
        """Least-squares slope of log error against log eps over the
        n_points smallest eps values (all rows when n_points is None);
        ValueError when that leaves fewer than two points."""
        errs = self.errors(norm)
        eps = np.array([r.epsilon for r in self.rows])
        if n_points is not None and n_points < len(eps):
            eps = eps[-n_points:]
            errs = errs[-n_points:]
        if len(eps) < 2:
            raise ValueError(f"a rate needs 2 or more points, not {len(eps)}")
        if np.any(errs <= 0.0):
            return np.inf
        return float(np.polyfit(np.log(eps), np.log(errs), 1)[0])

    def as_dict(self) -> dict:
        """The table as sweep files hold it: the L1 rate, 3 smallest eps."""
        return {
            "reference": self.reference,
            "rate_norm": "l1",
            "fitted_rate": self.fit_rate("l1"),
            "rows": [r.as_dict() for r in self.rows],
        }


@dataclass(frozen=True)
class StudyScenario:
    """What to solve and against which truth, for a convergence sweep.

    Sweeps couple dx = min(dx_max, eps/8).  The default dx_max leaves the
    eps/8 coupling in charge: every row then resolves the kernel by the
    same number of cells, and both the solver's and the oracle's grid
    floors scale with eps, so fitted rates measure the model and not the
    discretisation.  Cap dx_max only when a fixed grid is wanted.
    """

    data: object
    T: float
    window: tuple[float, float]
    mode: str = "nn"
    flux: FluxSpec | None = None
    dx_max: float = np.inf


def sweep_dx(dx_max: float, epsilon: float) -> float:
    """The grid spacing of a sweep's eps row: min(dx_max, eps/8)."""
    return min(dx_max, epsilon / 8.0)


PADDING_MARGIN = 1.0


def padded_grid_bounds(
    window: tuple[float, float], speed: float, epsilon: float, T: float,
    dx: float,
) -> tuple[float, float]:
    """Domain covering the window plus the influence-zone padding
    speed * T + epsilon + PADDING_MARGIN, aligned so window nodes land on
    the grid; speed is the mode's solver.speed_bound on the data range."""
    pad = speed * T + epsilon + PADDING_MARGIN
    cells = int(np.ceil(pad / dx))
    return window[0] - cells * dx, window[1] + cells * dx


def _reference_state(
    reference: str, u0: GridFunction1D, scenario: StudyScenario
) -> GridFunction1D:
    if reference == "lax_oleinik":
        return lax_oleinik_solve(u0, scenario.T)
    if reference == "fan":
        d = scenario.data
        if not isinstance(d, RiemannData):
            raise ValueError("'fan' reference needs RiemannData")
        return u0.with_values(
            np.asarray(burgers_riemann_exact(d, u0.x / scenario.T))
        )
    if reference == "godunov":
        flux = scenario.flux
        if flux is None:
            raise ValueError("'godunov' reference needs a flux")
        return godunov_solve(u0, flux, scenario.T)
    raise ValueError(f"unknown reference {reference!r}")


def convergence_study(
    scenario: StudyScenario,
    epsilons: Sequence[float],
    reference: str = "lax_oleinik",
    cfg: SolverConfig | None = None,
) -> ConvergenceTable:
    """Solve the scenario for each eps and measure errors against the
    reference at time T on the stated window.

    dx is coupled to eps by sweep_dx so the kernel is always
    resolved by the same number of cells and measured rates reflect eps,
    not the grid.  Rows with L1 error at the grid floor (<= 10 dx) are
    flagged; rates fitted through them reflect the floor, not the model.
    Rows are solved one after another on the calling thread, in
    decreasing eps order.  Every row's node-steps and stored values are
    checked (WorkBudgetError) before any row is sampled on its padded
    grid.  That pre-check sizes dt by transport_step, the rule a transport
    solve sizes its own step by, on the window's samples, the solve on the
    padded grid, whose sup is at least as large: the pre-check's counts
    are lower bounds, and each solve checks its own exactly (the
    conservative solver, whose step follows its velocity, as it steps).
    """
    cfg = cfg or SolverConfig(store_stride=10**9)
    eps_sorted = sorted(set(float(e) for e in epsilons), reverse=True)

    def padded(eps: float) -> tuple[float, float, float, float]:
        """The row's eps, dx and padded domain, once its work is checked."""
        dx = sweep_dx(scenario.dx_max, eps)
        u0 = sample(scenario.data, *scenario.window, dx)
        speed = speed_bound(scenario.mode, scenario.flux, u0.values)
        a, b = padded_grid_bounds(scenario.window, speed, eps, scenario.T, dx)
        nodes = uniform_grid(a, b, dx)[1]
        dt = transport_step(cfg, dx, u0.values, scenario.data)
        check_node_steps(nodes, scenario.T, dt)
        check_stored_levels(nodes, scenario.T, dt, cfg.store_stride)
        return eps, dx, a, b

    def row(eps: float, dx: float, a: float, b: float) -> ConvergenceRow:
        u0 = sample(scenario.data, a, b, dx)
        # the reference first: a reference that rejects the data (a
        # non-convex flux for Godunov) then fails before any solve
        ref = _reference_state(reference, u0, scenario)
        traj = solve(
            scenario.mode, u0, eps, scenario.T, cfg,
            data=scenario.data, flux=scenario.flux,
        )
        sl = u0.window_slice(*scenario.window)
        diff = np.abs(traj.final.values - ref.values)[sl]
        err_l1 = float(np.sum(diff) * dx)
        err_sup = float(np.max(diff))
        return ConvergenceRow(
            eps, dx, traj.dt, err_l1, err_sup, err_l1 <= 10.0 * dx,
            trajectory=traj, reference=ref,
        )

    # every row's work is checked before any row's padded grid is sampled
    grids = [padded(eps) for eps in eps_sorted]
    rows = [row(*g) for g in grids]
    return ConvergenceTable(rows, reference)
