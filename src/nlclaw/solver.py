"""Nonlocal transport solvers.

The workhorse is a semi-Lagrangian scheme that is self-consistent in the
velocity: the advecting field is the mollified *new* state, found by Picard
iteration, mirroring the fixed-point construction that gives the continuum
equation its classical solutions.  Three velocity wirings share the scheme:

    nn            v = eta_eps * u            (Burgers-type nonlocal model)
    velocity_reg  v = eta_eps * f'(u)
    flux_reg      v = f'(eta_eps * u)

Solves advect the backward characteristic map phi(t, x) =
y_{t,x}(0) (phi itself solves the transport equation with phi(0, x) = x)
and recover the state as u(t) = u0(phi(t)).  Composing with the datum
instead of re-interpolating the state step after step is what keeps a
two-valued step datum two-valued forever: re-interpolation would seed
intermediate values in the jump cell, and the velocity gradient of order
1/epsilon would stretch them into a spurious rarefaction fan, erasing
exactly the non-convergence behaviour this model exists to exhibit.  The
interpolation of phi at the characteristic feet is cubic and clipped to
the bracketing nodal values, so the visited portion of the datum, the
range of the data, and its total variation can only shrink, never grow.
One Picard step and one stepping loop serve every such solve, the 2D
solver in twodim included (its foot field has two components).

A Picard pass recomputes the velocity, the feet, phi and the datum only
on the span of nodes whose inputs changed since the previous pass: each
stage on the span of the stage before, widened by that stage's stencil
reach.  Away from a front a Riemann or piecewise solution is constant, so
after a step's first pass almost every node is final.  A recomputed entry
goes through the same elementwise operations as on the full grid and the
rest keep their bits, so the result is bitwise that of full passes.

On data without tracked jumps a step's first pass traces the feet through
the velocity extrapolated over the last three step starts, not through
the velocity at the step start: up to the catastrophe time that velocity
is smooth in time, and the prediction saves the pass or two the
iteration would spend catching up with it.  Data with tracked jumps keep
the step-start velocity, since there the extrapolation crosses the front.

A conservative finite-volume variant of the nonlocal model is provided for
comparison.  It conserves mass by construction and deliberately carries no
maximum-principle guarantee; the divergence between the two is a feature
under study, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fluxes import FluxSpec
from .grids import (
    DatumError,
    GridFunction1D,
    PiecewiseInitialData,
    RiemannData,
    interpolate_at,
    interpolate_values,
    sup_norm,
)
from .kernel import Mollifier, build_mollifier, convolve_values

__all__ = [
    "PicardDivergenceError",
    "SolverConfig",
    "Trajectory",
    "WorkBudgetError",
    "check_node_steps",
    "check_stored_levels",
    "solve",
    "solve_conservative_nonlocal",
    "solve_general",
    "solve_nn",
    "speed_bound",
    "step_times",
]

SUP_FLOOR = 1e-12  # dt cap divisor for all-zero data
PICARD_TOL = 1e-10  # sup-norm change of the foot field that ends a step
PICARD_MAX_ITERS = 50  # passes one step may take before it has diverged
# nodes x steps one solve may take: far above any run the battery makes
# (the largest, 8,601 nodes x 4,000 steps, is 3.4e7)
NODE_STEP_BUDGET = 1e10
# nodes x stored levels one solve may keep: 800 MB of levels, held twice
# while np.stack joins them; 140 times the largest battery solve (8,601
# nodes x 81 levels, 7.0e5)
LEVEL_BUDGET = 1e8

MODES = ("nn", "conservative", "velocity_reg", "flux_reg", "velocity_reg_2d")
FLUX_MODES = ("velocity_reg", "flux_reg")  # the 1D modes that read f'
SPEED_PROBES = 201  # evenly spaced points of the data range speed_bound reads


def speed_bound(mode: str, flux: FluxSpec | None, values) -> float:
    """The largest characteristic speed S of a mode on the data range [lo,
    hi] = [min values, max values], the constant of the L1 bound
    ||u(t) - u(s)||_1 <= S TV(u0) |t - s|.  nn and conservative advect at
    a mollified u: S = max(|lo|, |hi|).  The FLUX_MODES advect at a
    mollified f'(u) or at f' of a mollified u (in [lo, hi] too): S is the
    largest |f'| at SPEED_PROBES evenly spaced points of [lo, hi], ends
    included, which is sup|f'| when |f'| is convex or monotone there
    (Burgers: bitwise max(|lo|, |hi|); cubic: max(lo^2, hi^2)) and, for
    an expression flux, an estimate that misses peaks between the points.
    """
    lo, hi = float(np.min(values)), float(np.max(values))
    if mode not in FLUX_MODES:
        return max(abs(lo), abs(hi))
    probe = np.linspace(lo, hi, SPEED_PROBES)
    return float(np.max(np.abs(np.asarray(flux.fprime(probe), dtype=float))))


class WorkBudgetError(ValueError):
    """A solve would take more than NODE_STEP_BUDGET node-steps or keep
    more than LEVEL_BUDGET stored values; key names the scenario setting
    behind the excess ("initial" or "stride")."""

    def __init__(self, key: str, detail: str):
        super().__init__(detail)
        self.key = key


def check_node_steps(nodes: int, T: float, dt: float) -> None:
    """Reject a solve of nodes nodes over ceil(T/dt) steps beyond the
    budget, before anything is allocated for it."""
    steps = float(np.ceil(T / dt))
    count = nodes * steps
    if count > NODE_STEP_BUDGET:
        raise WorkBudgetError(
            "initial",
            f"{nodes} nodes x {steps:.6g} steps (T = {T!r}, dt = {dt!r}) "
            f"= {count:.3g} node-steps, above the budget of "
            f"{NODE_STEP_BUDGET:.0e}",
        )


def check_stored_levels(nodes: int, T: float, dt: float, stride: int) -> None:
    """Reject a solve that would store more than LEVEL_BUDGET values, before
    any step: nodes values per level, one level every stride of the
    ceil(T/dt) steps plus those at t = 0 and at T."""
    levels = 1.0 + float(np.ceil(np.ceil(T / dt) / stride))
    count = nodes * levels
    if count > LEVEL_BUDGET:
        raise WorkBudgetError(
            "stride",
            f"{nodes} nodes x {levels:.0f} stored levels (stride {stride}) "
            f"= {count:.3g} stored values, above the budget of "
            f"{LEVEL_BUDGET:.0e}",
        )


class PicardDivergenceError(RuntimeError):
    """Self-consistency iteration failed to contract; dt is too large.

    step is the index of the failing step (0 for the first), t the time
    it started from, residual the foot field's change in its last pass.
    """

    def __init__(self, step: int, t: float, residual: float):
        super().__init__(
            f"step {step} from t = {t!r}: no contraction after "
            f"{PICARD_MAX_ITERS} iterations (last change {residual:.3e}); "
            "reduce dt"
        )
        self.step, self.t, self.residual = step, t, residual


@dataclass(frozen=True)
class SolverConfig:
    """Step-size and storage policy shared by all solvers."""

    cfl: float = 0.5
    store_stride: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.store_stride < 1:
            raise ValueError("store_stride must be >= 1")

    def time_step(self, dx: float, sup0: float) -> float:
        return self.cfl * dx / max(sup0, SUP_FLOOR)


@dataclass
class Trajectory:
    """Stored time levels of one solve on a fixed 1D or 2D grid.

    values[k] holds the state at times[k] on the nodes of grid (the
    state at t = 0; a twodim.GridFunction2D for the 2D solver), so values
    has shape (levels, *grid.values.shape).  speed_bound is speed_bound
    on grid's range (2D: the larger axis's), dt the step the solver chose
    (the conservative solver: its first step, before any clamp to T).
    """

    grid: GridFunction1D
    times: np.ndarray
    values: np.ndarray
    epsilon: float
    mode: str
    speed_bound: float
    picard_counts: np.ndarray | None = None
    dt: float | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.values.shape != self.times.shape + self.grid.values.shape:
            raise ValueError("values must have shape (levels, *grid shape)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.times.size and (
            self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0)
        ):
            raise ValueError("times must start at 0 and increase strictly")

    @property
    def states(self) -> tuple:
        """Each stored level as a grid function (a view into values)."""
        return tuple(self.grid.with_values(v) for v in self.values)

    @property
    def final(self) -> GridFunction1D:
        return self.grid.with_values(self.values[-1])

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _cubic_weights(s: np.ndarray) -> tuple:
    """4-point cubic Lagrange weights at offsets (-1, 0, 1, 2) for the
    fractional positions s in [0, 1]."""
    # the shared terms, once each; every weight keeps its operation order
    ms, s2, q = -s, s - 2.0, s * s - 1.0
    return (
        ms * (s - 1.0) * s2 / 6.0,
        q * s2 / 2.0,
        ms * (s + 1.0) * s2 / 2.0,
        s * q / 6.0,
    )


def _interp_foot(
    phi: np.ndarray, x0: float, dx: float, y: np.ndarray
) -> np.ndarray:
    """Interpolate the foot field phi at positions y.

    Inside the grid: 4-point cubic Lagrange, clipped to the bracketing
    nodal values.  The clip keeps the interpolant monotone wherever phi is,
    which is what makes range and total variation shrink under composition
    with the datum.  Cubic rather than linear matters at a compressive
    front: phi steepens there with one-sided curvature, and the linear
    interpolation error (~ phi'' dx^2) then pushes the datum-jump preimage
    systematically sideways, i.e. the front drifts off its speed by O(1)
    percents.  The cubic knocks that error down by the squared ratio of
    front width to dx.  Outside the grid: unit-slope extension, exact
    wherever the boundary zone is causally constant (phi(x) - x is
    constant there).
    """
    n = phi.size
    pos = (y - x0) / dx
    i = np.minimum(n - 2, np.maximum(0, np.floor(pos).astype(int)))
    th = pos - i
    a = phi[i]
    b = phi[i + 1]
    out = a + th * (b - a)
    inner = (i >= 1) & (i <= n - 3)
    if inner.any():
        ii = i[inner]
        wm1, w0, w1, w2 = _cubic_weights(th[inner])
        out[inner] = (
            wm1 * phi[ii - 1] + w0 * phi[ii] + w1 * phi[ii + 1]
            + w2 * phi[ii + 2]
        )
    # np.clip(out, lo, hi, out=out) with its tie rule (see interpolate_values)
    np.maximum(out, np.minimum(a, b), out=out)
    np.minimum(out, np.maximum(a, b), out=out)
    left = pos < 0.0
    if left.any():
        out[left] = phi[0] + (y[left] - x0)
    right = pos > n - 1
    if right.any():
        out[right] = phi[-1] + (y[right] - (x0 + (n - 1) * dx))
    return out


def _datum_evaluator(
    u0: GridFunction1D, data
) -> Callable[[np.ndarray], np.ndarray]:
    """Map foot positions to initial values, clipped to the sampled range.

    With a functional datum the evaluation is exact, which is what lets a
    jump stay sharp: feet on either side of the discontinuity resolve to
    the pure one-sided states no matter how closely they crowd it.  Without
    one, the sampled initial state is linearly interpolated, which is fine
    for smooth data.  The clip pins the maximum principle to the range of
    the stored initial state even where a smooth datum peaks between nodes.
    A datum value that is not finite raises DatumError.
    """
    lo = float(np.min(u0.values))
    hi = float(np.max(u0.values))
    if data is None:
        return lambda y: interpolate_values(u0.values, u0.x0, u0.dx, y)
    if not callable(data):
        raise TypeError(f"cannot evaluate initial data of type {type(data)!r}")

    def ev(y: np.ndarray) -> np.ndarray:
        vals = np.asarray(data(y), dtype=float)
        if vals.shape != y.shape:
            vals = np.broadcast_to(vals, y.shape).astype(float)
        if not np.isfinite(vals).all():  # a foot can leave the domain
            bad = ~np.isfinite(vals)
            raise DatumError(
                f"values must be finite, and at the characteristic foot "
                f"x = {float(y[bad][0])!r} the datum is {float(vals[bad][0])!r}"
            )
        return np.minimum(hi, np.maximum(lo, vals))

    return ev


class _Foot(NamedTuple):
    """The dimension-specific pieces of the foot-field step.

    nodes holds the node coordinates, one array per axis, broadcastable to
    the grid shape (phi at t = 0).  interp_linear(values, points) is the
    clipped linear interpolant that traces the feet; interp_foot(phi,
    feet) interpolates every foot-field component at the feet, one array
    each, from one interpolation stencil; datum(*phi)
    evaluates u0 o phi.  changed(new, old) is the span (lo, hi) of
    first-axis indices outside which two value arrays agree bit for bit,
    and reach(v, dt) how many nodes a change of v can move along that axis
    into the feet traced through it; a foot whose nodes are not arrays
    along that axis (the 2D one) reports the full span.  pin, when set,
    is the front pin: pin(vals, phi, v, dt, fronts) returns the pinned
    values and the advanced front state, and fronts is that state at
    t = 0.
    """

    nodes: tuple
    interp_linear: Callable
    interp_foot: Callable
    datum: Callable
    changed: Callable
    reach: Callable
    pin: Callable | None = None
    fronts: object = None


@dataclass
class _LastPass:
    """What the previous Picard pass built, for the next pass to update.

    v is the velocity of the values src, and feet were traced through v
    over a step of dt.  radius is the kernel radius: a value reaches that
    many nodes into v.  The arrays are never written to; an update makes
    copies.  dt is NaN when the feet were traced through a predicted field
    instead of v: no step matches it, so the next pass retraces them all.
    starts holds v at the earlier step starts, the latest first (at most
    two), for the first pass of a step to extrapolate from.
    """

    radius: int
    src: np.ndarray | None = None
    v: tuple = ()
    dt: float = 0.0
    feet: tuple = ()
    starts: tuple = ()


def _widen(span: tuple, d: int, n: int) -> tuple:
    """The span (lo, hi) grown by d nodes each side, clipped to [0, n).

    A span over more than half the grid becomes the whole grid: there,
    recomputing the rest costs less than copying it around the span.
    """
    lo, hi = span
    if lo >= hi:
        return span
    lo, hi = max(lo - d, 0), min(hi + d, n)
    return (0, n) if 2 * (hi - lo) > n else (lo, hi)


def _extrapolated(v: tuple, starts: tuple) -> tuple:
    """The velocity at the end of a step predicted from v, the velocity at
    its start, and starts, the velocities at the earlier step starts
    (latest first): quadratic through three step starts, linear through
    two, v itself on the first step."""
    if len(starts) == 2:
        return tuple(3.0 * a - 3.0 * b + c for a, b, c in zip(v, *starts))
    if starts:
        return tuple(2.0 * a - b for a, b in zip(v, starts[0]))
    return v


def _patched(old: tuple, lo: int, hi: int, n: int, part: list) -> tuple:
    """Copies of the arrays old with [lo:hi] replaced by those of part; on
    the full span [0:n], part's own arrays."""
    if hi - lo == n:
        return tuple(part)
    out = []
    for o, p in zip(old, part):
        o = o.copy()
        o[lo:hi] = p
        out.append(o)
    return tuple(out)


def _picard_step_foot(
    phi_prev: tuple,
    vals_prev: np.ndarray,
    foot: _Foot,
    velocity_of: Callable[[np.ndarray], tuple],
    dt: float,
    fronts,
    step: int,
    t: float,
    last: _LastPass,
) -> tuple[tuple, np.ndarray, int, object]:
    """One self-consistent step of the foot-field formulation, any dimension.

    The velocity comes from the candidate new state u0 o phi, the feet are
    traced with the midpoint rule, and every component of the previous foot
    field is interpolated at the feet.  Convergence is measured on phi (a
    continuous quantity even across jumps of the state), as the largest
    sup-norm change over the components.

    step and t (the step's index and start time) only locate a
    PicardDivergenceError.

    A pass recomputes only the span whose inputs changed, and last carries
    the previous pass (of this step or the one before) to it.  v is
    recomputed where the candidate values differ from those v was built
    from, bit for bit (so a 0.0/-0.0 flip counts), widened by the kernel
    radius; the feet where v was recomputed, widened by foot.reach, or
    everywhere when dt differs from the feet's step; phi and the datum
    where the feet were recomputed, or everywhere on a step's first pass,
    since phi_prev has moved.  Every recomputed entry goes through the same
    elementwise operations as on the full grid (the velocity through
    convolve_values on a window with the kernel's full reach, whose own
    edge padding is the grid's exactly where it touches a grid end), and
    outside the span the inputs are bitwise those of the last pass, so a
    pass is bitwise the full-grid pass.  The change reduction runs over
    the span where phi was recomputed (elsewhere it is 0); the front pin
    and the cycle reduction stay global.  A foot that reports the full span
    (the 2D one) makes every pass a full pass.

    Without a front pin (no tracked datum jumps), the first pass traces the
    feet through a prediction of the velocity at the end of the step,
    extrapolated from its values at the step starts (last.starts):
    3 V(u_n) - 3 V(u_{n-1}) + V(u_{n-2}) from the third step on,
    2 V(u_n) - V(u_{n-1}) on the second, V(u_n) on the first.  Those feet
    are traced on the whole grid and the next pass retraces them all.  The
    fixed point is unchanged and the iteration reaches it in fewer passes
    (nn on -tanh(x), dx 0.01, eps 0.1, to T = 0.5: 295, where V(u_n) takes
    484), so the state moves only within the PICARD_TOL stopping rule.
    With a front pin the first pass keeps V(u_n): the extrapolation would
    cross the front, put nodes on the wrong side of the jump and widen
    every later pass's span, and so cost passes (on the benchmark's
    decreasing Riemann runs, 2.77 per step where V(u_n) takes 2.26).

    With a front pin (1D data with tracked jumps), fronts holds the tracked
    preimages of the datum jumps at the start of the step.  Each pass then
    advances the preimages through the candidate velocity and pins the jump
    side of nearby nodes to the preimage rather than to the interpolated
    foot field, so the velocity the next pass mollifies is centred on the
    kinematically correct front position.  The pin must live inside the
    iteration: applied only afterwards, the mollified velocity stays
    centred on the biased front and the preimage simply locks in behind it
    at the same biased speed.

    A datum jump makes the iteration map discontinuous: a node whose foot
    converges onto the jump flips between the one-sided states each pass,
    displacing its own foot by O(dt * dx/eps) and back, so no fixed point
    exists and the iteration closes into an exact period-2 cycle instead.
    The two members differ only in which side of the jump that foot sits
    on -- a sub-cell ambiguity in the jump's placement, not in the weak
    solution -- so the cycle is accepted once it has closed to PICARD_TOL
    and the current member is returned (a deterministic choice).  An increasing
    datum jump is what needs this rule: the fan it opens maps a whole
    range of nodes onto the jump, and without the rule the iteration runs
    out of passes (RiemannData(-1, 1) with eps 0.1 and dx 0.01 diverges
    before T = 0.2).  In 2D a datum jump is a curve and feet straddling it
    flip sides the same way.
    """
    n = vals_prev.shape[0]
    r = last.radius
    cand_phi = phi_prev
    cand_vals = vals_prev
    cand_fronts = fronts
    older_phi = None
    raw = None  # the datum at cand_phi, before the pin
    for j in range(PICARD_MAX_ITERS):
        # v, where the values it was built from changed
        lo, hi = 0, n
        if last.src is not None:
            lo, hi = _widen(foot.changed(cand_vals, last.src), r, n)
        if lo < hi:
            w = max(lo - r, 0)  # the window reaches r nodes past the span
            part = velocity_of(cand_vals[w:min(hi + r, n)])
            last.v = _patched(
                last.v, lo, hi, n, [p[lo - w:hi - w] for p in part]
            )
        last.src = cand_vals
        v = last.v
        if j == 0 and foot.pin is None:
            v = _extrapolated(last.v, last.starts)
            last.starts = (last.v, *last.starts[:1])
        # the feet, where v changed; all of them when dt moved or when
        # they are traced through the prediction
        if dt != last.dt or v is not last.v:
            lo, hi = 0, n
        elif 0 < hi - lo < n:
            lo, hi = _widen((lo, hi), foot.reach(v, dt), n)
        last.dt = dt if v is last.v else np.nan
        if lo < hi:
            vs = [vk[lo:hi] for vk in v]
            mids = [p[lo:hi] - 0.5 * dt * vk for p, vk in zip(foot.nodes, vs)]
            last.feet = _patched(last.feet, lo, hi, n, [
                p[lo:hi] - dt * 0.5 * (vk + foot.interp_linear(vf, mids))
                for p, vk, vf in zip(foot.nodes, vs, v)
            ])
        # phi and the datum, where the feet changed; everywhere on a
        # step's first pass, since phi_prev has moved
        if j == 0:
            lo, hi = 0, n
        new_phi = cand_phi
        if lo < hi:
            feet = [fk[lo:hi] for fk in last.feet]
            new_phi = _patched(
                cand_phi, lo, hi, n, foot.interp_foot(phi_prev, feet)
            )
            (raw,) = _patched(
                (raw,), lo, hi, n, [foot.datum(*[p[lo:hi] for p in new_phi])]
            )
        # outside [lo, hi) new_phi holds cand_phi's own entries
        change = max(
            float(np.abs(a[lo:hi] - b[lo:hi]).max())
            for a, b in zip(new_phi, cand_phi)
        ) if lo < hi else 0.0
        cycle = np.inf if older_phi is None else max(
            float(np.abs(a - b).max()) for a, b in zip(new_phi, older_phi)
        )
        older_phi = cand_phi
        cand_phi = new_phi
        cand_vals = raw
        if foot.pin is not None:
            cand_vals, cand_fronts = foot.pin(
                raw.copy(), new_phi, v, dt, fronts
            )
        if change < PICARD_TOL or cycle < PICARD_TOL:
            return cand_phi, cand_vals, j + 1, cand_fronts
    raise PicardDivergenceError(step, t, change)


def _datum_jumps(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jump positions and one-sided limits of a structured functional datum.

    Only the structured datum types expose their discontinuities exactly;
    an arbitrary callable contributes no tracked jumps.  A limit that is
    not finite raises DatumError.
    """
    if isinstance(data, RiemannData):
        if data.uL != data.uR:
            return (
                np.array([0.0]),
                np.array([float(data.uL)]),
                np.array([float(data.uR)]),
            )
    elif isinstance(data, PiecewiseInitialData):
        pos, lefts, rights = [], [], []
        for k, b in enumerate(data.breakpoints):
            bq = np.array([float(b)])
            fl = float(np.asarray(data.pieces[k](bq), dtype=float).ravel()[0])
            fr = float(np.asarray(data.pieces[k + 1](bq), dtype=float).ravel()[0])
            if not np.isfinite([fl, fr]).all():
                raise DatumError(
                    f"values must be finite, and the one-sided limits at "
                    f"breakpoint {b!r} are {fl!r} and {fr!r}"
                )
            if fl != fr:
                pos.append(float(b))
                lefts.append(fl)
                rights.append(fr)
        if pos:
            return (np.array(pos), np.array(lefts), np.array(rights))
    return (np.empty(0), np.empty(0), np.empty(0))


def _advance_fronts(
    gammas: np.ndarray, x0: float, dx: float, v: np.ndarray, dt: float
) -> np.ndarray:
    """Midpoint step of d(gamma)/dt = v(gamma) for the jump preimages.

    Differentiating phi(t, gamma(t)) = const through the transport equation
    shows the preimage of a datum point moves at exactly the local
    velocity, so this ODE is the front kinematics with no interpolation of
    phi involved.  Preimages of distinct datum points cannot cross under a
    continuous velocity; the running maximum only repairs roundoff order
    violations once fronts have merged.

    A datum has a few jumps (one to three in the battery), and numpy's
    per-call cost on arrays that small outweighs the arithmetic, so each
    preimage is stepped in Python floats.  interpolate_at is bitwise
    interpolate_values at one point, and each preimage goes through the
    same expressions in the same order, so the result is bitwise that of
    interpolate_values applied to the whole array of preimages.
    """
    out = []
    for g in gammas.tolist():
        v1 = interpolate_at(v, x0, dx, g)
        v2 = interpolate_at(v, x0, dx, g + 0.5 * dt * v1)
        out.append(g + dt * v2)
    out = np.array(out)
    if out.size > 1:
        out = np.maximum.accumulate(out)
    return out


def _pin_fronts(
    vals: np.ndarray,
    phi: np.ndarray,
    x: np.ndarray,
    gammas: np.ndarray,
    jump_pos: np.ndarray,
    jump_left: np.ndarray,
    jump_right: np.ndarray,
) -> np.ndarray:
    """Overwrite the jump side where phi disagrees with the tracked preimage.

    The zero of the interpolated foot field places a flip cell only to
    within the local interpolation error of phi, and at a compressive front
    that error is one-sided, so the flip cell acquires a systematic speed
    bias.  The tracked preimage gamma carries the exact kinematics, so
    nodes between the two placements are reassigned to gamma's side of the
    jump.  The overwritten values are one-sided datum limits, hence the
    profile remains a composition of the datum with a monotone
    reparametrization and the range and variation bounds survive intact.
    """
    for g, y, fl, fr in zip(gammas, jump_pos, jump_left, jump_right):
        if g != g:  # no node is on either side of a NaN preimage
            continue
        # x is sorted, so x <= g exactly on x[:k] and x > g on x[k:]
        k = x.searchsorted(g, side="right")
        left, right = vals[:k], vals[k:]
        wrong_left = phi[:k] > y
        if wrong_left.any():
            left[wrong_left] = fl
        wrong_right = phi[k:] <= y
        if wrong_right.any():
            right[wrong_right] = fr
    return vals


def _velocity_fn(
    m: Mollifier, flux: FluxSpec | None, mode: str
) -> Callable[[np.ndarray], tuple]:
    """The 1D advecting field of a mode, as a one-component tuple."""
    if mode == "nn":
        return lambda u: (convolve_values(m, u),)
    if mode == "velocity_reg":
        return lambda u: (convolve_values(m, flux.fprime(u)),)
    if mode == "flux_reg":
        return lambda u: (flux.fprime(convolve_values(m, u)),)
    raise ValueError(f"no velocity wiring for mode {mode!r}")


def _changed_span(new: np.ndarray, old: np.ndarray) -> tuple:
    """First and one past the last index where new and old differ in
    their bit patterns; (0, 0) when they agree."""
    diff = new.view(np.uint64) != old.view(np.uint64)
    lo = int(diff.argmax())
    if not diff[lo]:
        return (0, 0)
    if diff[-1]:
        return (lo, diff.size)
    return (lo, diff.size - int(diff[::-1].argmax()))


def _foot_1d(u0: GridFunction1D, data) -> _Foot:
    """1D pieces: linear tracing, cubic foot interpolation, front pin."""
    x0, dx, x = u0.x0, u0.dx, u0.x
    jump_pos, jump_left, jump_right = _datum_jumps(data)

    def pin(vals, phi, v, dt, gammas):
        gammas = _advance_fronts(gammas, x0, dx, v[0], dt)
        vals = _pin_fronts(
            vals, phi[0], x, gammas, jump_pos, jump_left, jump_right
        )
        return vals, gammas

    return _Foot(
        nodes=(x,),
        interp_linear=lambda vals, pts: interpolate_values(
            vals, x0, dx, pts[0]
        ),
        interp_foot=lambda phi, feet: (_interp_foot(phi[0], x0, dx, feet[0]),),
        datum=_datum_evaluator(u0, data),
        changed=_changed_span,
        # a midpoint sits within 0.5 dt |v| of its node; one more node for
        # the stencil's right neighbour and one for the floor's roundoff
        reach=lambda v, dt: int(
            np.ceil(0.5 * dt * float(np.abs(v[0]).max()) / dx)
        ) + 2,
        pin=pin if jump_pos.size else None,
        fronts=jump_pos.copy(),
    )


def step_times(T: float, dt: float):
    """The uniform step schedule up to T: yields (k, t, t_next) for each
    step k, where t_next is k + 1 steps of dt capped at T; ceil(T / dt)
    steps (at least one), ending early at a step of no length."""
    t = 0.0
    for k in range(max(1, int(np.ceil(T / dt - 1e-12)))):
        t_next = min((k + 1) * dt, T)
        if t_next - t <= 0.0:
            return
        yield k, t, t_next
        t = t_next


def _solve_transport(
    u0,
    m: Mollifier,
    T: float,
    cfg: SolverConfig,
    velocity_of: Callable[[np.ndarray], tuple],
    mode: str,
    speed: float,
    data=None,
    dt: float | None = None,
    foot: _Foot | None = None,
) -> Trajectory:
    """Uniform-dt stepping loop shared by every non-conservative solve.

    Advances the foot field phi (phi(0) = identity, one component per
    axis) and stores u = u0 o phi at each kept level.  velocity_of maps a
    state to one velocity array per axis; speed is the speed_bound the
    trajectory records.  foot defaults to the 1D pieces for u0 and data;
    the 2D solver passes its own.  dt, when given, overrides the sup-norm
    CFL choice so coupled solves can share a time grid.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    if dt is None:
        dt = cfg.time_step(u0.dx, sup_norm(u0))
    elif dt <= 0.0:
        raise ValueError("dt must be positive")
    check_node_steps(u0.values.size, T, dt)
    check_stored_levels(u0.values.size, T, dt, cfg.store_stride)
    if foot is None:
        foot = _foot_1d(u0, data)
    phi = tuple(np.broadcast_to(p, u0.values.shape).copy() for p in foot.nodes)
    vals = u0.values.copy()
    fronts = foot.fronts
    times = [0.0]
    levels = [vals]
    counts = []
    last = _LastPass(m.radius)
    for k, t, t_next in step_times(T, dt):
        phi, vals, nit, fronts = _picard_step_foot(
            phi, vals, foot, velocity_of, t_next - t, fronts, k, t, last,
        )
        counts.append(nit)
        if (k + 1) % cfg.store_stride == 0 or t_next >= T:
            times.append(t_next)
            levels.append(vals)
    return Trajectory(
        u0.copy(), times, np.stack(levels), m.epsilon, mode, speed,
        picard_counts=np.asarray(counts, dtype=int), dt=dt,
    )


def solve(
    mode: str,
    u0: GridFunction1D,
    epsilon: float,
    T: float,
    cfg: SolverConfig,
    data=None,
    flux: FluxSpec | None = None,
) -> Trajectory:
    """Solve one 1D mode: the dispatch behind scenario runs and sweeps.

    The per-mode solvers are looked up by their module-level names at call
    time, so rebinding solve_nn, solve_general or
    solve_conservative_nonlocal (to trace or count them) covers every
    solve made through here.
    """
    if mode == "nn":
        return solve_nn(u0, epsilon, T, cfg, data=data)
    if mode == "conservative":
        return solve_conservative_nonlocal(u0, epsilon, T, cfg)
    if mode in FLUX_MODES:
        if flux is None:
            raise ValueError(f"mode {mode!r} needs a flux")
        return solve_general(u0, flux, epsilon, T, cfg, mode, data=data)
    raise ValueError(f"unknown mode {mode!r}")


def solve_nn(
    u0: GridFunction1D, epsilon: float, T: float, cfg: SolverConfig,
    data=None, dt: float | None = None,
) -> Trajectory:
    """Solve du/dt + (eta_eps * u) du/dx = 0 up to time T.

    data, when given, is the functional form of the initial datum (any
    callable of x, e.g. a RiemannData or PiecewiseInitialData); the solver
    then evaluates it exactly at characteristic feet instead of
    interpolating the sampled u0, which keeps jumps sharp.  dt, when
    given, replaces the CFL step of u0 (coupled solves share one step).
    """
    m = build_mollifier(epsilon, u0.dx)
    return _solve_transport(
        u0, m, T, cfg, _velocity_fn(m, None, "nn"), "nn",
        speed_bound("nn", None, u0.values), data=data, dt=dt,
    )


def solve_general(
    u0: GridFunction1D,
    flux: FluxSpec,
    epsilon: float,
    T: float,
    cfg: SolverConfig,
    mode: str,
    data=None,
) -> Trajectory:
    """Solve the general-flux regularisation in the requested mode.

    velocity_reg advects with eta_eps * f'(u); flux_reg with
    f'(eta_eps * u).  For the quadratic flux both collapse to solve_nn,
    and the shared code path makes that equality bitwise.
    """
    if mode not in FLUX_MODES:
        raise ValueError("mode must be velocity_reg or flux_reg")
    m = build_mollifier(epsilon, u0.dx)
    return _solve_transport(
        u0, m, T, cfg, _velocity_fn(m, flux, mode), mode,
        speed_bound(mode, flux, u0.values), data=data,
    )


def solve_conservative_nonlocal(
    u0: GridFunction1D, epsilon: float, T: float, cfg: SolverConfig
) -> Trajectory:
    """Finite-volume solve of du/dt + d/dx((eta_eps * u) u) = 0.

    Interface flux is (eta_eps * u) u upwinded on the sign of the
    interface-averaged mollified field.  Discrete mass is conserved
    exactly up to roundoff for data vanishing at the boundary.  There is
    no maximum principle here, on purpose: the continuum model it
    discretises does not have one either.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    m = build_mollifier(epsilon, u0.dx)
    dx = u0.dx
    dt0 = cfg.time_step(dx, sup_norm(u0))
    check_node_steps(u0.n, T, dt0)
    check_stored_levels(u0.n, T, dt0, cfg.store_stride)
    vals = u0.values.copy()
    times = [0.0]
    levels = [vals]
    t = 0.0
    k = 0
    # sup|u| can grow in this mode, so the step size adapts to the current
    # state; the schedule is still deterministic.
    while t < T - 1e-15:
        dt = min(cfg.time_step(dx, float(np.max(np.abs(vals)))), T - t)
        v = convolve_values(m, vals)
        # interface values between i and i+1; constant extension at ends
        v_face = 0.5 * (v[:-1] + v[1:])
        up = np.where(v_face >= 0.0, vals[:-1], vals[1:])
        flux_face = v_face * up
        flux_left = np.concatenate([[v[0] * vals[0]], flux_face])
        flux_right = np.concatenate([flux_face, [v[-1] * vals[-1]]])
        vals = vals - (dt / dx) * (flux_right - flux_left)
        t += dt
        k += 1
        if k % cfg.store_stride == 0 or t >= T - 1e-15:
            times.append(t)
            levels.append(vals)
    return Trajectory(
        u0.copy(), times, np.stack(levels), epsilon, "conservative",
        speed_bound("conservative", None, u0.values), dt=dt0,
    )

