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
the bracketing nodal values, so each interpolated foot stays between the
two nodes around it, and the visited portion of the datum and the range
of the data can only shrink, never grow.  The clip does not keep a
monotone phi monotone (the cubic can turn back inside the bracket), so
the total variation is not bounded by construction: check_invariants
checks it on every run.
One Picard loop, the step generator _transport_steps, serves every such
solve, the 2D solver in twodim included (its foot field has two
components).

A Picard pass recomputes the velocity, the feet, phi and the datum only on
the span of nodes whose inputs changed since the previous pass: each stage
on the span of the stage before, widened by that stage's stencil reach.  A
foot's stencil (cell and cubic weights) is built where the foot is traced
and kept with it: a pass that retraces no foot only gathers phi.  Away
from a front a Riemann or piecewise solution is constant, so after a
step's first pass almost every node is final, and a pass that returns the
values its velocity came from ends the step.  A recomputed entry goes
through the same elementwise operations as on the full grid and the rest
keep their bits, so the result is bitwise that of full passes.

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
)
from .kernel import Mollifier, build_mollifier, convolve_values

__all__ = [
    "PicardDivergenceError",
    "SolverConfig",
    "Trajectory",
    "WorkBudgetError",
    "check_node_steps",
    "check_stored_levels",
    "schedule",
    "solve",
    "solve_conservative_nonlocal",
    "solve_general",
    "solve_nn",
    "speed_bound",
    "step_times",
    "time_step",
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


def time_step(cfg: SolverConfig, dx: float, values) -> float:
    """The transport step cfg.cfl dx / sup|values| of every solver (SUP_FLOOR
    caps it on all-zero data).  values is a state's nodal values, or a
    tuple of equal-shape arrays whose joint sup sets one shared step (the
    Euler invariants); dx is the grid spacing (2D: the smaller one)."""
    return cfg.cfl * dx / max(float(np.max(np.abs(values))), SUP_FLOOR)


class WorkBudgetError(ValueError):
    """A solve would take more than NODE_STEP_BUDGET node-steps or keep
    more than LEVEL_BUDGET stored values; key names the scenario setting
    behind the excess ("initial" or "stride")."""

    def __init__(self, key: str, detail: str):
        super().__init__(detail)
        self.key = key


def check_node_steps(nodes: int, T: float, dt: float) -> None:
    """Reject a solve of nodes nodes over the steps step_times takes to T
    beyond the budget, before anything is allocated for it."""
    steps = _step_count(T, dt)
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
    any step: nodes values per level, one level every stride of the steps
    step_times takes to T, plus those at t = 0 and at T."""
    levels = 1.0 + float(np.ceil(_step_count(T, dt) / stride))
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


@dataclass
class Trajectory:
    """Stored time levels of one solve on a fixed 1D or 2D grid.

    values[k] holds the state at times[k] on the nodes of grid (the
    state at t = 0; a twodim.GridFunction2D for the 2D solver), so values
    has shape (levels, *grid.values.shape).  speed_bound is speed_bound
    on grid's range (2D: the larger axis's), dt the step time_step chose
    (the conservative solver: its first step, before any clamp to T).
    Solves on step_times' schedule store their last step, at T exactly.
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


def _foot_stencil(x0: float, dx: float, n: int, y: np.ndarray) -> tuple:
    """The interpolation stencil of the feet y on an n-node grid: y, the
    cells i, the _cubic_weights at pos - i, and the mask of the end-cell
    feet, which the cubic does not serve (every off-grid foot is one)."""
    pos = (y - x0) / dx
    i = np.minimum(n - 2, np.maximum(0, np.floor(pos).astype(int)))
    return (y, i, *_cubic_weights(pos - i), (i < 1) | (i > n - 3))


def _interp_foot(
    phi: np.ndarray, x0: float, dx: float, stencil: tuple
) -> np.ndarray:
    """Interpolate the foot field phi at the feet of stencil (_foot_stencil).

    Inside the grid: 4-point cubic Lagrange, clipped to the bracketing
    nodal values, so the range of phi never grows and neither does that of
    the datum composed with it.  The clip does not keep the interpolant
    monotone where phi is: on phi = (-52.33, -11.67, 0, 1, 4.67, 29.33),
    x0 = -2, dx = 1, the feet 0.9 and 0.95 give 0.99996 and then 0.99748.
    The total variation is checked per run (check_invariants), not
    guaranteed here.  Cubic rather than linear matters at a compressive
    front: phi steepens there with one-sided curvature, and the linear
    interpolation error (~ phi'' dx^2) then pushes the datum-jump preimage
    systematically sideways, i.e. the front drifts off its speed by O(1)
    percents.  The cubic knocks that error down by the squared ratio of
    front width to dx.  In an end cell: the clipped linear interpolant.
    Outside the grid: unit-slope extension, exact wherever the boundary
    zone is causally constant (phi(x) - x is constant there).

    Only feet within a step's travel of a grid end land in an end cell: at
    most two per end for nn at cfl 0.5 (a foot moves half a cell), about
    1 + dt S / dx in the flux modes.  On so few, numpy's per-call cost
    outweighs the arithmetic: they are fixed up in Python floats, an
    end-cell foot by grids.interpolate_at (its cell is the stencil's).
    """
    y, i, wm1, w0, w1, w2, edge = stencil
    a, b = phi[i], phi[i + 1]
    out = wm1 * phi.take(i - 1, mode="clip") + w0 * a + w1 * b
    out += w2 * phi.take(i + 2, mode="clip")
    # np.clip(out, lo, hi, out=out) with its tie rule (see interpolate_values)
    np.maximum(out, np.minimum(a, b), out=out)
    np.minimum(out, np.maximum(a, b), out=out)
    n = phi.size
    for k in np.flatnonzero(edge).tolist():
        yk = y.item(k)
        pos = (yk - x0) / dx
        if pos < 0.0:
            out[k] = phi.item(0) + (yk - x0)
        elif pos > n - 1:
            out[k] = phi.item(-1) + (yk - (x0 + (n - 1) * dx))
        else:
            out[k] = interpolate_at(phi, x0, dx, yk)
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

    A field with one component per axis (the nodes, the foot field, the
    velocity, the feet) is one (axes, *grid) array, and a span (lo, hi)
    indexes the grid's last axis.  nodes holds the node coordinates (phi
    at t = 0).  interp_linear(v, points) is the clipped linear interpolant
    of every component of v at the points, which traces the feet;
    stencil(feet) is what interpolating at the feet needs of them alone
    (the feet themselves in 2D, whose passes are all full-grid);
    interp_foot(phi, stencil) interpolates every foot-field component at
    the feet; datum(phi) evaluates u0 o phi.  changed(new, old) is the
    span outside which two value arrays agree bit for bit, and reach(v,
    dt) how many nodes a change of v can move along that axis into the
    feet traced through it; the 2D foot reports the full span.  pin, when
    set, is the front pin: pin(vals, phi, v, dt, fronts) returns the
    pinned values and the advanced front state, and fronts is that state
    at t = 0.
    """

    nodes: np.ndarray
    interp_linear: Callable
    stencil: Callable
    interp_foot: Callable
    datum: Callable
    changed: Callable
    reach: Callable
    pin: Callable | None = None
    fronts: object = None


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


def _extrapolated(v: np.ndarray, starts: tuple) -> np.ndarray:
    """The velocity at the end of a step predicted from v, the velocity at
    its start, and starts, the velocities at the earlier step starts
    (latest first): quadratic through three step starts, linear through
    two, v itself on the first step."""
    if len(starts) == 2:
        return 3.0 * v - 3.0 * starts[0] + starts[1]
    if starts:
        return 2.0 * v - starts[0]
    return v


def _patched(old, lo: int, hi: int, n: int, part):
    """A copy of the array old with [..., lo:hi] replaced by part, or of
    each array of the tuple old (the 1D stencil) by that of part; on the
    full span [0:n], part itself."""
    if hi - lo == n:
        return part
    if type(old) is not tuple:
        out = old.copy()
        out[..., lo:hi] = part
        return out
    out = [o.copy() for o in old]
    for o, p in zip(out, part):
        o[lo:hi] = p
    return tuple(out)


def _transport_steps(
    u0,
    m: Mollifier,
    T: float,
    dt: float,
    velocity_of: Callable[[np.ndarray], np.ndarray],
    foot: _Foot,
):
    """The self-consistent steps of the foot-field formulation, any
    dimension: for each step of step_times(T, dt), yields (t_next, phi,
    vals, passes), the foot field and the state u0 o phi at the step's
    end and the Picard passes the step took.  phi(0) is foot.nodes, and
    velocity_of maps a state to its velocity, one component per axis.

    In each pass the velocity comes from the candidate new state u0 o phi,
    the feet are traced with the midpoint rule, and every component of the
    step-start foot field is interpolated at the feet.  Convergence is
    measured on phi (a continuous quantity even across jumps of the
    state), as the largest sup-norm change over the components.  A step
    that does not converge raises PicardDivergenceError with its index and
    start time.

    A pass recomputes only the span whose inputs changed, and the
    generator's locals carry the previous pass (of this step or the one
    before) to it: v, the velocity of the values src, recomputed on span;
    feet, the foot.stencil of the feet traced through v over h_feet; raw,
    the datum at the foot field before the pin.  These arrays are never
    written to; an update makes copies.  v is recomputed where the
    candidate values differ from src, bit for bit (so a 0.0/-0.0 flip
    counts), widened by the kernel radius; the feet and their stencil
    where v was recomputed, widened by foot.reach, or everywhere when the
    step length h differs from h_feet; phi and the datum where the feet
    were recomputed, or everywhere on a step's first pass, since the
    step-start phi has moved (the kept stencils then only gather it).
    Every recomputed entry goes through the same elementwise operations as
    on the full grid (the velocity through convolve_values on a window
    with the kernel's full reach, whose own edge padding is the grid's
    exactly where it touches a grid end), and outside the span the inputs
    are bitwise those of the previous pass, so a pass is bitwise the
    full-grid pass.  The change reduction runs over the span where phi was
    recomputed (elsewhere it is 0); the front pin and the cycle reduction
    (run only if the change is >= PICARD_TOL) stay global; a foot that
    reports the full span (the 2D one) makes every pass full.  A pass that
    pins the very values v was built from, its feet traced through v over
    h, ends the step (at PICARD_MAX_ITERS too).

    Without a front pin (no tracked datum jumps), the first pass traces the
    feet through a prediction of the velocity at the end of the step,
    extrapolated from its values at the step starts (starts, the latest
    first): 3 V(u_n) - 3 V(u_{n-1}) + V(u_{n-2}) from the third step on,
    2 V(u_n) - V(u_{n-1}) on the second, V(u_n) on the first.  Those feet
    are traced on the whole grid, and h_feet is then NaN: no step matches
    it, so the next pass retraces them all.  The fixed point is unchanged
    and the iteration reaches it in fewer passes (nn on -tanh(x), dx 0.01,
    eps 0.1, to T = 0.5: 295, where V(u_n) takes 484), so the state moves
    only within the PICARD_TOL stopping rule.  With a front pin the first
    pass keeps V(u_n): the extrapolation would cross the front, put nodes
    on the wrong side of the jump and widen every later pass's span, and
    so cost passes (on the benchmark's decreasing Riemann runs, 2.77 per
    step where V(u_n) takes 2.26).

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
    n, r = u0.values.shape[-1], m.radius
    phi, vals, fronts = foot.nodes, u0.values, foot.fronts
    span, v, h_feet, feet, raw, starts = (0, n), None, 0.0, None, None, ()
    for k, t, t_next, h in step_times(T, dt):
        cand_phi, cand_vals, cand_fronts, older_phi = phi, vals, fronts, None
        for j in range(PICARD_MAX_ITERS):
            # v, where the values it was built from changed
            lo, hi = _widen(span, r, n)
            if lo < hi:
                w = max(lo - r, 0)  # the window reaches r nodes past the span
                part = velocity_of(cand_vals[..., w:min(hi + r, n)])
                v = _patched(v, lo, hi, n, part[..., lo - w:hi - w])
            src = cand_vals
            traced = v  # the field the feet are traced through
            if j == 0 and foot.pin is None:
                traced = _extrapolated(v, starts)
                starts = (v, *starts[:1])
            # the feet, where v changed; all of them when h moved or when
            # they are traced through the prediction
            if h != h_feet or traced is not v:
                lo, hi = 0, n
            elif 0 < hi - lo < n:
                lo, hi = _widen((lo, hi), foot.reach(v, h), n)
            h_feet = h if traced is v else np.nan
            if lo < hi:
                nodes, vs = foot.nodes[..., lo:hi], traced[..., lo:hi]
                mids = nodes - 0.5 * h * vs
                feet = _patched(feet, lo, hi, n, foot.stencil(
                    nodes - h * 0.5 * (vs + foot.interp_linear(traced, mids))
                ))
            # phi and the datum, where the feet changed; everywhere on a
            # step's first pass, since phi has moved
            if j == 0:
                lo, hi = 0, n
            new_phi = cand_phi
            if lo < hi:
                stencil = [s[..., lo:hi] for s in feet]
                new_phi = _patched(
                    cand_phi, lo, hi, n, foot.interp_foot(phi, stencil)
                )
                raw = _patched(raw, lo, hi, n, foot.datum(new_phi[..., lo:hi]))
            # outside [lo, hi) new_phi holds cand_phi's own entries
            change = float(np.abs(
                new_phi[..., lo:hi] - cand_phi[..., lo:hi]
            ).max()) if lo < hi else 0.0
            cand_vals = raw
            if foot.pin is not None:
                cand_vals, cand_fronts = foot.pin(
                    raw.copy(), new_phi, v, h, fronts
                )
            span = lo, hi = foot.changed(cand_vals, src)
            # a contraction, a fixed point, or (from pass 1 on) a closed cycle
            if change < PICARD_TOL or (lo >= hi and h_feet == h) or (
                j and float(np.abs(new_phi - older_phi).max()) < PICARD_TOL
            ):
                break
            older_phi, cand_phi = cand_phi, new_phi
        else:
            raise PicardDivergenceError(k, t, change)
        phi, vals, fronts = new_phi, cand_vals, cand_fronts
        yield t_next, phi, vals, j + 1


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
    jump.  The overwritten values are one-sided datum limits, so they lie
    in the range of the datum and the range bound survives intact.
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
) -> Callable[[np.ndarray], np.ndarray]:
    """The 1D advecting field of a mode, as a (1, n) array."""
    if mode == "nn":
        return lambda u: convolve_values(m, u)[np.newaxis]
    if mode == "velocity_reg":
        return lambda u: convolve_values(m, flux.fprime(u))[np.newaxis]
    if mode == "flux_reg":
        return lambda u: flux.fprime(convolve_values(m, u))[np.newaxis]
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
    datum = _datum_evaluator(u0, data)

    def pin(vals, phi, v, dt, gammas):
        gammas = _advance_fronts(gammas, x0, dx, v[0], dt)
        vals = _pin_fronts(
            vals, phi[0], x, gammas, jump_pos, jump_left, jump_right
        )
        return vals, gammas

    return _Foot(
        nodes=x[np.newaxis],
        interp_linear=lambda v, pts: interpolate_values(v[0], x0, dx, pts[0]),
        stencil=lambda feet: _foot_stencil(x0, dx, x.size, feet[0]),
        interp_foot=lambda phi, st: _interp_foot(
            phi[0], x0, dx, st
        )[np.newaxis],
        datum=lambda phi: datum(phi[0]),
        changed=_changed_span,
        # a midpoint sits within 0.5 dt |v| of its node; one more node for
        # the stencil's right neighbour and one for the floor's roundoff
        reach=lambda v, dt: int(
            np.ceil(0.5 * dt * float(np.abs(v[0]).max()) / dx)
        ) + 2,
        pin=pin if jump_pos.size else None,
        fronts=jump_pos.copy(),
    )


def _step_count(T: float, dt: float) -> float:
    """How many steps step_times takes to T, a whole float (inf if T/dt
    overflows): ceil(T/dt - 1e-12), at least one, and one fewer if the
    last step would start at or past T in floating point."""
    n = max(1.0, float(np.ceil(T / dt - 1e-12)))
    if n > 1.0 and (n - 1.0) * dt >= T:
        n -= 1.0
    return n


def step_times(T: float, dt: float):
    """The uniform step schedule up to T: yields (k, t, t_next, h) for each
    of the _step_count(T, dt) steps the budget checks count.  Step k
    starts at k dt; all but the last end at (k + 1) dt and the last at T
    exactly, so the final level a solve stores is the state at T.  h is
    the step's length: dt itself on all but the last, T - t on the last."""
    n = int(_step_count(T, dt))
    for k in range(n):
        t = k * dt
        yield (k, t, (k + 1) * dt, dt) if k + 1 < n else (k, t, T, T - t)


def schedule(u0, T: float, cfg: SolverConfig, dt: float | None = None):
    """dt (time_step of u0 unless given) and the times a solve of u0 to T
    on step_times' schedule stores at (0, every cfg.store_stride-th step's
    end, T), after the budget checks (WorkBudgetError) and before any work."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    if dt is None:
        dt = time_step(cfg, u0.dx, u0.values)
    elif dt <= 0.0:
        raise ValueError("dt must be positive")
    check_node_steps(u0.values.size, T, dt)
    check_stored_levels(u0.values.size, T, dt, cfg.store_stride)
    return dt, np.array([0.0] + [
        t_next for k, _, t_next, _ in step_times(T, dt)
        if (k + 1) % cfg.store_stride == 0 or t_next >= T
    ])


def _solve_transport(
    u0,
    m: Mollifier,
    T: float,
    cfg: SolverConfig,
    velocity_of: Callable[[np.ndarray], np.ndarray],
    mode: str,
    speed: float,
    data=None,
    dt: float | None = None,
    foot: _Foot | None = None,
) -> Trajectory:
    """Every non-conservative solve: the levels of _transport_steps that
    schedule keeps, as a Trajectory.

    velocity_of maps a state to its velocity, one component per axis;
    speed is the speed_bound the trajectory records.  foot defaults to the
    1D pieces for u0 and data; the 2D solver passes its own.  dt, when
    given, replaces time_step of u0 so coupled solves can share a time
    grid.
    """
    dt, times = schedule(u0, T, cfg, dt)
    if foot is None:
        foot = _foot_1d(u0, data)
    levels, counts = [u0.values], []
    for t_next, _, vals, passes in _transport_steps(
        u0, m, T, dt, velocity_of, foot
    ):
        counts.append(passes)
        if t_next == times[len(levels)]:  # the next level to store
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
    m = build_mollifier(epsilon, u0.dx)
    dx = u0.dx
    dt0, _ = schedule(u0, T, cfg)
    vals = u0.values.copy()
    times = [0.0]
    levels = [vals]
    t = 0.0
    k = 0
    # sup|u| can grow in this mode, so the step size adapts to the current
    # state; the schedule is still deterministic.
    while t < T - 1e-15:
        dt = min(time_step(cfg, dx, vals), T - t)
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

