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

On data without tracked jumps the feet are traced by the time-centred
midpoint rule, through the mean of the velocities at the two ends of the
step, and the step is twice as long (transport_step); a step's first pass
takes the end velocity extrapolated over the last three step starts: up
to the catastrophe time that velocity is smooth in time, and the
prediction saves the pass or two the iteration would spend catching up
with it.  Data with tracked jumps keep a trace through the end velocity
alone, first order in time, and its step (time_step), and the first pass
keeps the step-start velocity, since there the extrapolation crosses the
front.

A conservative finite-volume variant of the nonlocal model is provided for
comparison.  It conserves mass by construction and deliberately carries no
maximum-principle guarantee; the divergence between the two is a feature
under study, not a bug.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fluxes import FluxSpec
from .grids import (
    DatumError,
    GridFunction1D,
    PiecewiseInitialData,
    RiemannData,
    _lerp,
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
    "transport_step",
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

# the slope of the cubic on a cell, per unit of the largest node difference:
# the maximum over s of |w'_-1| + |w'_1| + 2 |w'_2|, reached at s = 0
CUBIC_SLOPE = 5.0 / 3.0
# the cubic's weights sum in magnitude to 1 + s (1 - s) on a cell, at most
CUBIC_SPREAD = 1.25
EPS = float(np.finfo(float).eps)

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


def _courant_step(courant: float, dx: float, values) -> float:
    """courant dx / sup|values|, SUP_FLOOR capping it on all-zero data."""
    return courant * dx / max(float(np.abs(values).max()), SUP_FLOOR)


def time_step(cfg: SolverConfig, dx: float, values) -> float:
    """The step cfg.cfl dx / sup|values| (SUP_FLOOR caps it on all-zero
    data): the conservative solver's, on the velocity it advects with, the
    Euler pair's, and a transport solve's on data with tracked jumps
    (transport_step).  values is a state's nodal values, or a tuple of
    equal-shape arrays whose joint sup sets one shared step (the Euler
    invariants); dx is the grid spacing (2D: the smaller one)."""
    return _courant_step(cfg.cfl, dx, values)


def transport_step(cfg: SolverConfig, dx: float, values, data) -> float:
    """The step a transport solve (every mode but conservative) takes when
    it sizes its own, the one owner of that rule: time_step on data with
    tracked jumps (_datum_jumps(data) not empty, so the solve has a front
    pin), whose feet keep a trace that is first order in time, and twice
    that, 2 cfg.cfl dx / sup|values| (Courant 1 at the default cfl), on
    data without them (data None included: the sampled and 2D data),
    whose feet _transport_steps traces time-centred.  dx and values are as
    time_step takes them.  A datum with a jump limit that is not finite is
    sized as one with tracked jumps: the solve checks its work budgets at
    that step before it rejects the datum (DatumError)."""
    try:
        pinned = bool(_datum_jumps(data))
    except DatumError:
        pinned = True
    return _courant_step(cfg.cfl if pinned else 2.0 * cfg.cfl, dx, values)


class WorkBudgetError(ValueError):
    """A solve would take more than NODE_STEP_BUDGET node-steps or keep
    more than LEVEL_BUDGET stored values; key names the scenario setting
    behind the excess ("initial" or "stride")."""

    def __init__(self, key: str, detail: str):
        super().__init__(detail)
        self.key = key


def _budget_error(
    key: str, work: str, count: float, unit: str, budget: float
) -> WorkBudgetError:
    return WorkBudgetError(
        key, f"{work} = {count:.3g} {unit}, above the budget of {budget:.0e}"
    )


def check_node_steps(nodes: int, T: float, dt: float) -> None:
    """Reject a solve of nodes nodes over the steps step_times takes to T
    beyond the budget, before anything is allocated for it."""
    steps = _step_count(T, dt)
    count = nodes * steps
    if count > NODE_STEP_BUDGET:
        raise _budget_error(
            "initial", f"{nodes} nodes x {steps:.6g} steps (T = {T!r}, "
            f"dt = {dt!r})", count, "node-steps", NODE_STEP_BUDGET,
        )


def check_stored_levels(nodes: int, T: float, dt: float, stride: int) -> None:
    """Reject a solve that would store more than LEVEL_BUDGET values, before
    any step: nodes values per level, one level every stride of the steps
    step_times takes to T, plus those at t = 0 and at T."""
    levels = 1.0 + float(np.ceil(_step_count(T, dt) / stride))
    count = nodes * levels
    if count > LEVEL_BUDGET:
        raise _budget_error(
            "stride", f"{nodes} nodes x {levels:.0f} stored levels "
            f"(stride {stride})", count, "stored values", LEVEL_BUDGET,
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
    """Step-size and storage policy shared by all solvers.

    cfl scales every solver's time step: a transport solve on data
    without tracked jumps steps by 2 cfl dx / sup|u0| (transport_step:
    Courant 1 at the default 0.5, which its time-centred trace affords),
    one on data with tracked jumps and the Euler pair by cfl dx / sup|u0|
    (time_step), and the conservative solver by cfl dx / sup|v| of its
    velocity at every step.  store_stride keeps every store_stride-th
    step's level, and the last one.
    """

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
    on grid's range (2D: the larger axis's), dt the step of the solve:
    transport_step of u0 and its datum (2 cfl dx / sup|u0| without tracked
    jumps, time_step's cfl dx / sup|u0| with them) unless the caller gave
    one (the Euler pair: time_step of both invariants), and for the
    conservative solver its first step, time_step of eta_eps * u0, before
    any clamp to T.
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


def _cubic_weights(s: np.ndarray) -> np.ndarray:
    """4-point cubic Lagrange weights at offsets (-1, 0, 1, 2) for the
    fractional positions s in [0, 1], as the rows of one (4, *s.shape)
    block."""
    # every weight keeps the operation order of its formula: -s (s - 1)
    # (s - 2) / 6, (s^2 - 1) (s - 2) / 2, -s (s + 1) (s - 2) / 2 and
    # s (s^2 - 1) / 6
    w = np.empty((4, *s.shape))
    q = np.multiply(s, s, out=w[1])
    q -= 1.0
    # rows 0 and 2 at once: (-1 + s, 1 + s), bitwise (s - 1, s + 1), times -s
    outer = np.add.outer((-1.0, 1.0), s, out=w[::2])
    outer *= -s
    np.multiply(s, q, out=w[3])
    w[:3] *= s - 2.0
    w[::3] /= 6.0
    w[1:3] /= 2.0
    return w


# the nodes of a cubic stencil from its cell, and those of a linear one
_TAPS = np.array([[-1], [0], [1], [2]])
_PAIR = np.array([[0], [1]])


def _axis_stencil(o: float, h: float, n: int, q: np.ndarray) -> tuple:
    """The interpolation stencil of the feet q (a 1D array) along an axis
    of n nodes o + k h: the cell i of each foot (its position clipped to
    [0, n - 2], truncated), the (4, q.size) block of _cubic_weights at
    pos - i for the nodes i - 1 .. i + 2 (_TAPS), and the indices of the
    end-cell feet (i < 1 or i > n - 3), which the cubic does not serve
    (every off-grid foot is one)."""
    pos = (q - o) / h
    i = np.minimum(np.maximum(pos, 0.0), n - 2.0).astype(int)
    return i, _cubic_weights(pos - i), ((i < 1) | (i > n - 3)).nonzero()[0]


def _foot_stencil(x0: float, dx: float, n: int, y: np.ndarray) -> tuple:
    """_axis_stencil of the feet y on an n-node grid, as _interp_foot takes
    it: the (4, y.size) block of the nodes i - 1 .. i + 2 (gathered with
    take(mode="clip"), which clips i - 1 and i + 2 to the grid), their
    weights, and the (index, foot) pairs of the end-cell feet."""
    i, w, edge = _axis_stencil(x0, dx, n, y)
    return i + _TAPS, w, list(zip(edge.tolist(), y[edge].tolist()))


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

    The cubic is one gather of the stencil's (4, m) node block, one
    product with its weights and one sum over the four rows, in the order
    ((w_-1 phi_-1 + w_0 phi_0) + w_1 phi_1) + w_2 phi_2.  Only feet within
    a step's travel of a grid end land in an end cell: for nn at the
    default cfl of 0.5, at most two per end with a front pin (time_step: a
    foot moves up to half a cell) and three without one (transport_step's
    Courant 1: a foot moves up to a cell, and the node two cells in joins
    where the feet move a whole cell to within rounding; 3 per end on
    -tanh(x) at dx 0.0025, 2 or 3 at dx 0.01), about 1 + dt S / dx in the
    flux modes (tests/test_solver.py test_few_feet_land_in_an_end_cell).
    On so few, numpy's per-call cost outweighs the arithmetic: the stencil
    lists them, and they are fixed up in Python floats, an end-cell foot
    by grids.interpolate_at (its cell is the stencil's).
    """
    taps, w, edge = stencil
    g = phi.take(taps, mode="clip")
    lo, hi = np.minimum(g[1], g[2]), np.maximum(g[1], g[2])
    g *= w  # in place: on a large grid a new (4, m) block takes fresh pages
    out = np.add.reduce(g, axis=0)
    # np.clip(out, lo, hi, out=out) with its tie rule (see interpolate_values)
    np.maximum(out, lo, out=out)
    np.minimum(out, hi, out=out)
    n = phi.size
    for k, yk in edge:
        pos = (yk - x0) / dx
        if pos < 0.0:
            out[k] = phi.item(0) + (yk - x0)
        elif pos > n - 1:
            out[k] = phi.item(-1) + (yk - (x0 + (n - 1) * dx))
        else:
            out[k] = interpolate_at(phi, x0, dx, yk)
    return out


def _interp_grid(
    vals: np.ndarray, grid: tuple, feet: np.ndarray, axes
) -> np.ndarray:
    """vals, a field on a uniform grid or a stack of them (shape (...,
    *nodes), x last), at the feet (shape (len(grid), *m), x first); grid
    holds each axis's (origin, spacing, nodes), x first, and axes is None
    (interpolate_values' rule) or the per-axis stencils (_axis_stencil) of
    the flattened feet (_interp_foot's).

    The tensor product of the per-axis rule: one take gathers each foot's
    node block (_PAIR or _TAPS per axis), reduced along x, then along y.
    Without stencils a stage is grids._lerp at the clipped position.  With
    them it is _interp_foot's cubic, and at an end-cell foot _lerp on its
    cell, or on the end node twice at theta 0 off the grid; the result is
    clipped once to the bounds of the pairs around the foot along every
    axis (clipping each stage would make x then y differ from y then x),
    which on one axis is _interp_foot's clip.  Each component (one per
    axis: a foot field) then adds the identity offset along its own axis
    off the grid.  The take clips the flat node index, so a tap past an
    axis end reads some other node; only an end-cell foot has one, and the
    end-cell rule reads its own cell alone.
    """
    d = len(grid)
    lead, shape = vals.shape[:-d], feet.shape[1:]
    cells, taps, stages, stride = 0, 0, [], 1
    for k, ((o, h, n), q) in enumerate(zip(grid, feet.reshape(d, -1))):
        if axes is None:
            pos = np.minimum(n - 1.0, np.maximum(0.0, (q - o) / h))
            i = np.minimum(pos.astype(np.int64), n - 2)
            stages.append(pos - i)
            nodes = _PAIR
        else:
            # an end-cell foot's pair of taps (1 and 2 are nodes i and
            # i + 1) and theta, and an off-grid foot's end (0 or 1 in the
            # pair) and offset, as interpolate_at and _interp_foot take them
            i, w, e = axes[k]
            pos = (q[e] - o) / h
            left, right = pos < 0.0, pos > n - 1
            theta = np.minimum(n - 1.0, np.maximum(0.0, pos)) - (i[e] + right)
            outside = left | right
            off, end = e[outside], right[outside].astype(int)
            shift = q[off] - np.where(end, o + (n - 1) * h, o)
            stages.append((w, e, 1 + right, 2 - left, theta, off, end, shift))
            nodes = _TAPS
        cells = cells + i * stride
        taps = (nodes * stride).reshape(-1, *(1,) * k, 1) + taps
        stride *= n
    g = vals.reshape(*lead, -1).take(cells + taps, axis=-1, mode="clip")
    if axes is None:
        for theta in stages:
            g = _lerp(g[..., 0, :], g[..., 1, :], theta)
        return g.reshape(*lead, *shape)
    # the corners of each foot's cell, reduced stage by stage to the
    # bounds of the foot's pairs
    lo = hi = g[(..., *(slice(1, 3),) * d, slice(None))]
    for w, e, a, b, theta, off, end, _ in stages:
        ends = _lerp(g[..., a, e], g[..., b, e], theta)
        # the bounds first: on the first stage the box is a view of g
        bounds = []
        for f, box in ((np.minimum, lo), (np.maximum, hi)):
            bound = f(box[..., 0, :], box[..., 1, :])
            bound[..., off] = box[..., end, off]
            bounds.append(bound)
        lo, hi = bounds
        # ((w_-1 g_-1 + w_0 g_0) + w_1 g_1) + w_2 g_2, as _interp_foot sums:
        # a reduction over a middle axis adds its rows in index order
        g *= w
        g = np.add.reduce(g, axis=-2)
        g[..., e] = ends
    # np.clip(g, lo, hi, out=g) with its tie rule (see interpolate_values)
    np.minimum(np.maximum(g, lo, out=g), hi, out=g)
    for k, (*_, off, _, shift) in enumerate(stages):
        g[k, off] += shift
    return g.reshape(*lead, *shape)


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

    A RiemannData with finite states takes only those two values, so they
    are clipped once here and each call is one np.where (bitwise the clip
    of data(y)).  Any other callable, and a RiemannData with a state that
    is not finite, is evaluated, checked and clipped on every call; the
    check is on the raw states because the clip would map an infinite one
    to a bound.
    """
    lo = float(np.min(u0.values))
    hi = float(np.max(u0.values))
    if data is None:
        return lambda y: interpolate_values(u0.values, u0.x0, u0.dx, y)
    if not callable(data):
        raise TypeError(f"cannot evaluate initial data of type {type(data)!r}")
    if isinstance(data, RiemannData) and np.isfinite([data.uL, data.uR]).all():
        cL, cR = np.minimum(hi, np.maximum(lo, [data.uL, data.uR]))
        return lambda y: np.where(y <= 0.0, cL, cR)

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
    stencil(feet) is what interpolating at the feet needs of them alone:
    in 1D the _foot_stencil (the (4, n) blocks of cubic nodes and weights
    and the list of end-cell feet), in 2D the feet with the _axis_stencil
    of each axis, which _interp_grid takes.  interp_foot(phi, stencil)
    interpolates every foot-field component at the feet; datum(phi)
    evaluates u0 o phi.  changed(new, old) is the span outside which two
    value arrays agree bit for bit, and reach(v, dt) how many nodes a
    change of v can move along that axis into the feet traced through it;
    the 2D foot reports the full span.  grid holds each axis's (origin,
    spacing, nodes), x first, as _interp_grid takes it; _change_bound reads
    it.  pin, when set, is the front pin:
    pin(vals, phi, v, dt, fronts) writes the pinned values into vals and
    returns them and the advanced front state, and fronts is that state
    at t = 0 (in 1D the list of the jump preimages, in Python floats).
    """

    nodes: np.ndarray
    interp_linear: Callable
    stencil: Callable
    interp_foot: Callable
    datum: Callable
    changed: Callable
    reach: Callable
    grid: tuple
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
    the 1D stencil old (_foot_stencil) with the stencil part of the feet
    on [lo, hi) in their place; on the full span [0:n], part itself."""
    if hi - lo == n:
        return part
    if type(old) is tuple:
        (taps, w, edge), (part_taps, part_w, part_edge) = old, part
        return (
            _patched(taps, lo, hi, n, part_taps),
            _patched(w, lo, hi, n, part_w),
            [e for e in edge if e[0] < lo]
            + [(k + lo, yk) for k, yk in part_edge]
            + [e for e in edge if e[0] >= hi],
        )
    out = old.copy()
    out[..., lo:hi] = part
    return out


def _trace(foot: _Foot, field: np.ndarray, h: float, lo: int, hi: int):
    """The feet of the nodes on [lo, hi) (along the last axis) traced
    through field over h, the outer field value foot.interp_linear's:
    without a front pin the midpoint rule x - h field(x - (h/2) field(x)),
    with one x - (h/2) (field(x) + field(x - (h/2) field(x)))."""
    nodes, vs = foot.nodes[..., lo:hi], field[..., lo:hi]
    mids = nodes - 0.5 * h * vs
    if foot.pin is None:
        return nodes - h * foot.interp_linear(field, mids)
    return nodes - h * 0.5 * (vs + foot.interp_linear(field, mids))


def _slopes(f: np.ndarray, grid: tuple) -> list:
    """For each axis l of grid (x first), the largest difference of
    neighbouring nodes along l over its spacing, max |f_c(x + h_l e_l) -
    f_c(x)| / h_l, one entry per component c of f (shape (components,
    *nodes), x last)."""
    over = tuple(range(1, f.ndim))
    out = [None] * len(grid)
    for l, (_, h, _) in enumerate(grid):
        step = (slice(None),) * l
        diff = f[(..., slice(1, None), *step)] - f[(..., slice(-1), *step)]
        out[l] = np.maximum.reduce(np.abs(diff), axis=over) / h
    return out


def _legs(feet: tuple, grid: tuple, disp: list, slack: float):
    """For the stencil feet of a 2D foot field (_interp_grid's clipped
    tensor-product cubic), the move of each foot by at most disp[l] plus
    slack (the feet's rounding) along each axis l, taken as two legs,
    along x and then along y: per leg (spread, jump), or None for an axis
    the feet do not move along; None in place of the pair when a foot
    may cross more than one cell edge.

    spread bounds the cross axis's sum of |w| over the feet, so the slope
    along l is at most CUBIC_SLOPE spread times the largest node
    difference along l: the stencil's own sums when the cross axis has not
    moved yet, else CUBIC_SPREAD.  jump bounds, in units of the largest
    node difference along the cross axis, what crossing an l edge adds.
    The clip box changes at a cell edge, and there the unclipped value is
    the cross axis's cubic on the shared node line, which overshoots that
    line's bracketing pair (inside both boxes) by at most s (1 - s) =
    spread - 1 of that difference; so the value jumps by no more.  On a
    node line the sum is exactly 1 and nothing jumps."""
    q, axes = feet
    legs = [None, None]
    for l, ((o, h, _), (i, _, _)) in enumerate(zip(grid, axes)):
        if not disp[l]:
            continue
        r = (disp[l] + slack) / h
        if r >= 0.5:
            return None
        k = 1 - l
        lam = None
        if k > l or not disp[k]:
            lam = np.add.reduce(np.abs(axes[k][1]), axis=0)
        spread = CUBIC_SPREAD if lam is None else float(np.maximum.reduce(lam))
        jump = spread - 1.0
        if jump:
            s = (q.reshape(2, -1)[l] - o) / h - i
            near = np.minimum(np.abs(s), np.abs(1.0 - s)) <= r
            if lam is not None:
                jump = float(np.maximum.reduce(lam[near], initial=1.0)) - 1.0
            elif not near.any():
                jump = 0.0
        legs[l] = (spread, jump)
    return legs


class _StepStart:
    """The step-start foot field phi of one step as _change_bound reads
    it: x_max = max |foot.nodes| (the solve's), and the _slopes of phi
    and max |phi|, which the first evaluation that needs them fills in
    (None until then) and the step's later passes reuse."""

    def __init__(self, phi: np.ndarray, x_max: float):
        self.phi, self.x_max, self.slope, self.phi_max = phi, x_max, None, None


def _change_bound(
    foot: _Foot, start: _StepStart, feet, a: np.ndarray, v: np.ndarray,
    h: float, span: tuple, cap: float,
) -> float:
    """A bound on the sup-norm change of foot.interp_foot(phi, feet) when
    the feet, traced (_trace) through a over h, are retraced through v;
    start is the _StepStart of phi, and a and v agree bit for bit outside
    span along the last axis.  Returns inf as soon as the bound is sure to
    reach cap: once h delta does, before phi's slopes are read, and in 1D
    once L h delta does (every later factor is >= 1 and every added term
    >= 0), before Lip(a) is computed.

    With delta_c = max |v_c - a_c|, the trace moves each foot along axis
    c by at most h delta_c (1 + h Lip_c(a_c)/q) + (h^2/q) sum over the
    other axes l of Lip_l(a_c) delta_l, where Lip_l is the largest node
    difference along l over its spacing (the linear interpolant's slope
    bound): the midpoint moves by at most (h/2) delta, and the outer
    velocity by at most delta_c at the midpoint it had plus Lip times the
    midpoint's move.  The midpoint rule without a front pin takes h times
    the outer velocity, so q = 2; the trace with one takes h/2 times the
    sum of the node's velocity and the outer one, so q = 4.  The clipped
    cubic of
    _interp_foot has slope at most L = max(CUBIC_SLOPE max |diff phi| /
    dx, 1) (the cubic's own on a cell, the end cells' linear, the
    unit-slope extension off the grid, all meeting continuously at the
    nodes), so in 1D phi changes by at most L times the move.  In 2D the
    clip box changes at a cell edge, and _legs bounds each axis's share.
    A margin of 64 eps (L (|x| + h |a|) + |phi|) covers the rounding of
    the trace, the interpolation and this bound.  On a field constant
    along y, with the feet on node rows and no velocity along y, every
    cross term is exactly 0, so the 2D bound is the 1D one of the rows.
    """
    grid, (lo, hi), d = foot.grid, span, a.ndim - 1
    diff = np.abs(v[..., lo:hi] - a[..., lo:hi])
    top = np.maximum.reduce(diff, axis=None, initial=0.0)
    least = h * top
    if least >= cap:
        return np.inf
    delta = (top,) if d == 1 else np.maximum.reduce(
        diff, axis=tuple(range(1, d + 1)), initial=0.0
    )
    if start.slope is None:
        start.slope = _slopes(start.phi, grid)
        start.phi_max = np.maximum.reduce(np.abs(start.phi), axis=None)
    slope = start.slope
    if d == 1:
        lc = CUBIC_SLOPE * slope[0][0]
        if least * (lc if lc > 1.0 else 1.0) >= cap:
            return np.inf
    lip = _slopes(a, grid)
    q = 2.0 if foot.pin is None else 4.0
    disp = [0.0] * d
    for c in range(d):
        cross = 0.0
        for l in range(d):
            if l != c:
                cross += lip[l][c] * delta[l]
        disp[c] = h * delta[c] * (1.0 + h * lip[c][c] / q) + h * h / q * cross
    scale = start.x_max + h * np.maximum.reduce(np.abs(a), axis=None)
    legs = [(1.0, 0.0)] if d == 1 else _legs(feet, grid, disp, 64 * EPS * scale)
    if legs is None:
        return np.inf
    steep, bound = 1.0, 0.0
    for c in range(d):
        total = 0.0
        for l in range(d):
            if legs[l] is None:
                continue
            spread, jump = legs[l]
            lc = CUBIC_SLOPE * spread * slope[l][c]
            lc = lc if lc > 1.0 else 1.0
            steep = lc if lc > steep else steep
            cross = 0.0
            for k in range(d):
                if k != l:
                    cross += slope[k][c] * grid[k][1]
            total += lc * disp[l] + jump * cross
        bound = total if total > bound else bound
    return float(bound + 64 * EPS * (steep * scale + start.phi_max))


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

    In each pass the feet are traced (_trace) through w, and every
    component of the step-start foot field is interpolated at them.
    Without a front pin (no tracked datum jumps) the trace is the
    two-time-level midpoint rule of semi-Lagrangian models (Staniforth and
    Cote 1991, Mon. Wea. Rev. 119): x - h w(x - (h/2) w(x)), with w = (V(u_n)
    + v)/2 the mean of the velocity at the step start and v, the velocity
    of the candidate new state u0 o phi, so w is the velocity at the
    midpoint in time.  It is consistent to second order, and its global
    time error, measured by tests/test_time_order.py (nn, -tanh(x) on
    [-4, 4], eps 0.1, T 0.5, dx 0.0025, against a solve at Courant 1/32),
    is 7.1e-7 at transport_step's Courant 1, 1.4e-6 at twice that step and
    3.4e-7 at half: first order still, with a constant 100 times smaller
    than that of the trace below, whose error is 9.0e-5 at Courant 0.5.
    With a front pin w is v itself, and the feet are traced as x - (h/2)
    (v(x) + v(x - (h/2) v(x))).  That trace is first order in time: to
    first order in h it moves a foot by h (v - (h/4) v v_x), where the
    backward characteristic moves by h (v - (h/2) v v_x) - (h^2/2) v_t,
    and v is frozen at the step's end.  On two-valued Riemann data the
    midpoint rule leaves every result as it is (a state there depends on
    the tracked preimage alone), but it retraces the feet near the front
    after every node flip, so the pinned solves keep this trace and the
    step time_step sizes.  Convergence is measured on phi (a continuous
    quantity even across jumps of the state), as the largest sup-norm
    change over the components.  A step that does not converge raises
    PicardDivergenceError with its index and start time.

    Four rules end a step.  From the second pass on, once v and w are
    rebuilt from the last pass's values, _change_bound bounds the change
    of phi that retracing the last pass's feet through w, instead of the
    field a they were traced through, would make: L h delta (1 + h
    Lip(a)/q) plus a rounding margin in 1D, with delta = max |w - a|,
    Lip(a) = max |diff a| / dx, L = max((5/3) max |diff phi| / dx, 1) the
    slope bound of the clipped cubic and q = 2 for the midpoint rule, 4
    for the pinned trace (2D adds what a foot that crosses a cell edge off
    a node line can jump).  Below PICARD_TOL the contraction rule below
    would end the step after that pass, with a phi within the bound of
    the last pass's, so the step ends now, with the last pass's phi,
    values and fronts, and keeps v, the velocity of those values, as the
    next step's start velocity (the next pass retraces the feet where v
    was rebuilt).
    tests/test_change_bound.py runs the skipped pass wherever the bound is
    evaluated and holds its change to the bound.  The others end a step
    after a pass: one that changes phi by less than PICARD_TOL (a
    contraction), returns the values its velocity was built from (a fixed
    point, below), or closes a period-2 cycle (below).

    A pass recomputes only the span whose inputs changed, and the
    generator's locals carry the previous pass (of this step or the one
    before) to it: v, the velocity of the values src, recomputed on span;
    w, patched where v was (within a step V(u_n) is fixed, so w changes
    exactly where v does); feet, the foot.stencil of the feet traced
    through w over h_feet; raw, the datum at the foot field before the
    pin.  These arrays are never written to; an update makes copies.  v is
    recomputed where the candidate values differ from src, bit for bit (so
    a 0.0/-0.0 flip counts), widened by the kernel radius; the feet and
    their stencil where w was recomputed, widened by foot.reach, or
    everywhere when the step length h differs from h_feet or the feet were
    traced through another field (the prediction, or the last step's w);
    phi and the datum where the feet
    were recomputed, through the stencil just built there, or everywhere
    on a step's first pass, since the step-start phi has moved, through
    the whole kept stencil as it is (it then only gathers phi).
    Every recomputed entry goes through the same elementwise operations as
    on the full grid (the velocity through convolve_values on a window
    with the kernel's full reach, whose own edge padding is the grid's
    exactly where it touches a grid end), and outside the span the inputs
    are bitwise those of the previous pass, so a pass is bitwise the
    full-grid pass.  A pass that pins the very values v was built from,
    its feet traced through v over h, ends the step (at PICARD_MAX_ITERS
    too); that test comes first, and only a pass that fails it runs the
    change reduction, over the span where phi was recomputed (elsewhere
    the change is 0).  The front pin and the cycle reduction (run only if
    the change is >= PICARD_TOL) stay global; a foot that reports the full
    span (the 2D one) makes every pass full.

    Without a front pin, the first pass traces the feet through (V(u_n) +
    P)/2, with P a prediction of the velocity at the end of the step,
    extrapolated from its values at the step starts (starts, the latest
    first): 3 V(u_n) - 3 V(u_{n-1}) + V(u_{n-2}) from the third step on,
    2 V(u_n) - V(u_{n-1}) on the second, V(u_n) on the first (w itself).
    Those feet are traced on the whole grid, and h_feet is then NaN: no
    step matches it, so the next pass retraces them all.  The fixed point
    is unchanged and the iteration reaches it in fewer passes (nn on
    -tanh(x), dx 0.01, eps 0.1, to T = 0.5: 132, where V(u_n) takes 195),
    so the state moves only within the PICARD_TOL stopping rules.  With a
    front pin the first pass keeps V(u_n): the extrapolation would cross
    the front, put nodes on the wrong side of the jump and widen every
    later pass's span, and so cost passes (on the benchmark's decreasing
    Riemann runs, 2.77 per step where V(u_n) takes 2.26).

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
    centred = foot.pin is None  # the time-centred trace and its w
    w = None  # the exact field of the trace: v, or (V(u_n) + v)/2 if centred
    moved = (0, 0)  # where a step that ended early rebuilt v
    x_max = np.maximum.reduce(np.abs(foot.nodes), axis=None)
    for k, t, t_next, h in step_times(T, dt):
        cand_phi, cand_vals, cand_fronts, older_phi = phi, vals, fronts, None
        start = None  # the _StepStart of phi, once the bound first needs it
        for j in range(PICARD_MAX_ITERS):
            # v, where the values it was built from changed; where the last
            # step rebuilt it, when that step ended before retracing the feet
            kept, (lo, hi) = w, _widen(span, r, n)
            if lo < hi:
                left = max(lo - r, 0)  # the window: r nodes past the span
                part = velocity_of(cand_vals[..., left:min(hi + r, n)])
                v = _patched(v, lo, hi, n, part[..., lo - left:hi - left])
            elif moved[0] < moved[1]:
                lo, hi, moved = *moved, (0, 0)
            # w: v itself with a front pin; without one, the mean of v and
            # the step-start velocity vn, which changes only where v does
            if not centred:
                w = v
            elif j == 0:
                w = vn = v
            elif lo < hi:
                mean = 0.5 * (vn[..., lo:hi] + v[..., lo:hi])
                w = _patched(w, lo, hi, n, mean)
            # retracing the last pass's feet through w would move phi by
            # less than PICARD_TOL: end the step with that pass's results,
            # and keep v, the velocity of its values
            if j and start is None:
                start = _StepStart(phi, x_max)
            if j and _change_bound(
                foot, start, feet, traced, w, h,
                (lo, hi) if traced is kept else (0, n), PICARD_TOL,
            ) < PICARD_TOL:
                span, moved, new_phi = (0, 0), (lo, hi), cand_phi
                break
            passes, src = j + 1, cand_vals
            traced = w  # the field the feet are traced through
            if j == 0 and centred:
                predicted = _extrapolated(v, starts)
                starts = (v, *starts[:1])
                if predicted is not v:
                    traced = 0.5 * (v + predicted)
            # the feet, where w changed; all of them when h moved or when
            # they are traced through the prediction
            if h != h_feet or traced is not w:
                lo, hi = 0, n
            elif 0 < hi - lo < n:
                lo, hi = _widen((lo, hi), foot.reach(w, h), n)
            h_feet = h if traced is w else np.nan
            if lo < hi:
                built = foot.stencil(_trace(foot, traced, h, lo, hi))
                feet = _patched(feet, lo, hi, n, built)
            # phi and the datum, where the feet changed, through the stencil
            # just built; everywhere on a step's first pass, since phi has
            # moved, through the whole kept stencil
            if j == 0:
                lo, hi, built = 0, n, feet
            new_phi = cand_phi
            if lo < hi:
                phi_part = foot.interp_foot(phi, built)
                new_phi = _patched(cand_phi, lo, hi, n, phi_part)
                raw = _patched(raw, lo, hi, n, foot.datum(phi_part))
            cand_vals = raw
            if foot.pin is not None:
                cand_vals, cand_fronts = foot.pin(
                    raw.copy(), new_phi, v, h, fronts
                )
            # a fixed point: the pass pins the values v was built from
            span = foot.changed(cand_vals, src)
            if span[0] >= span[1] and h_feet == h:
                break
            # outside [lo, hi) new_phi holds cand_phi's own entries
            change = float(
                np.abs(phi_part - cand_phi[..., lo:hi]).max()
            ) if lo < hi else 0.0
            # a contraction, or (from pass 1 on) a closed cycle
            if change < PICARD_TOL or (
                j and float(np.abs(new_phi - older_phi).max()) < PICARD_TOL
            ):
                break
            older_phi, cand_phi = cand_phi, new_phi
        else:
            raise PicardDivergenceError(k, t, change)
        phi, vals, fronts = new_phi, cand_vals, cand_fronts
        yield t_next, phi, vals, passes


def _datum_jumps(data) -> list:
    """The jumps of a structured functional datum, as (position, left
    limit, right limit) triples of Python floats.

    Only the structured datum types expose their discontinuities exactly;
    an arbitrary callable contributes no tracked jumps.  A limit that is
    not finite raises DatumError.
    """
    jumps = []
    if isinstance(data, RiemannData):
        uL, uR = float(data.uL), float(data.uR)
        if not np.isfinite([uL, uR]).all():
            raise DatumError(
                f"values must be finite, and the Riemann states are "
                f"{uL!r} and {uR!r}"
            )
        if data.uL != data.uR:
            jumps.append((0.0, uL, uR))
    elif isinstance(data, PiecewiseInitialData):
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
                jumps.append((float(b), fl, fr))
    return jumps


def _advance_fronts(
    gammas: list, x0: float, dx: float, v: np.ndarray, dt: float
) -> list:
    """Midpoint step of d(gamma)/dt = v(gamma) for the jump preimages.

    Differentiating phi(t, gamma(t)) = const through the transport equation
    shows the preimage of a datum point moves at exactly the local
    velocity, so this ODE is the front kinematics with no interpolation of
    phi involved.  Preimages of distinct datum points cannot cross under a
    continuous velocity; the running maximum only repairs roundoff order
    violations once fronts have merged.

    A datum has a few jumps (one to three in the battery), and numpy's
    per-call cost on arrays that small outweighs the arithmetic, so the
    preimages are a list of Python floats and each is stepped alone.
    interpolate_at is bitwise interpolate_values at one point, and each
    preimage goes through the same expressions in the same order; the
    running maximum keeps np.maximum.accumulate's rules (the later value
    on a tie, a NaN passed through), so the result is bitwise that of
    interpolate_values and np.maximum.accumulate on the whole array of
    preimages.
    """
    out = []
    for g in gammas:
        v1 = interpolate_at(v, x0, dx, g)
        v2 = interpolate_at(v, x0, dx, g + 0.5 * dt * v1)
        g = g + dt * v2
        if out and (out[-1] > g or out[-1] != out[-1]):
            g = out[-1]
        out.append(g)
    return out


def _pin_fronts(
    vals: np.ndarray, phi: np.ndarray, x: list, gammas: list, jumps: list
) -> np.ndarray:
    """Overwrite the jump side where phi disagrees with the tracked preimage.

    The zero of the interpolated foot field places a flip cell only to
    within the local interpolation error of phi, and at a compressive front
    that error is one-sided, so the flip cell acquires a systematic speed
    bias.  The tracked preimage gamma carries the exact kinematics, so
    nodes between the two placements are reassigned to gamma's side of the
    jump.  The overwritten values are one-sided datum limits, so they lie
    in the range of the datum and the range bound survives intact.

    vals is written in place.  x is the sorted list of the node
    coordinates, gammas the preimages (_advance_fronts) and jumps the
    datum's _datum_jumps, all in Python floats.
    """
    for g, (y, fl, fr) in zip(gammas, jumps):
        if g != g:  # no node is on either side of a NaN preimage
            continue
        # x is sorted, so x <= g exactly on x[:k] and x > g on x[k:]
        k = bisect_right(x, g)
        np.putmask(vals[:k], phi[:k] > y, fl)
        np.putmask(vals[k:], phi[k:] <= y, fr)
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
    xs, jumps = x.tolist(), _datum_jumps(data)
    datum = _datum_evaluator(u0, data)

    def pin(vals, phi, v, dt, gammas):
        gammas = _advance_fronts(gammas, x0, dx, v[0], dt)
        return _pin_fronts(vals, phi[0], xs, gammas, jumps), gammas

    return _Foot(
        nodes=x[np.newaxis],
        interp_linear=lambda v, pts: interpolate_values(v[0], x0, dx, pts[0]),
        stencil=lambda feet: _foot_stencil(x0, dx, x.size, feet[0]),
        interp_foot=lambda phi, st: _interp_foot(
            phi[0], x0, dx, st
        )[np.newaxis],
        datum=lambda phi: datum(phi[0]),
        changed=_changed_span,
        grid=((x0, dx, x.size),),
        # a midpoint sits within 0.5 dt |v| of its node; one more node for
        # the stencil's right neighbour and one for the floor's roundoff
        reach=lambda v, dt: int(
            np.ceil(0.5 * dt * float(np.abs(v[0]).max()) / dx)
        ) + 2,
        pin=pin if jumps else None,
        fronts=[position for position, _, _ in jumps],
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


def schedule(u0, T: float, cfg: SolverConfig, dt: float) -> np.ndarray:
    """The times a solve of u0 to T by steps of dt on step_times' schedule
    stores at (0, every cfg.store_stride-th step's end, T), after the
    budget checks (WorkBudgetError) and before any work."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    check_node_steps(u0.values.size, T, dt)
    check_stored_levels(u0.values.size, T, dt, cfg.store_stride)
    return np.array([0.0] + [
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
    given, replaces transport_step of u0 and data, so coupled solves can
    share a time grid.
    """
    if dt is None:
        dt = transport_step(cfg, u0.dx, u0.values, data)
    times = schedule(u0, T, cfg, dt)
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
    given, replaces transport_step of u0 and data (coupled solves share
    one step).
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
    interface-averaged mollified field v = eta_eps * u, and the two end
    faces carry v u of their end cells.  Discrete mass is conserved
    exactly up to roundoff for data vanishing at the boundary.  There is
    no maximum principle here, on purpose: the continuum model it
    discretises does not have one either.

    Each step is time_step of v, the velocity the fluxes carry, clamped to
    end at T: cfg.cfl dx / sup|v|.  It follows the state, whose mass
    concentrates (on criterion 11's grid sup|u| climbs from 1 to 87
    while sup|v| stays below 2.97, and the solve takes 697 steps where a
    step on sup|u| took 16,769).  With lambda = dt/dx, face velocities
    the mean of two nodal ones, v+ = max(v, 0) and v- = max(-v, 0), the
    update is

        u_i' = [1 - lambda (v+_{i+1/2} + v-_{i-1/2})] u_i
               + lambda v+_{i-1/2} u_{i-1} + lambda v-_{i+1/2} u_{i+1},

    and the end faces' v_0 u_0 and v_{n-1} u_{n-1} enter the end nodes'
    first coefficient the same way.  Every coefficient is >= 0 when
    lambda sup|v| <= 1/2, so at the default cfl of 0.5 nonnegative data
    stay nonnegative (v is a unit-mass average of u, so a step on sup|u|
    met this with room to spare).  The scheme is first order in time.
    Against a solve by the same rule at cfl 1/16, the relative L1 error
    at T is 0.10 % on criterion 11's grid, 3.9 % on exp(-x^2) (eps 0.1,
    T 1, dx 0.01 on [-3, 5]) and 10.2 % on the bump cos^2(pi x/2), |x| <
    1 (eps 0.1, T 1.5, dx 0.01 on [-2, 4]), where a step on sup|u| gave
    0.01, 2.3 and 3.9 %.

    schedule checks the work budgets at the first step's size, which in
    this mode is a lower bound: the loop counts the node-steps and stored
    values as it goes and raises WorkBudgetError ("initial" or "stride")
    on the step that passes either budget.
    """
    m = build_mollifier(epsilon, u0.dx)
    dx, n = u0.dx, u0.values.size
    vals = u0.values.copy()
    v = convolve_values(m, vals)
    dt0 = time_step(cfg, dx, v)
    schedule(u0, T, cfg, dt0)
    times = [0.0]
    levels = [vals]
    t = 0.0
    k = 0
    while t < T - 1e-15:
        if k:  # the first step's v is the one schedule checked
            v = convolve_values(m, vals)
        dt = min(time_step(cfg, dx, v), T - t)
        if n * (k + 1) > NODE_STEP_BUDGET:
            raise _budget_error(
                "initial", f"{n} nodes x {k + 1} steps by t = {t + dt!r} "
                f"(T = {T!r}, first dt = {dt0!r})", n * (k + 1.0),
                "node-steps", NODE_STEP_BUDGET,
            )
        # interface values between i and i+1; constant extension at ends
        v_face = 0.5 * (v[:-1] + v[1:])
        up = np.where(v_face >= 0.0, vals[:-1], vals[1:])
        # the n + 1 face fluxes, the two end faces carrying v * u of
        # their end cells
        flux_face = np.empty(n + 1)
        np.multiply(v_face, up, out=flux_face[1:-1])
        flux_face[0] = v[0] * vals[0]
        flux_face[-1] = v[-1] * vals[-1]
        vals = vals - (dt / dx) * (flux_face[1:] - flux_face[:-1])
        t += dt
        k += 1
        if k % cfg.store_stride == 0 or t >= T - 1e-15:
            if n * (len(levels) + 1) > LEVEL_BUDGET:
                raise _budget_error(
                    "stride", f"{n} nodes x {len(levels) + 1} stored levels "
                    f"by t = {t!r} (stride {cfg.store_stride})",
                    n * (len(levels) + 1.0), "stored values", LEVEL_BUDGET,
                )
            times.append(t)
            levels.append(vals)
    return Trajectory(
        u0.copy(), times, np.stack(levels), epsilon, "conservative",
        speed_bound("conservative", None, u0.values), dt=dt0,
    )
