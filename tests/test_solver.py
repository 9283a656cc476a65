"""Nonlocal transport solver: stepping, modes, invariants."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw.expressions import parse_expression
from nlclaw.fluxes import FluxSpec, burgers_flux, cubic_flux
from nlclaw.grids import (
    DatumError,
    GridFunction1D,
    PiecewiseInitialData,
    RiemannData,
    interpolate_values,
    l1_distance,
    sample,
    sup_norm,
    total_variation,
)
from nlclaw import grids, solver
from nlclaw.acceptance import _counterexample_datum, _pwise_increasing_datum
from nlclaw.diagnostics import padded_grid_bounds
from nlclaw.euler import solve_isentropic, to_invariants
from nlclaw.kernel import build_mollifier, convolve_values
from nlclaw.solver import (
    PICARD_TOL,
    SUP_FLOOR,
    PicardDivergenceError,
    SolverConfig,
    Trajectory,
    WorkBudgetError,
    _advance_fronts,
    _cubic_weights,
    _datum_evaluator,
    _datum_jumps,
    _foot_1d,
    _foot_stencil,
    _interp_foot,
    _transport_steps,
    _velocity_fn,
    check_node_steps,
    check_stored_levels,
    solve,
    solve_conservative_nonlocal,
    solve_general,
    solve_nn,
    speed_bound,
    step_times,
    time_step,
)
from nlclaw.twodim import sample_2d, solve_velocity_reg_2d

CFG = SolverConfig(store_stride=20)


def interp_foot_oracle(phi, x0, dx, y):
    """The foot interpolation of _interp_foot in one vectorised pass: the
    cubic on the inner cells, the clipped linear interpolant in the end
    cells, the unit-slope extension off the grid."""
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
    np.maximum(out, np.minimum(a, b), out=out)
    np.minimum(out, np.maximum(a, b), out=out)
    left = pos < 0.0
    if left.any():
        out[left] = phi[0] + (y[left] - x0)
    right = pos > n - 1
    if right.any():
        out[right] = phi[-1] + (y[right] - (x0 + (n - 1) * dx))
    return out


@st.composite
def _foot_cases(draw):
    """A foot field phi with signed-zero ties on 2, 3, 4 or more nodes, and
    feet on nodes, inside cells, in both end cells and up to four cells
    off either end (as the flux modes' feet can be)."""
    n = draw(st.one_of(st.sampled_from([2, 3, 4]), st.integers(5, 12)))
    phi = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-10.0, 10.0)
    )))
    x0 = draw(st.sampled_from([0.0, -0.0, -1.3, 0.5]))
    dx = draw(st.sampled_from([1.0, 0.07, 0.25]))
    y = draw(st.lists(_feet(n, x0, dx), min_size=1, max_size=8))
    return phi, x0, dx, np.array(y)


def _feet(n, x0, dx):
    """Feet on the nodes of an n-node grid, inside cells, in both end cells
    and up to four cells off either end."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, x0, x0 + (n - 1) * dx]),
        st.builds(lambda k: x0 + k * dx, st.integers(0, n - 1)),
        st.builds(
            lambda k, f: x0 + (k + f) * dx,
            st.integers(-4, n + 3), st.floats(0.0, 1.0),
        ),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_foot_cases())
@example(case=(np.array([0.0, -0.0]), 0.0, 1.0, np.array([0.0, 0.5, 1.0])))
@example(case=(
    np.array([1.0, 0.0, -0.0, 2.0, 0.0, -0.0]), 0.0, 1.0,
    np.array([-3.5, 0.25, 1.0, 2.5, 4.0, 4.5, 5.0, 8.25]),
))
def test_interp_foot_on_a_stencil_is_bitwise_the_oracle(case):
    phi, x0, dx, y = case
    got = _interp_foot(phi, x0, dx, _foot_stencil(x0, dx, phi.size, y))
    assert np.array_equal(bits(got), bits(interp_foot_oracle(phi, x0, dx, y)))


def stencil_bits(stencil):
    """A 1D stencil (_foot_stencil) with every float as its bits."""
    taps, w, edge = stencil
    return taps.tolist(), bits(w).tolist(), [(k, yk.hex()) for k, yk in edge]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_stencil_patched_on_a_span_is_bitwise_the_full_rebuild(data):
    # the generator rebuilds the stencil only on the span of feet it
    # retraces and patches it into the kept one
    n = data.draw(st.one_of(st.sampled_from([2, 3, 4]), st.integers(5, 12)))
    x0 = data.draw(st.sampled_from([0.0, -0.0, -1.3, 0.5]))
    dx = data.draw(st.sampled_from([1.0, 0.07, 0.25]))
    size = data.draw(st.integers(1, 12))
    old, new = (
        np.array(data.draw(st.lists(_feet(n, x0, dx), min_size=size,
                                    max_size=size)))
        for _ in range(2)
    )
    lo = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(lo + 1, size))
    y = old.copy()
    y[lo:hi] = new[lo:hi]
    patched = solver._patched(
        _foot_stencil(x0, dx, n, old), lo, hi, size,
        _foot_stencil(x0, dx, n, new[lo:hi]),
    )
    assert stencil_bits(patched) == stencil_bits(_foot_stencil(x0, dx, n, y))


def test_interp_foot_does_not_keep_monotone_phi_monotone():
    # phi increases, yet the clipped cubic turns back inside the cell [0, 1]
    phi = np.array([-52.33, -11.67, 0.0, 1.0, 4.67, 29.33])
    assert np.all(np.diff(phi) > 0.0)
    y = np.array([0.9, 0.95])
    lo, hi = _interp_foot(phi, -2.0, 1.0, _foot_stencil(-2.0, 1.0, 6, y))
    assert 0.99 < hi < lo <= 1.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_foot_cases())
def test_interp_foot_stays_within_its_bracketing_nodes(case):
    # what the clip does guarantee: an on-grid foot's value lies between
    # the two nodes around it, so the range of phi never grows
    phi, x0, dx, y = case
    out = _interp_foot(phi, x0, dx, _foot_stencil(x0, dx, phi.size, y))
    pos = (y - x0) / dx
    on = (pos >= 0.0) & (pos <= phi.size - 1)
    i = np.minimum(phi.size - 2, np.floor(pos[on]).astype(int))
    a, b = phi[i], phi[i + 1]
    assert np.all(np.minimum(a, b) <= out[on])
    assert np.all(out[on] <= np.maximum(a, b))


def test_clips_resolve_signed_zero_ties_as_np_clip():
    # np.clip with array bounds returns the bound on a tie, with scalar
    # bounds the clipped value; the interpolants' min/max clips keep both
    phi = np.array([-0.0, 1.0, -0.0, 1.0, 2.0])
    # a linear (first) and a cubic cell: both give +0.0 at the node -0.0,
    # which ties the lower bound; _interp_foot clips the linear (end) cell
    # in Python floats and the cubic one in numpy
    y = np.array([0.0, 2.0])
    assert np.signbit(interpolate_values(phi, 0.0, 1.0, y)).all()
    stencil = _foot_stencil(0.0, 1.0, phi.size, y)
    assert np.signbit(_interp_foot(phi, 0.0, 1.0, stencil)).all()
    ev = _datum_evaluator(GridFunction1D(0.0, 1.0, [0.0, 1.0]), lambda y: -0.0 * y)
    assert np.signbit(ev(y)).all()


RIEMANN_FEET = np.array([
    -7.5, -1.0, -0.0, 0.0, -5e-324, 5e-324, 0.3, 0.3125, 2.0, 7.5,
    np.nan, -np.inf, np.inf,
])


@pytest.mark.parametrize("uL, uR, a, b", [
    (1.0, 0.2, -0.5, 1.5),
    (-0.4, 0.9, -1.0, 1.0),
    (-0.0, 0.0, -1.0, 1.0),
    (0.0, -0.0, -1.0, 1.0),
    (1, 0, -1.0, 1.0),  # integer states
    (2.0, 0.5, 0.25, 1.5),  # domain right of the jump: uL clips to uR
    (-1.0, 3.0, -2.0, -0.5),  # domain left of the jump: uR clips to uL
    (-0.0, 0.0, 0.25, 1.5),  # the clip meets signed zeros
    (0.0, -0.0, -1.5, -0.25),
    (0.5, -0.0, -1.5, -0.25),
])
def test_riemann_evaluator_is_bitwise_the_clipped_datum(uL, uR, a, b):
    data = RiemannData(uL, uR)
    u0 = sample(data, a, b, 0.0625)
    lo, hi = float(np.min(u0.values)), float(np.max(u0.values))
    y = np.concatenate([RIEMANN_FEET, u0.x, u0.x + 0.01])  # on and off grid
    got = _datum_evaluator(u0, data)(y)
    want = np.minimum(hi, np.maximum(lo, data(y)))
    assert got.dtype == np.float64 and got.shape == y.shape
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_riemann_state_that_is_not_finite_raises_at_its_feet(bad, side):
    # the domain holds only the finite state, so sampling passes; a foot
    # on the other side of the jump reads the bad state and raises
    if side == "left":
        data, a, b, good, away = RiemannData(bad, 0.5), 0.25, 1.5, 0.3, 0.0
    else:
        data, a, b, good, away = RiemannData(0.5, bad), -1.5, -0.25, -0.3, 0.1
    ev = _datum_evaluator(sample(data, a, b, 0.0625), data)
    assert ev(np.array([good, 2.0 * good, 10.0 * good])).tolist() == [0.5] * 3
    with pytest.raises(DatumError, match=f"foot x = {away!r} the datum is"):
        ev(np.array([good, away, 2.0 * good]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side", ["left", "right"])
def test_datum_jumps_rejects_a_riemann_state_that_is_not_finite(bad, side):
    data = RiemannData(bad, 0.5) if side == "left" else RiemannData(0.5, bad)
    with pytest.raises(DatumError, match="the Riemann states are"):
        _datum_jumps(data)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_riemann_state_that_is_not_finite_raises_before_any_step(
    bad, side, monkeypatch
):
    # the domain holds only the finite state, so sampling passes
    if side == "left":
        data, a, b = RiemannData(bad, 0.5), 0.25, 1.5
    else:
        data, a, b = RiemannData(0.5, bad), -1.5, -0.25
    u0 = sample(data, a, b, 0.0625)
    assert u0.values.tolist() == [0.5] * u0.n

    def no_steps(*args, **kwargs):
        raise AssertionError("the solve took a step")

    monkeypatch.setattr(solver, "_transport_steps", no_steps)
    with pytest.raises(DatumError, match="the Riemann states are"):
        solve_nn(u0, 0.1, 1.0, CFG, data=data)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl=1.5)
    with pytest.raises(ValueError):
        SolverConfig(store_stride=0)


def test_flux_spec_validation():
    with pytest.raises(ValueError):  # fprime is half the derivative
        FluxSpec(f=lambda u: u * u, fprime=lambda u: u)


def test_node_step_budget():
    check_node_steps(5 * 10**9, 1.0, 0.5)  # 1e10, at the budget
    with pytest.raises(
        WorkBudgetError, match=r"^5000000001 nodes x 2 steps \(T = 1.0, "
    ) as info:
        check_node_steps(5 * 10**9 + 1, 1.0, 0.5)
    assert info.value.key == "initial"
    # the conservative solver checks its first step before any step
    u0 = sample(lambda x: 1e12 * np.exp(-x * x), -1.0, 1.0, 0.01)
    with pytest.raises(WorkBudgetError):
        solve_conservative_nonlocal(u0, 0.1, 1.0, CFG)


def test_stored_level_budget():
    # 1e6 nodes x (1 + 99) levels is the budget; one step more is beyond
    check_stored_levels(10**6, 0.99, 0.01, 1)
    with pytest.raises(WorkBudgetError, match=r"^1000000 nodes x 101 ") as info:
        check_stored_levels(10**6, 1.0, 0.01, 1)
    assert info.value.key == "stride"
    check_stored_levels(10**6, 1.0, 0.01, 2)  # a stride keeps it within
    # the solvers check before any step
    # (2,001 nodes x 200,000 steps: 4e8 node-steps, within their budget)
    u0 = sample(1.0, -1.0, 1.0, 1e-3)
    with pytest.raises(WorkBudgetError, match="stored levels"):
        solve_nn(u0, 0.1, 100.0, SolverConfig())
    with pytest.raises(WorkBudgetError, match="stored levels"):
        solve_conservative_nonlocal(u0, 0.1, 100.0, SolverConfig())


def test_constant_is_exact_fixed_point():
    u0 = sample(0.8, -2.0, 2.0, 0.01)
    tr = solve_nn(u0, 0.1, 0.5, CFG)
    assert np.max(np.abs(tr.final.values - 0.8)) == 0.0


def test_picard_divergence_signalled(monkeypatch):
    u0 = sample(lambda x: -np.tanh(x), -2.0, 2.0, 0.01)
    monkeypatch.setattr(solver, "PICARD_MAX_ITERS", 1)
    with pytest.raises(PicardDivergenceError) as info:
        solve_nn(u0, 0.1, 0.005, SolverConfig())
    assert (info.value.step, info.value.t) == (0, 0.0)
    # a shock datum's first pass already returns the step-start values
    # until its fifth step (dt 0.005), where the front crosses a node and
    # the second pass returns them; a fixed point reached on the last
    # allowed pass ends the step
    data = RiemannData(1.0, 0.0)
    u0 = sample(data, -2.0, 2.0, 0.01)
    monkeypatch.setattr(solver, "PICARD_MAX_ITERS", 2)
    counts = solve_nn(u0, 0.1, 0.3, SolverConfig(), data=data).picard_counts
    assert counts[:5].tolist() == [1, 1, 1, 1, 2]
    monkeypatch.setattr(solver, "PICARD_MAX_ITERS", 1)
    with pytest.raises(PicardDivergenceError) as info:
        solve_nn(u0, 0.1, 0.3, SolverConfig(), data=data)
    assert info.value.step == 4
    assert info.value.t == pytest.approx(0.02, abs=1e-15)
    assert str(info.value).startswith("step 4 from t = 0.02: ")


def test_picard_divergence_carries_last_residual(monkeypatch):
    # the residual is the foot field's change in the step's last pass: the
    # first pass moves the feet by about dt sup|v| (sup|v| close to sup|u0|
    # here), a second pass only corrects them
    u0 = sample(lambda x: -np.tanh(x), -2.0, 2.0, 0.01)
    residuals = []
    for passes in (1, 2):
        monkeypatch.setattr(solver, "PICARD_MAX_ITERS", passes)
        with pytest.raises(PicardDivergenceError) as info:
            solve_nn(u0, 0.1, 0.005, SolverConfig())
        residuals.append(info.value.residual)
        assert f"(last change {info.value.residual:.3e})" in str(info.value)
    assert residuals[0] == pytest.approx(0.5 * 0.01, rel=0.05)
    assert PICARD_TOL < residuals[1] < 0.1 * residuals[0]


def test_speed_bound_per_mode():
    # nn, conservative and the Burgers flux: bitwise sup|u0|; the cubic
    # flux: max(lo^2, hi^2), whichever end of the range is the larger
    for data in (lambda x: 0.3 - 0.9 * np.tanh(x), RiemannData(-1.5, 0.5)):
        u0 = sample(data, -3.0, 3.0, 0.01)
        lo, hi = float(u0.values.min()), float(u0.values.max())
        for mode in ("nn", "conservative"):
            assert speed_bound(mode, None, u0.values) == sup_norm(u0)
        for mode in ("velocity_reg", "flux_reg"):
            assert speed_bound(mode, burgers_flux(), u0.values) == sup_norm(u0)
            cubic = speed_bound(mode, cubic_flux(), u0.values)
            assert cubic == max(lo * lo, hi * hi)
            # the two ends of the range serve as well as the data
            assert speed_bound(mode, cubic_flux(), (hi, lo)) == cubic


def test_velocity_stays_within_recorded_speed_bound(monkeypatch):
    # a cubic velocity_reg solve advects at eta * u^2, up to 1.44 here,
    # above sup|u0| = 1.2: every velocity any Picard pass computes stays
    # within the bound the trajectory records (a pass keeps the entries of
    # v it does not recompute, so the computed ones cover every pass's v)
    seen = []
    make = solver._velocity_fn

    def recording(m, flux, mode):
        velocity_of = make(m, flux, mode)

        def traced(u):
            v = velocity_of(u)
            seen.append(float(np.abs(v[0]).max()))
            return v

        return traced

    monkeypatch.setattr(solver, "_velocity_fn", recording)
    data = RiemannData(1.2, -0.6)
    u0 = sample(data, -1.0, 2.0, 0.01)
    tr = solve_general(u0, cubic_flux(), 0.1, 0.3, CFG, "velocity_reg", data)
    assert sup_norm(u0) < max(seen) <= tr.speed_bound


def test_cycle_rule_accepts_increasing_jump():
    # the fan of an increasing datum jump puts many feet onto the jump;
    # each flips sides every Picard pass, and only the period-2 cycle rule
    # lets these 40 steps finish (without it: PicardDivergenceError)
    data = RiemannData(-1.0, 1.0)
    u0 = sample(data, -2.0, 2.0, 0.01)
    tr = solve_nn(u0, 0.1, 0.2, SolverConfig(), data=data)
    assert tr.picard_counts.size == 40
    assert tr.final_time == 0.2


def test_step_antisymmetric_data_stays_antisymmetric():
    # grid symmetric about 0, datum odd: the scheme commutes with x -> -x
    u0 = sample(lambda x: -np.tanh(x), -2.0, 2.0, 0.01)
    tr = solve_nn(u0, 0.1, 0.05, SolverConfig())
    for s in tr.states:
        assert np.max(np.abs(s.values + s.values[::-1])) <= 1e-12


def test_step_riemann_front_moves_at_half():
    # after one step the level-0.5 crossing sits at sigma*dt, sigma = 0.5
    dx = 1e-3
    u0 = sample(RiemannData(1.0, 0.0), -1.0, 1.0, dx)
    dt = 0.5 * dx
    tr = solve_nn(u0, 0.05, dt, SolverConfig())
    assert tr.picard_counts.size == 1
    out = tr.final
    x_cross = np.interp(-0.5, -out.values, out.x)  # values decrease in x
    assert x_cross == pytest.approx(0.5 * dt, abs=2 * dx)


def test_max_principle_and_tv_on_rough_data():
    rng = np.random.default_rng(5)
    cfg = SolverConfig(store_stride=10)
    for trial in range(5):
        steps = rng.integers(3, 8)
        vals = np.repeat(rng.uniform(-1, 1, size=steps), 40)
        u0 = sample(0.0, -2.0, 2.0, 4.0 / (vals.size - 1)).with_values(vals)
        tr = solve_nn(u0, 0.15, 0.3, cfg)
        lo, hi = u0.values.min(), u0.values.max()
        tv0 = total_variation(u0)
        for s in tr.states:
            assert s.values.min() >= lo and s.values.max() <= hi
            assert total_variation(s) <= tv0 + 1e-12


def test_tv_bounded_and_nearly_preserved():
    # datum re-sampling along the foot field may recapture an extremum
    # corner missed a step earlier (O(dx^2) wiggle), but never exceeds the
    # initial variation and loses at most a resolution-size deficit
    u0 = sample(lambda x: np.exp(-4 * x * x), -3.0, 3.0, 0.01)
    tr = solve_nn(u0, 0.1, 0.5, SolverConfig(store_stride=5))
    tvs = [total_variation(s) for s in tr.states]
    assert max(tvs) <= tvs[0] + 1e-12
    assert tvs[0] - tvs[-1] <= 0.01 * tvs[0]


def test_burgers_modes_bitwise_equal():
    u0 = sample(lambda x: -np.tanh(x), -3.0, 3.0, 5e-3)
    fl = burgers_flux(radius=1.0)
    t1 = solve_nn(u0, 0.1, 0.3, CFG)
    t2 = solve_general(u0, fl, 0.1, 0.3, CFG, "velocity_reg")
    t3 = solve_general(u0, fl, 0.1, 0.3, CFG, "flux_reg")
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(t1.states, t3.states):
        assert np.array_equal(a.values, b.values)


def test_solve_general_rejects_bad_mode():
    u0 = sample(0.0, -1.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        solve_general(u0, burgers_flux(), 0.1, 0.1, CFG, "nn")


def test_final_time_is_exact():
    u0 = sample(lambda x: np.exp(-x * x), -2.0, 2.0, 0.01)
    tr = solve_nn(u0, 0.1, 0.123, SolverConfig(store_stride=7))
    assert tr.final_time == 0.123
    assert tr.times[0] == 0.0
    assert np.all(np.diff(tr.times) > 0.0)


@st.composite
def _schedules(draw):
    """(T, dt, stride) with T the product of dt and a whole number N, that
    product plus a few ulps (T/dt = N + delta, delta from 1e-16 to 1e-11,
    on both sides of the 1e-12 margin), or anything between."""
    dt = draw(st.floats(1e-4, 10.0))
    n = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["whole", "ulps", "between"]))
    if kind == "whole":
        T = n * dt
    elif kind == "ulps":
        T = n * dt + draw(st.integers(1, 16)) * math.ulp(n * dt)
    else:
        T = (n + draw(st.floats(0.0, 1.0, exclude_max=True))) * dt
    return T, dt, draw(st.integers(1, 60))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_schedules())
# a riemann 0.515 0 run at dx 0.01: T/dt is 103 plus 1.4e-14
@example(case=(1.0, 0.5 * 0.01 / 0.515, 20))
@example(case=(1.0, (1.0 / 3.0) * (1.0 - 1e-14), 1))
def test_schedule_ends_at_T_and_budgets_count_its_steps(case):
    T, dt, stride = case
    steps = list(step_times(T, dt))
    assert [k for k, *_ in steps] == list(range(len(steps)))
    assert steps[0][1] == 0.0
    assert steps[-1][2] == T
    assert all(t < t_next for _, t, t_next, _ in steps)
    assert all(a[2] == b[1] for a, b in zip(steps, steps[1:]))
    assert steps[-1][2] - steps[-1][1] <= dt * (1.0 + 1e-11)
    # a solve steps by dt itself, bitwise, on all but the last step, and
    # by the rest of the way to T on the last
    assert all(bits(h) == bits(dt) for *_, h in steps[:-1])
    assert bits(steps[-1][3]) == bits(T - steps[-1][1])
    # both budget checks report the count of the schedule the loop takes
    with pytest.raises(WorkBudgetError) as info:
        check_node_steps(10**10 + 1, T, dt)
    reported = re.search(r" x (\d+) steps ", str(info.value)).group(1)
    assert int(reported) == len(steps)
    kept = sum(
        (k + 1) % stride == 0 or t_next >= T for k, _, t_next, _ in steps
    )
    with pytest.raises(WorkBudgetError) as info:
        check_stored_levels(10**8, T, dt, stride)
    reported = re.search(r" x (\d+) stored levels ", str(info.value)).group(1)
    assert int(reported) == 1 + kept


def test_every_solver_steps_by_time_step():
    # each solver's dt is time_step on its own inputs, bitwise: the sup
    # of u0 also where the cubic flux's speed bound is larger, the joint
    # sup of both Euler invariants (here lam's), the smaller 2D spacing
    cfg = SolverConfig(cfl=0.4, store_stride=10**9)
    u0 = sample(lambda x: 0.3 - 0.9 * np.tanh(2.0 * x), -2.0, 2.0, 0.02)
    step = time_step(cfg, u0.dx, u0.values)
    assert solve_nn(u0, 0.2, 0.05, cfg).dt == step
    for mode in ("velocity_reg", "flux_reg"):
        tr = solve_general(u0, cubic_flux(), 0.2, 0.05, cfg, mode)
        assert tr.speed_bound > np.max(np.abs(u0.values))
        assert tr.dt == step
    assert solve_conservative_nonlocal(u0, 0.2, 0.05, cfg).dt == step
    u2 = sample_2d(
        lambda x, y: 0.5 * np.tanh(x) + 0.2 * y, -1.0, 1.0, 0.0, 0.5,
        0.05, 0.04,
    )
    tr = solve_velocity_reg_2d(
        u2, (burgers_flux(), burgers_flux()), 0.2, 0.02, cfg
    )
    assert u2.dy < u2.dx
    assert tr.dt == time_step(cfg, u2.dy, u2.values)
    rho0 = sample(1.0, -2.0, 2.0, 0.02)
    vel0 = sample(lambda x: -0.5 * np.exp(-x * x), -2.0, 2.0, 0.02)
    mu0, lam0 = to_invariants(rho0, vel0)
    assert np.max(np.abs(lam0.values)) > np.max(np.abs(mu0.values))
    mu, lam = solve_isentropic(rho0, vel0, 0.2, 0.05, cfg)
    step = time_step(cfg, rho0.dx, (mu0.values, lam0.values))
    assert mu.dt == lam.dt == step


@pytest.mark.parametrize("values", [
    np.linspace(-1.3, 0.7, 41),
    (np.linspace(-0.2, 0.4, 9), np.linspace(0.9, -0.6, 9)),  # (mu, lam)
    np.zeros(7),                       # SUP_FLOOR caps the step
    np.array([0.0, -0.0, -0.0]),
    np.array([-0.0, -0.0]),
    np.array([0.3, np.nan, -2.0]),
    1.35,
], ids=["array", "euler-pair", "zeros", "signed-zeros", "negative-zeros",
        "nan", "scalar"])
def test_time_step_is_the_fromnumeric_expression(values):
    # the ndarray method skips np.max's Python wrapper, with the same bits
    cfg = SolverConfig(cfl=0.45)
    want = cfg.cfl * 0.01 / max(float(np.max(np.abs(values))), SUP_FLOOR)
    got = time_step(cfg, 0.01, values)
    assert type(got) is float
    assert bits(got) == bits(want)


def test_l1_time_lipschitz_bound():
    u0 = sample(lambda x: -np.tanh(x), -3.0, 3.0, 5e-3)
    tr = solve_nn(u0, 0.1, 0.4, SolverConfig(store_stride=10))
    K = sup_norm(u0) * total_variation(u0)
    for (ta, sa), (tb, sb) in zip(
        zip(tr.times, tr.states), zip(tr.times[1:], tr.states[1:])
    ):
        assert l1_distance(sa, sb) <= 1.05 * K * (tb - ta) + 1e-12


def test_picard_counts_bounded_and_contract_with_dt():
    u0 = sample(lambda x: -np.tanh(x), -2.0, 2.0, 0.01)
    tr_big = solve_nn(u0, 0.1, 0.1, SolverConfig(cfl=0.5))
    tr_small = solve_nn(u0, 0.1, 0.1, SolverConfig(cfl=0.125))
    assert tr_big.picard_counts.max() <= 50
    # smaller dt means a stronger contraction, so no more iterations
    assert tr_small.picard_counts.max() <= tr_big.picard_counts.max()


def test_conservative_constant_and_mass():
    u0 = sample(0.7, -2.0, 2.0, 0.01)
    tr = solve_conservative_nonlocal(u0, 0.1, 0.3, CFG)
    assert np.max(np.abs(tr.final.values - 0.7)) <= 1e-12
    pulse = sample(lambda x: np.exp(-8 * x * x) * (np.abs(x) < 1.5), -4.0, 4.0, 0.01)
    tr = solve_conservative_nonlocal(pulse, 0.1, 0.5, CFG)
    m0 = float(np.sum(pulse.values) * pulse.dx)
    m1 = float(np.sum(tr.final.values) * pulse.dx)
    assert abs(m1 - m0) <= 1e-10


def test_conservative_may_break_max_principle():
    # the section-5-style datum concentrates at the compressive jump;
    # the conservative mode has no maximum principle, by design
    ramp = PiecewiseInitialData(
        breakpoints=(-2.0, -1.0, 1.0, 2.0),
        pieces=(
            lambda x: 0.0 * x,
            lambda x: x + 2.0,
            lambda x: -np.sign(x),
            lambda x: x - 2.0,
            lambda x: 0.0 * x,
        ),
        lipschitz_C=1.0,
    )
    u0 = sample(ramp, -4.0, 4.0, 0.01)
    tr = solve_conservative_nonlocal(u0, 0.1, 0.4, SolverConfig(store_stride=100))
    sup0 = sup_norm(tr.states[0])
    assert max(sup_norm(s) - sup0 for s in tr.states) > 0.1


def reference_conservative(u0, epsilon, T, cfg):
    """The times and levels solve_conservative_nonlocal stores, stepped as
    it stepped before its face fluxes went into one array: the left and
    right fluxes of every cell as two concatenations."""
    m = build_mollifier(epsilon, u0.dx)
    dx = u0.dx
    vals = u0.values.copy()
    times = [0.0]
    levels = [vals]
    t = 0.0
    k = 0
    while t < T - 1e-15:
        dt = min(time_step(cfg, dx, vals), T - t)
        v = convolve_values(m, vals)
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
    return np.array(times), np.stack(levels)


def criterion_11_grid():
    """Criterion 11's conservative grid: its finest sweep row (eps 0.05)."""
    data, dx = _counterexample_datum(), 0.05 / 8.0
    speed = speed_bound("nn", None, sample(data, -3.0, 3.0, dx).values)
    u0 = sample(data, *padded_grid_bounds((-3.0, 3.0), speed, 0.05, 1.0, dx), dx)
    assert u0.n == 1617
    return u0


def assert_conservative_is_the_reference(u0, epsilon, T, stride):
    cfg = SolverConfig(store_stride=stride)
    tr = solve_conservative_nonlocal(u0, epsilon, T, cfg)
    times, levels = reference_conservative(u0, epsilon, T, cfg)
    assert np.array_equal(bits(tr.times), bits(times))
    assert np.array_equal(bits(tr.values), bits(levels))


@pytest.mark.parametrize("T, stride", [(1.0, 10**9), (0.1, 1)])
def test_criterion_11_conservative_steps_are_the_concatenated_fluxes(T, stride):
    # criterion 11's solve, and its first tenth level by level
    assert_conservative_is_the_reference(criterion_11_grid(), 0.05, T, stride)


@pytest.mark.parametrize("f, a, b, dx, epsilon, T", [
    # mass moving out of the grid on the left and in on the right
    (lambda x: 0.5 + x, -1.0, 1.0, 0.01, 0.1, 0.3),
    # and in on the left, out on the right
    (lambda x: -np.tanh(x) - 0.2, -2.0, 2.0, 0.02, 0.2, 0.5),
])
@pytest.mark.parametrize("stride", [1, 10**9])
def test_end_fluxes_are_the_concatenated_fluxes(f, a, b, dx, epsilon, T, stride):
    u0 = sample(f, a, b, dx)
    assert u0.values[0] != 0.0 and u0.values[-1] != 0.0
    assert_conservative_is_the_reference(u0, epsilon, T, stride)


def test_trajectory_validation():
    u0 = sample(0.0, -1.0, 1.0, 0.1)
    two = np.stack([u0.values, u0.values])
    tr = Trajectory(u0, [0.0, 0.1], two, 0.1, "nn", 0.0)
    assert tr.final_time == 0.1 and len(tr.states) == 2
    with pytest.raises(ValueError):  # one level short of the times
        Trajectory(u0, [0.0, 0.1], two[:1], 0.1, "nn", 0.0)
    with pytest.raises(ValueError):  # levels on another grid
        Trajectory(u0, [0.0, 0.1], two[:, 1:], 0.1, "nn", 0.0)
    with pytest.raises(ValueError):  # times not strictly increasing
        Trajectory(u0, [0.0, 0.0], two, 0.1, "nn", 0.0)
    with pytest.raises(ValueError):  # a level that blew up
        Trajectory(u0, [0.0, 0.1], two + [[0.0], [np.inf]], 0.1, "nn", 0.0)
    with pytest.raises(ValueError):
        Trajectory(u0, [0.0], two[:1], 0.1, "warp", 0.0)


def backward_characteristic(traj, m, t: float, x: float) -> float:
    """Reference tracer: follow the characteristic through (t, x) back to
    time 0, integrating dy/ds = (eta_eps * u)(s, y) with a two-stage
    midpoint rule over the stored levels, the velocity linear in time and
    space."""
    times = traj.times
    grid = traj.grid
    vfields = [convolve_values(m, v) for v in traj.values]

    def vel(s: float, y: float) -> float:
        k = min(int(np.searchsorted(times, s, side="right")) - 1, times.size - 2)
        w = (s - times[k]) / (times[k + 1] - times[k])
        vv = (1.0 - w) * vfields[k] + w * vfields[k + 1]
        return float(interpolate_values(vv, grid.x0, grid.dx, np.array([y]))[0])

    y, s = float(x), float(t)
    for s_prev in times[times < s - 1e-15][::-1]:
        h = s - float(s_prev)
        y -= h * vel(s - 0.5 * h, y - 0.5 * h * vel(s, y))
        s = float(s_prev)
    return y


def test_backward_characteristic_constant():
    u0 = sample(0.5, -2.0, 2.0, 0.01)
    tr = solve_nn(u0, 0.1, 1.0, SolverConfig(store_stride=10))
    m = build_mollifier(0.1, 0.01)
    y = backward_characteristic(tr, m, 1.0, 0.7)
    assert y == pytest.approx(0.7 - 0.5, abs=1e-6)


def test_backward_characteristic_representation():
    # at continuity points u(t, x) = u0(foot), up to O(dx + dt)
    u0 = sample(lambda x: 0.5 * np.exp(-x * x), -3.0, 3.0, 5e-3)
    eps, T = 0.1, 0.3
    tr = solve_nn(u0, eps, T, SolverConfig(store_stride=5))
    m = build_mollifier(eps, 5e-3)
    for xq in (-0.8, -0.2, 0.4, 1.1):
        y = backward_characteristic(tr, m, T, xq)
        u_here = np.interp(xq, tr.final.x, tr.final.values)
        u_foot = np.interp(y, u0.x, u0.values)
        assert u_here == pytest.approx(u_foot, abs=0.02)


def full_pass_solve(
    u0, epsilon, T, cfg, mode, data=None, flux=None, predict=True,
    fixed_point=True,
):
    """Reference stepping loop: every Picard pass recomputes the velocity,
    the feet, phi and the datum on the whole grid.  Without tracked datum
    jumps, each step's first pass traces the feet through the velocity
    extrapolated over the last three step starts (predict=False: through
    the velocity at the step start).  A step ends on a pass that changes
    phi by less than PICARD_TOL, closes a period-2 cycle to that, or
    (fixed_point=False: never) returns bitwise the values its velocity
    was built from, the feet traced through that velocity.  Returns the
    stored levels, the passes per step, the foot field after each step
    and whether the fixed-point rule alone ended each step."""
    m = build_mollifier(epsilon, u0.dx)
    velocity_of = _velocity_fn(m, flux, mode)
    foot = _foot_1d(u0, data)
    (x,) = foot.nodes
    phi, vals, fronts = x.copy(), u0.values.copy(), foot.fronts
    levels, counts, phis, fired = [vals], [], [], []
    starts = []  # the velocity at the earlier step starts, latest first
    for k, t, t_next, h in step_times(T, time_step(cfg, u0.dx, u0.values)):
        cand_phi, cand_vals, cand_fronts, older = phi, vals, fronts, None
        for j in range(solver.PICARD_MAX_ITERS):
            src = cand_vals
            (v,) = velocity_of(cand_vals)
            w = v  # the field the feet are traced through
            if j == 0 and predict and foot.pin is None:
                if len(starts) == 2:
                    w = 3.0 * v - 3.0 * starts[0] + starts[1]
                elif starts:
                    w = 2.0 * v - starts[0]
                starts = [v, *starts[:1]]
            mids = x - 0.5 * h * w
            feet = x - h * 0.5 * (w + interpolate_values(w, u0.x0, u0.dx, mids))
            new_phi = interp_foot_oracle(phi, u0.x0, u0.dx, feet)
            change = float(np.max(np.abs(new_phi - cand_phi)))
            cycle = np.inf if older is None else float(
                np.max(np.abs(new_phi - older))
            )
            older, cand_phi = cand_phi, new_phi
            cand_vals = foot.datum(new_phi[np.newaxis])
            if foot.pin is not None:
                cand_vals, cand_fronts = foot.pin(
                    cand_vals, new_phi[np.newaxis], v[np.newaxis], h, fronts
                )
            if change < PICARD_TOL or cycle < PICARD_TOL:
                break
            if fixed_point and w is v and np.array_equal(
                bits(cand_vals), bits(src)
            ):
                fired.append(k)
                break
        else:
            raise PicardDivergenceError(k, t, change)
        phi, vals, fronts = cand_phi, cand_vals, cand_fronts
        counts.append(j + 1)
        phis.append(phi)
        if (k + 1) % cfg.store_stride == 0 or t_next >= T:
            levels.append(vals)
    return (
        np.stack(levels), np.asarray(counts), np.stack(phis),
        np.isin(np.arange(len(counts)), fired),
    )


def bits(a):
    return np.asarray(a).view(np.uint64)


def solve_recording_phi(mode, u0, epsilon, T, cfg, data=None, flux=None):
    """solver.solve, plus what _transport_steps yields on the same solve:
    the foot field, the Picard passes and the end time of each step."""
    tr = solve(mode, u0, epsilon, T, cfg, data=data, flux=flux)
    m = build_mollifier(epsilon, u0.dx)
    steps = list(_transport_steps(
        u0, m, T, tr.dt, _velocity_fn(m, flux, mode), _foot_1d(u0, data)
    ))
    return (
        tr, np.stack([phi[0] for _, phi, _, _ in steps]),
        np.array([passes for *_, passes in steps]), steps[-1][0],
    )


def _several_fronts():
    return PiecewiseInitialData(
        breakpoints=(-1.0, -0.3, 0.4, 1.0),
        pieces=(
            lambda x: 0.0 * x + 1.0,
            lambda x: 0.2 - 0.5 * x,
            lambda x: 0.0 * x - 0.6,
            lambda x: 0.5 + 0.0 * x,
            lambda x: 0.0 * x - 0.2,
        ),
        lipschitz_C=0.5,
    )


incremental_cases = pytest.mark.parametrize(
    "mode, data, flux, T, functional",
    [
        ("nn", RiemannData(1.0, 0.0), None, 0.4, True),
        ("velocity_reg", RiemannData(2.0, 0.0), cubic_flux(radius=2.0), 0.2,
         True),
        ("flux_reg", RiemannData(2.0, 0.0), cubic_flux(radius=2.0), 0.2, True),
        # fast flow downwind of the front: feet there trace back more
        # than one node into the span where v changed
        ("velocity_reg", RiemannData(8.0, 6.0), cubic_flux(radius=8.0), 0.02,
         True),
        ("nn", _several_fronts(), None, 0.4, True),
        ("nn", RiemannData(-1.0, 1.0), None, 0.2, True),
        ("nn", parse_expression("-tanh(3*x)"), None, 0.2, True),
        ("nn", lambda x: np.where(x <= 0.0, 1.0, -0.0 * x), None, 0.3, True),
        # no functional datum: u0 o phi interpolates the samples
        ("nn", lambda x: np.where(x <= 0.0, 1.0, -0.0 * x), None, 0.3, False),
    ],
    ids=["riemann", "cubic-vreg", "cubic-freg", "cubic-downwind", "fronts",
         "fan", "tanh", "signed-zero", "sampled-signed-zero"],
)


@incremental_cases
def test_incremental_passes_match_full_passes(
    mode, data, flux, T, functional
):
    # the foot field is compared too: where the datum is constant the
    # levels cannot show a stale foot
    u0 = sample(data, -2.0, 2.0, 0.01)
    data = data if functional else None
    cfg = SolverConfig()
    levels, counts, phis, _ = full_pass_solve(
        u0, 0.1, T, cfg, mode, data, flux
    )
    tr, tr_phis, passes, t_last = solve_recording_phi(
        mode, u0, 0.1, T, cfg, data=data, flux=flux
    )
    # the generator's steps are the solve's steps, the last ending at T
    assert np.array_equal(passes, tr.picard_counts) and t_last == T
    assert np.array_equal(tr.picard_counts, counts)
    assert np.array_equal(bits(tr.values), bits(levels))
    assert np.array_equal(bits(tr_phis), bits(phis))


def test_passes_that_keep_their_feet_keep_their_stencil(monkeypatch):
    # on Riemann data only the foot trace interpolates linearly, and the
    # stencil is built exactly where the feet are traced: a pass that
    # retraces no foot only gathers phi
    calls = {"stencil": 0, "trace": 0}
    build, trace = solver._foot_stencil, solver.interpolate_values

    def counted(key, f):
        def g(*a):
            calls[key] += 1
            return f(*a)
        return g

    monkeypatch.setattr(solver, "_foot_stencil", counted("stencil", build))
    monkeypatch.setattr(solver, "interpolate_values", counted("trace", trace))
    data = RiemannData(1.0, 0.0)
    tr = solve_nn(sample(data, -2.0, 2.0, 0.01), 0.1, 0.4, SolverConfig(),
                  data=data)
    assert calls["stencil"] == calls["trace"]
    assert calls["stencil"] < tr.picard_counts.sum()


@incremental_cases
def test_fixed_point_rule_keeps_the_result(mode, data, flux, T, functional):
    # a pass that returns the values its velocity was built from leaves
    # the next pass nothing to change: ending the step there keeps every
    # level and foot field, one pass earlier
    u0 = sample(data, -2.0, 2.0, 0.01)
    data = data if functional else None
    cfg = SolverConfig()
    levels, counts, phis, fired = full_pass_solve(
        u0, 0.1, T, cfg, mode, data, flux
    )
    levels_off, counts_off, phis_off, fired_off = full_pass_solve(
        u0, 0.1, T, cfg, mode, data, flux, fixed_point=False
    )
    assert not fired_off.any()
    assert np.array_equal(bits(levels), bits(levels_off))
    assert np.array_equal(bits(phis), bits(phis_off))
    assert np.array_equal(counts_off - counts, fired.astype(int))


def test_predictor_pass_counts():
    # smooth data: 484 passes when every step starts from V(u_n)
    d = parse_expression("-tanh(x)")
    tr = solve_nn(sample(d, -2.0, 2.0, 0.01), 0.1, 0.5, SolverConfig(), data=d)
    assert tr.picard_counts.size == 97
    assert tr.picard_counts.sum() == 295
    # a tracked jump: no prediction, the same passes as without it
    d = RiemannData(1.0, 0.0)
    tr = solve_nn(sample(d, -2.0, 2.0, 0.01), 0.1, 0.4, SolverConfig(), data=d)
    # (the step ends on the pass that returns the values it started
    # from: 80 passes fewer than if it ran one more pass to confirm them)
    assert tr.picard_counts.size == 80
    assert tr.picard_counts.sum() == 99


@pytest.mark.parametrize("k, T", [(1.0, 0.5), (3.0, 0.2)])
def test_predicted_state_matches_unpredicted(k, T):
    # Each step of either loop ends once a pass moves phi by less than
    # PICARD_TOL, within about that much of the step's fixed point, and
    # the clipped interpolation carries earlier errors along without
    # growing them, so after N steps the two foot fields differ by at most
    # 2 N PICARD_TOL, and the states u0 o phi by k times that
    d = parse_expression(f"-tanh({k}*x)")
    u0 = sample(d, -2.0, 2.0, 0.01)
    tr = solve_nn(u0, 0.1, T, SolverConfig(), data=d)
    levels, counts, _, _ = full_pass_solve(
        u0, 0.1, T, SolverConfig(), "nn", d, predict=False
    )
    assert tr.picard_counts.sum() < counts.sum()
    assert np.abs(tr.values - levels).max() < k * 2 * counts.size * PICARD_TOL


def advance_fronts_array_form(gammas, x0, dx, v, dt):
    """The midpoint step of the jump preimages as whole-array numpy
    operations: the oracle for the Python-float loop of _advance_fronts."""
    v1 = interpolate_values(v, x0, dx, gammas)
    v2 = interpolate_values(v, x0, dx, gammas + 0.5 * dt * v1)
    out = gammas + dt * v2
    if out.size > 1:
        out = np.maximum.accumulate(out)
    return out


@st.composite
def _front_cases(draw):
    """A velocity with repeats and signed zeros, and one to three
    preimages anywhere from left of the grid to right of it."""
    v = draw(hnp.arrays(
        np.float64, st.integers(2, 40),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, -1.0]),
            st.floats(-2.0, 2.0),
        ),
    ))
    x0 = draw(st.sampled_from([0.0, -0.0, -0.5, -1.3]))
    dx = draw(st.sampled_from([0.0025, 0.05, 0.25]))
    end = x0 + (v.size - 1) * dx
    gammas = np.array(draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, x0, end]),
            st.floats(x0 - 3 * dx, end + 3 * dx),
        ),
        min_size=1, max_size=3,
    )))
    dt = draw(st.sampled_from([0.0, 1e-3, 0.01, 0.1, 0.5]))
    return gammas, x0, dx, v, dt


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_front_cases())
def test_advance_fronts_is_bitwise_the_array_form(case):
    gammas, *rest = case
    want = advance_fronts_array_form(gammas, *rest)
    got = _advance_fronts(gammas.tolist(), *rest)
    assert all(type(g) is float for g in got)
    assert np.array_equal(bits(np.array(got)), bits(want))


def test_cubic_weights_are_bitwise_the_literal_formulas():
    s = np.concatenate([
        np.random.default_rng(11).uniform(0.0, 1.0, 20_000),
        [0.0, -0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0**-53],
    ])
    literal = (
        -s * (s - 1.0) * (s - 2.0) / 6.0,
        (s * s - 1.0) * (s - 2.0) / 2.0,
        -s * (s + 1.0) * (s - 2.0) / 2.0,
        s * (s * s - 1.0) / 6.0,
    )
    for got, want in zip(_cubic_weights(s), literal):
        assert np.array_equal(bits(got), bits(want))


def pin_fronts_mask_form(vals, phi, x, gammas, jump_pos, jump_left, jump_right):
    """The front pin as full-grid masks: the oracle for _pin_fronts."""
    for g, y, fl, fr in zip(gammas, jump_pos, jump_left, jump_right):
        wrong_left = (x <= g) & (phi > y)
        vals[wrong_left] = fl
        wrong_right = (x > g) & (phi <= y)
        vals[wrong_right] = fr
    return vals


@st.composite
def _pin_cases(draw):
    """A sorted grid, a foot field in any order with repeats and signed
    zeros, and one to three jumps whose preimages fall before the first
    node, after the last, exactly on a node, on either zero or nowhere
    (NaN)."""
    n = draw(st.integers(1, 30))
    x0 = draw(st.sampled_from([0.0, -0.0, -0.5, -1.3]))
    dx = draw(st.sampled_from([0.05, 0.25]))
    x = x0 + dx * np.arange(n)
    phi = draw(hnp.arrays(
        np.float64, n,
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, x0]), st.floats(-3.0, 3.0),
        ),
    ))
    k = draw(st.integers(1, 3))
    node = st.sampled_from(x.tolist())
    gammas = np.array(draw(st.lists(
        st.one_of(
            node, st.sampled_from([0.0, -0.0, -np.inf, np.inf, np.nan]),
            st.floats(x0 - 3 * dx, x[-1] + 3 * dx),
        ),
        min_size=k, max_size=k,
    )))
    jump_pos = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
        min_size=k, max_size=k,
    )))
    limits = st.lists(
        st.sampled_from([1.0, 0.0, -0.0, -0.6, 0.2]), min_size=k, max_size=k
    )
    vals = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    return (
        vals, phi, x, gammas, jump_pos,
        np.array(draw(limits)), np.array(draw(limits)),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_pin_cases())
def test_pin_fronts_is_bitwise_the_mask_form(case):
    vals, phi, x, gammas, *jumps = case
    want = pin_fronts_mask_form(vals.copy(), phi, x, gammas, *jumps)
    got = solver._pin_fronts(
        vals.copy(), phi, x.tolist(), gammas.tolist(),
        list(zip(*(j.tolist() for j in jumps))),
    )
    assert np.array_equal(bits(got), bits(want))


def pin_array_form(vals, phi, x, v, dt, gammas, jump_pos, jump_left,
                   jump_right):
    """The front pin on arrays: the preimages stepped one by one, their
    running maximum by np.maximum.accumulate, the wrong side of each jump
    found by a compare, .any() and a masked assignment.  The oracle for
    _foot_1d's pin, which does all of it in Python floats and np.putmask."""
    x0, dx = float(x[0]), float(x[1] - x[0])
    out = []
    for g in gammas.tolist():
        v1 = grids.interpolate_at(v, x0, dx, g)
        v2 = grids.interpolate_at(v, x0, dx, g + 0.5 * dt * v1)
        out.append(g + dt * v2)
    gammas = np.array(out)
    if gammas.size > 1:
        gammas = np.maximum.accumulate(gammas)
    for g, y, fl, fr in zip(gammas, jump_pos, jump_left, jump_right):
        if g != g:
            continue
        k = x.searchsorted(g, side="right")
        left, right = vals[:k], vals[k:]
        wrong_left = phi[:k] > y
        if wrong_left.any():
            left[wrong_left] = fl
        wrong_right = phi[k:] <= y
        if wrong_right.any():
            right[wrong_right] = fr
    return vals, gammas


@st.composite
def _front_pin_cases(draw):
    """A grid from +0.0, -0.0 or -0.5, a velocity with signed zeros and
    infinities (a midpoint in a cell next to one of those steps its
    preimage to NaN), a datum with one to three jumps, and preimages in
    any order (a later one behind an earlier, as merged fronts leave them
    after roundoff), on nodes, on either zero or off the grid."""
    n = draw(st.integers(2, 30))
    x0 = draw(st.sampled_from([0.0, -0.0, -0.5]))
    dx = draw(st.sampled_from([0.05, 0.25, 1.0]))
    x = x0 + dx * np.arange(n)
    v = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -1.0, np.inf, -np.inf]),
        st.floats(-2.0, 2.0),
    )))
    k = draw(st.integers(1, 3))
    jump_pos = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, x0]), st.floats(-3.0, 3.0)),
        min_size=k, max_size=k, unique_by=lambda b: b + 0.0,
    ))
    limits = draw(st.lists(
        st.sampled_from([1.0, 0.0, -0.0, -0.6, 0.2]),
        min_size=k + 1, max_size=k + 1,
    ).filter(lambda u: all(a != b for a, b in zip(u, u[1:]))))
    gammas = draw(st.lists(
        st.one_of(
            st.sampled_from(x.tolist()), st.sampled_from(sorted(jump_pos)),
            st.sampled_from([0.0, -0.0]),
            st.floats(x0 - 3 * dx, x[-1] + 3 * dx),
        ),
        min_size=k, max_size=k,
    ))
    phi = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -0.5, x0]), st.floats(-3.0, 3.0),
    )))
    vals = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    dt = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 4.0]))
    return x, v, sorted(jump_pos), limits, gammas, phi, vals, dt


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_front_pin_cases())
# the midpoint lands between inf and -inf: a NaN preimage, skipped, and
# carried by the running maximum to the preimage after it
@example(case=(
    np.arange(6.0), np.array([1.0, 1.0, 1.0, 1.0, np.inf, -np.inf]),
    [-0.0, 3.0], [1.0, 0.0, -0.6], [2.5, 0.5], np.linspace(-1.0, 4.0, 6),
    np.zeros(6), 4.0,
))
# fronts merged out of order, and a tie of the two zeros
@example(case=(
    np.arange(-2.0, 3.0), np.array([-0.0, 0.0, -0.0, 0.0, -0.0]),
    [-0.0, 1.0], [1.0, -0.6, 0.2], [0.0, -0.0],
    np.array([-1.0, 0.0, -0.0, 1.0, 2.0]), np.full(5, 0.5), 0.0,
))
def test_front_pin_is_bitwise_the_array_form(case):
    x, v, jump_pos, limits, gammas, phi, vals, dt = case
    data = PiecewiseInitialData(
        breakpoints=jump_pos,
        pieces=[lambda y, u=u: np.full_like(y, u) for u in limits],
    )
    x0, dx = float(x[0]), float(x[1] - x[0])
    foot = _foot_1d(GridFunction1D(x0, dx, vals), data)
    assert foot.fronts == jump_pos
    try:
        want_vals, want_gammas = pin_array_form(
            vals.copy(), phi, x, v, dt, np.array(gammas), np.array(jump_pos),
            np.array(limits[:-1]), np.array(limits[1:]),
        )
    except ValueError:  # a NaN midpoint has no cell
        with pytest.raises(ValueError):
            foot.pin(vals.copy(), phi[np.newaxis], v[np.newaxis], dt, gammas)
        return
    got_vals, got_gammas = foot.pin(
        vals.copy(), phi[np.newaxis], v[np.newaxis], dt, gammas
    )
    assert all(type(g) is float for g in got_gammas)
    assert np.array_equal(bits(np.array(got_gammas)), bits(want_gammas))
    assert np.array_equal(bits(got_vals), bits(want_vals))


def kept_stencil_pass_calls():
    """The Python and C-function calls (sys.setprofile's call and c_call
    events) of each warm one-pass step of an nn Riemann solve that traces
    no foot: a pass that keeps its stencil and only gathers phi."""
    data = RiemannData(1.0, 0.2)
    u0 = sample(data, -0.5, 1.5, 0.0025)
    m = build_mollifier(0.1, u0.dx)
    steps = _transport_steps(
        u0, m, 0.25, time_step(SolverConfig(), u0.dx, u0.values),
        _velocity_fn(m, None, "nn"), _foot_1d(u0, data),
    )
    counts, calls, names = [], [0], set()

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1
            names.add(frame.f_code.co_name)

    for k in range(200):
        calls[0] = 0
        names.clear()
        sys.setprofile(profile)
        try:
            *_, passes = next(steps)
        finally:
            sys.setprofile(None)
        if k >= 10 and passes == 1 and "_foot_stencil" not in names:
            counts.append(calls[0])
    return counts


def test_a_kept_stencil_pass_makes_few_calls():
    # numpy's per-call cost bounds such a pass (801 nodes): keep its count
    # of calls from creeping back
    counts = kept_stencil_pass_calls()
    assert len(counts) > 100
    assert max(counts) <= 43


def test_a_piecewise_datum_on_sorted_feet_makes_few_calls():
    # criterion 9's datum at sorted feet: one slice per piece, not one
    # boolean mask per piece (43 calls before the slices)
    data = _pwise_increasing_datum()
    u0 = sample(data, -3.0, 3.0, 0.01)
    ev = _datum_evaluator(u0, data)
    feet = u0.x - 0.3 * u0.dx
    ev(feet)
    calls = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        ev(feet)
    finally:
        sys.setprofile(None)
    assert calls[0] <= 24
