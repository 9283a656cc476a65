"""The bound that ends a Picard step early bounds what it skips.

From a step's second pass on, solver._transport_steps first rebuilds the
velocity v of the last pass's values and evaluates solver._change_bound:
a bound on how far retracing the last pass's feet through v, instead of
the field a they were traced through, would move phi.  Below PICARD_TOL
the step ends with the last pass's results.  Here every such evaluation
also runs that retrace, and the change it makes is held to the bound
(computed in full, without the early exit at PICARD_TOL), on 1D and 2D
solves and on fields built to make the bound's constants tight.
"""

import numpy as np
import pytest

from nlclaw import solver
from nlclaw.expressions import parse_expression
from nlclaw.fluxes import burgers_flux, cubic_flux, zero_flux
from nlclaw.grids import GridFunction1D, RiemannData, sample
from nlclaw.solver import (
    PICARD_TOL,
    SolverConfig,
    _change_bound,
    _foot_1d,
    _StepStart,
    _trace,
    solve,
)
from nlclaw.twodim import (
    GridFunction2D,
    _foot_2d,
    sample_2d,
    solve_velocity_reg_2d,
)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def change_and_bound(foot, phi, feet, a, v, h, span):
    """The sup-norm change of phi from retracing the feet through v, and
    the full bound on it (cap inf); checks that feet are the stencil of
    the feet traced through a and that v agrees with a outside span."""
    n = phi.shape[-1]
    lo, hi = span
    assert np.array_equal(bits(v[..., :lo]), bits(a[..., :lo]))
    assert np.array_equal(bits(v[..., hi:]), bits(a[..., hi:]))
    was = foot.interp_foot(phi, feet)
    again = foot.interp_foot(phi, foot.stencil(_trace(foot, a, h, 0, n)))
    assert np.array_equal(bits(was), bits(again))
    now = foot.interp_foot(phi, foot.stencil(_trace(foot, v, h, 0, n)))
    x_max = np.maximum.reduce(np.abs(foot.nodes), axis=None)
    start = _StepStart(phi, x_max)
    bound = _change_bound(foot, start, feet, a, v, h, span, np.inf)
    return float(np.abs(now - was).max()), bound


@pytest.fixture
def evaluations(monkeypatch):
    """Every (change, bound) of the solves the test makes, in order, and
    the bound the solver got (inf where it stopped at its cap)."""
    out = []

    def checked(foot, start, feet, a, v, h, span, cap):
        assert cap == PICARD_TOL
        got = _change_bound(foot, start, feet, a, v, h, span, cap)
        out.append(change_and_bound(foot, start.phi, feet, a, v, h, span)
                   + (got,))
        return got

    monkeypatch.setattr(solver, "_change_bound", checked)
    return out


def assert_bounded(evaluations, fired):
    changes, bounds, got = np.array(evaluations).T
    assert changes.size > 10
    assert np.all(changes <= bounds)
    # the rule fires (or never can: a tracked jump moves v by O(1))
    assert np.any(bounds < PICARD_TOL) == fired
    # stopping at the cap rejects only bounds that reach it, and changes
    # no other
    stopped = np.isinf(got)
    assert stopped.any()
    assert np.all(bounds[stopped] >= PICARD_TOL)
    assert np.array_equal(bits(got[~stopped]), bits(bounds[~stopped]))


CASES_1D = pytest.mark.parametrize(
    "mode, data, flux, functional, fired",
    [
        ("nn", parse_expression("-tanh(3*x)"), None, True, True),
        ("nn", RiemannData(1.0, 0.0), None, True, False),
        ("nn", RiemannData(-1.0, 1.0), None, True, False),
        # no functional datum: the samples are interpolated
        ("nn", parse_expression("-tanh(x)"), None, False, True),
        ("velocity_reg", RiemannData(2.0, 0.0), cubic_flux(radius=2.0),
         True, False),
        ("flux_reg", parse_expression("-0.5*tanh(2*x) + 0.3"),
         cubic_flux(radius=1.0), True, True),
    ],
    ids=["smooth", "pinned-jump", "fan", "sampled", "cubic-vreg",
         "cubic-freg"],
)


@CASES_1D
def test_the_1d_bound_bounds_the_skipped_pass(
    evaluations, mode, data, flux, functional, fired
):
    u0 = sample(data, -2.0, 2.0, 0.01)
    solve(mode, u0, 0.1, 0.3, SolverConfig(), data=data if functional
          else None, flux=flux)
    assert_bounded(evaluations, fired)


@pytest.mark.parametrize("y_dependent", [False, True])
def test_the_2d_bound_bounds_the_skipped_pass(evaluations, y_dependent):
    # criterion 13's data, and data that vary along y and flow along it:
    # there the feet are off the node rows and cross cell edges
    if y_dependent:
        u0 = sample_2d(
            lambda X, Y: -np.tanh(X) * (1.0 + 0.3 * np.cos(5.0 * Y)),
            -2.0, 2.0, 0.0, 0.4, 0.04, 0.02,
        )
        fluxes = (burgers_flux(radius=1.5), burgers_flux(radius=1.5))
    else:
        u0 = sample_2d(
            lambda X, Y: -np.tanh(X) + 0.0 * Y, -3.0, 3.0, 0.0, 0.2, 0.02,
            0.02,
        )
        fluxes = (burgers_flux(radius=1.5), zero_flux(radius=1.5))
    solve_velocity_reg_2d(u0, fluxes, 0.1, 0.2, SolverConfig())
    assert_bounded(evaluations, True)


def test_the_2d_bound_on_y_independent_data_is_the_1d_bound(evaluations):
    # criterion 13 compares the two solves to 1e-10, so they must end the
    # same steps early: on each row the 2D bound is the 1D one, on
    # velocities that agree to roundoff (the 2D solve mollifies along y
    # too)
    dx = 0.01
    u0 = sample(lambda x: -np.tanh(x), -3.0, 3.0, dx)
    one = solve("nn", u0, 0.1, 0.2, SolverConfig())
    bounds_1d = [b for _, b, _ in evaluations]
    evaluations.clear()
    u0_2d = sample_2d(
        lambda X, Y: -np.tanh(X) + 0.0 * Y, -3.0, 3.0, 0.0, 0.2, dx, dx
    )
    two = solve_velocity_reg_2d(
        u0_2d, (burgers_flux(radius=1.5), zero_flux(radius=1.5)), 0.1, 0.2,
        SolverConfig(),
    )
    bounds_2d = [b for _, b, _ in evaluations]
    assert np.array_equal(one.picard_counts, two.picard_counts)
    assert (one.picard_counts < 3).sum() > 10
    np.testing.assert_allclose(bounds_2d, bounds_1d, rtol=1e-9, atol=1e-15)


def tight_1d_case(case):
    """(foot, phi, feet, a, v, h) on 21 nodes of spacing 0.05 where one
    foot's change nearly meets the bound.  "off-grid": phi has slope 1/2,
    so L = 1, the slope of the unit extension that the foot of node 1
    moves on; a falls linearly (h Lip(a) = 1) and v = a + delta, so that
    foot moves by h delta (1 + h Lip/4) exactly.  "steep-cell": phi steps
    by 1 across one cell and is flat elsewhere; the constant a puts the
    foot of node 12 mid-cell, where the clipped cubic's slope is 13/12 of
    the step over dx."""
    x0, dx, n, h, delta = 0.0, 0.05, 21, 0.05, 1e-6
    x = x0 + dx * np.arange(n)
    if case == "off-grid":
        phi, a = 0.5 * x, 2.5 - 20.0 * x
    else:
        phi, a = np.where(np.arange(n) <= 10, 0.0, 1.0), np.full(n, 1.5)
    foot = _foot_1d(GridFunction1D(x0, dx, np.zeros(n)), None)
    a = a[np.newaxis]
    feet = foot.stencil(_trace(foot, a, h, 0, n))
    return foot, phi[np.newaxis], feet, a, a + delta, h


@pytest.mark.parametrize(
    "case, least", [("off-grid", 0.99), ("steep-cell", 0.6)]
)
def test_the_bound_is_nearly_met(case, least):
    # each constant of the bound is needed: without the (1 + h Lip/4)
    # factor the off-grid foot exceeds it, and with 1 in place of
    # CUBIC_SLOPE the mid-cell one does
    foot, phi, feet, a, v, h = tight_1d_case(case)
    change, bound = change_and_bound(foot, phi, feet, a, v, h, (0, 21))
    assert least * bound < change <= bound


def test_the_2d_bound_holds_where_a_clip_box_jumps():
    # the foot of node (3, 2) sits just left of the edge x = 2, half way
    # between rows 2 and 3, and v moves it just right of that edge.  On
    # the column x = 2 the y cubic of (-1, 0, 0, -1) overshoots the
    # values 0 of rows 2 and 3 by 1/8; the clip box left of the edge
    # holds it and the one right of it does not, so phi jumps by 1/8
    # however small the move
    nodes = np.arange(6.0)
    phi_x = np.zeros((6, 6))
    phi_x[1:5, 2] = (-1.0, 0.0, 0.0, -1.0)
    phi_x[2:4, 1] = 1.0
    u0 = GridFunction2D(0.0, 0.0, 1.0, 1.0, np.zeros((6, 6)))
    foot = _foot_2d(u0)
    phi = np.stack((phi_x, np.broadcast_to(nodes[:, np.newaxis], (6, 6))))
    a = np.stack((np.full((6, 6), 1.0 + 1e-9), np.full((6, 6), -0.5)))
    v = a.copy()
    v[0] -= 2e-9
    feet = foot.stencil(_trace(foot, a, 1.0, 0, 6))
    change, bound = change_and_bound(foot, phi, feet, a, v, 1.0, (0, 6))
    assert change == pytest.approx(0.125, rel=1e-6)
    assert change <= bound < 1.0
