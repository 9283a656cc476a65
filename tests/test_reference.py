"""Entropy references: closed form, variational, finite volume, tracking."""

import numpy as np
import pytest

from nlclaw.fluxes import FluxSpec, burgers_flux, cubic_flux
from nlclaw.grids import (
    GridFunction1D,
    RiemannData,
    l1_distance,
    sample,
    total_variation,
)
from nlclaw.reference import (
    NonConvexFluxError,
    _sonic_point,
    burgers_riemann_exact,
    front_tracking_solve,
    godunov_solve,
    lax_oleinik_solve,
)


def test_riemann_exact_shock():
    d = RiemannData(1.0, 0.0)
    assert burgers_riemann_exact(d, 0.49) == 1.0
    assert burgers_riemann_exact(d, 0.51) == 0.0


def test_riemann_exact_fan():
    d = RiemannData(-1.0, 1.0)
    assert burgers_riemann_exact(d, 0.0) == 0.0
    assert burgers_riemann_exact(d, -2.0) == -1.0
    assert burgers_riemann_exact(d, 0.3) == 0.3


def test_riemann_exact_constant():
    assert burgers_riemann_exact(RiemannData(0.3, 0.3), 5.0) == 0.3


def test_lax_oleinik_constant_interior():
    # c*t = 0.5 is a whole number of cells, so the interior minimiser is a
    # grid node and the constant is recovered to roundoff; nodes within
    # c*t of the left edge have no admissible minimiser on the grid.
    u0 = sample(0.5, -4.0, 4.0, 0.01)
    out = lax_oleinik_solve(u0, 1.0)
    sl = out.window_slice(-3.4, 4.0)
    assert np.max(np.abs(out.values[sl] - 0.5)) <= 1e-10


def test_lax_oleinik_matches_exact_shock():
    d = RiemannData(1.0, 0.0)
    u0 = sample(d, -4.0, 4.0, 1e-3)
    out = lax_oleinik_solve(u0, 1.0)
    exact = u0.with_values(burgers_riemann_exact(d, u0.x / 1.0))
    # disagreement confined to the shock cell (tie at the crossing node
    # resolves to the left state, the closed form to the right state)
    assert l1_distance(out, exact, window=(-2.0, 2.0)) <= 2e-3 + 1e-9
    sl = out.window_slice(-2.0, 2.0)
    off = np.abs(out.values[sl] - exact.values[sl])
    assert np.count_nonzero(off > 1e-12) <= 2


def test_lax_oleinik_rarefaction_fan():
    u0 = sample(RiemannData(-1.0, 1.0), -4.0, 4.0, 1e-3)
    out = lax_oleinik_solve(u0, 1.0)
    fan = u0.with_values(np.clip(u0.x, -1.0, 1.0))
    assert l1_distance(out, fan, window=(-2.0, 2.0)) <= 5e-3


def test_lax_oleinik_oleinik_bound():
    u0 = sample(lambda x: -np.tanh(x), -6.0, 6.0, 1e-3)
    for t in (0.5, 2.0):
        out = lax_oleinik_solve(u0, t)
        fd = np.diff(out.values) / u0.dx
        assert fd.max() <= 1.0 / t + u0.dx


def test_lax_oleinik_rejects_bad_time():
    u0 = sample(0.0, -1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        lax_oleinik_solve(u0, 0.0)


def test_godunov_constant():
    u0 = sample(0.4, -1.0, 1.0, 0.01)
    out = godunov_solve(u0, burgers_flux(1.0), 0.5)
    assert np.max(np.abs(out.values - 0.4)) <= 1e-12


def test_godunov_shock_speed():
    u0 = sample(RiemannData(1.0, 0.0), -3.0, 3.0, 2e-3)
    out = godunov_solve(u0, burgers_flux(1.0), 1.0)
    xf = np.interp(-0.5, -out.values, out.x)
    assert xf == pytest.approx(0.5, rel=0.02)


def test_godunov_max_principle_and_tv():
    rng = np.random.default_rng(9)
    vals = np.repeat(rng.uniform(-1, 1, size=6), 30)
    u0 = sample(0.0, -2.0, 2.0, 4.0 / (vals.size - 1)).with_values(vals)
    tv0 = total_variation(u0)
    for T in (0.1, 0.2, 0.3, 0.4, 0.5):
        s = godunov_solve(u0, burgers_flux(1.0), T)
        assert s.values.min() >= u0.values.min() - 1e-12
        assert s.values.max() <= u0.values.max() + 1e-12
        assert total_variation(s) <= tv0 + 1e-10


def test_godunov_rejects_nonconvex_on_range():
    # cubic fprime u^2 is not monotone on [-2, 2]: f'' changes sign
    u0 = sample(RiemannData(2.0, -2.0), -2.0, 2.0, 0.01)
    with pytest.raises(NonConvexFluxError):
        godunov_solve(u0, cubic_flux(radius=2.0), 0.1)
    # on [0, 2] the cubic flux is convex and accepted
    u0 = sample(RiemannData(2.0, 0.0), -2.0, 2.0, 0.01)
    godunov_solve(u0, cubic_flux(radius=2.0), 0.05)


def test_godunov_cubic_shock_speed_is_rankine_hugoniot():
    # entropy solution moves at (f(2)-f(0))/2 = 4/3, unlike the nonlocal
    # regularisations of the same flux
    u0 = sample(RiemannData(2.0, 0.0), -2.0, 4.0, 2e-3)
    out = godunov_solve(u0, cubic_flux(radius=2.0), 1.0)
    xf = np.interp(-1.0, -out.values, out.x)
    assert xf == pytest.approx(4.0 / 3.0, rel=0.02)


SONIC_FLUXES = {
    "burgers": burgers_flux(3.0),
    "exp": FluxSpec(
        f=lambda u: np.exp(u) - 2.0 * u,
        fprime=lambda u: np.exp(u) - 2.0,
        radius=3.0,
    ),
    "quartic": FluxSpec(
        f=lambda u: 0.25 * u**4 - u,
        fprime=lambda u: u**3 - 1.0,
        radius=3.0,
    ),
    # f' is u below 0.0 and u + 1e-300 from 0.0 on: a sign change, no zero
    "kink": FluxSpec(
        f=lambda u: 0.5 * u * u + 1e-300 * np.maximum(u, 0.0),
        fprime=lambda u: u + np.where(u < 0.0, 0.0, 1e-300),
        radius=3.0,
    ),
}


def assert_at_sign_change(flux, lo, hi, u):
    """u is lo or hi on an early return, else where f' changes sign."""
    slope = lambda v: float(np.asarray(flux.fprime(v)))
    if slope(lo) >= 0.0:
        assert u == lo
    elif slope(hi) <= 0.0:
        assert u == hi
    else:
        assert lo <= u <= hi
        d = slope(u)
        if d < 0.0:
            assert slope(np.nextafter(u, np.inf)) > 0.0
        elif d > 0.0:
            assert slope(np.nextafter(u, -np.inf)) < 0.0
        else:
            assert d == 0.0


@pytest.mark.parametrize("name", sorted(SONIC_FLUXES))
def test_sonic_point_sits_at_the_sign_change_of_fprime(name):
    flux = SONIC_FLUXES[name]
    rng = np.random.default_rng(5)
    brackets = np.sort(rng.uniform(-3.0, 3.0, size=(300, 2)), axis=1)
    for lo, hi in [*brackets.tolist(), (-3.0, 3.0), (-1.0, 0.7)]:
        assert_at_sign_change(flux, lo, hi, _sonic_point(flux, lo, hi))


def test_sonic_point_early_returns():
    burgers = SONIC_FLUXES["burgers"]
    assert _sonic_point(burgers, 0.0, 1.0) == 0.0   # f'(lo) == 0
    assert _sonic_point(burgers, 0.5, 1.0) == 0.5
    assert _sonic_point(burgers, -1.0, 0.0) == 0.0  # f'(hi) == 0
    assert _sonic_point(burgers, -1.0, -0.5) == -0.5


BIG = float(np.finfo(float).max)


@pytest.mark.parametrize("name", ["burgers", "kink"])
@pytest.mark.parametrize(
    "lo, hi", [(-1.0, 0.7), (-BIG, 0.5 * BIG)], ids=["unit", "huge"]
)
def test_sonic_point_bracket_shrinks_onto_zero(name, lo, hi):
    # no early midpoint is 0.0, so the bracket closes onto it through the
    # subnormals; on the second bracket hi - lo would overflow to inf
    flux = SONIC_FLUXES[name]
    u = _sonic_point(flux, lo, hi)
    assert u == 0.0
    assert_at_sign_change(flux, lo, hi, u)


def _sides(sol, t, x):
    """u(t, .) at x and at the next float to its right."""
    return sol.evaluate(t, [x, np.nextafter(x, np.inf)]).tolist()


def _mergers(sol):
    """The fronts born at a collision, t_birth > 0, each with the two
    fronts that died there (t_death == its t_birth)."""
    return [
        (tr, [p for p in sol.tracks if p.t_death == tr.t_birth])
        for tr in sol.tracks if tr.t_birth > 0.0
    ]


def _mass(sol, t, a, b):
    """Exact integral of sol.evaluate(t, .) over [a, b]: the state is
    constant between the fronts alive at t, so one evaluation per piece."""
    cuts = sorted(
        min(max(tr.position(t), a), b)
        for tr in sol.tracks if tr.t_birth <= t < tr.t_death
    )
    edges = np.array([a, *cuts, b])
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(sol.evaluate(t, mids) * np.diff(edges)))


# front_tracking_solve puts a jump midway between unequal neighbours, so
# a grid with x0 = -0.5 and dx = 1 has its jumps at 0, 1, 2, ...
def test_front_tracking_single_shock():
    sol = front_tracking_solve(GridFunction1D(-0.5, 1.0, [1.0, 0.0]), 4.0)
    assert len(_mergers(sol)) == 0
    assert [tr.speed for tr in sol.tracks] == [0.5]
    for t in (0.0, 1.0, 4.0):
        # the left state holds up to the front at 0.5 t, the right one past it
        assert _sides(sol, t, 0.5 * t) == [1.0, 0.0]
        assert _sides(sol, t, 0.5 * t - 1e-9) == [1.0, 1.0]


def test_front_tracking_merge_arithmetic():
    sol = front_tracking_solve(
        GridFunction1D(-0.5, 1.0, [2.0, 1.0, 0.0]), 2.0
    )
    assert len(_mergers(sol)) == 1
    ((ev, _),) = _mergers(sol)
    assert ev.t_birth == pytest.approx(1.0, abs=1e-13)
    assert ev.x_birth == pytest.approx(1.5, abs=1e-13)
    assert (ev.uL, ev.uR) == (2.0, 0.0)
    merged = [tr for tr in sol.tracks if tr.t_birth == ev.t_birth]
    assert len(merged) == 1
    assert merged[0].speed == pytest.approx(1.0, abs=1e-14)
    # at t = 1.5 one front at 1.5 + 0.5 * 1.0 joins 2 to 0, and the middle
    # state 1 is gone
    assert _sides(sol, 1.5, merged[0].position(1.5)) == [2.0, 0.0]
    assert merged[0].position(1.5) == pytest.approx(2.0, abs=1e-13)
    assert set(sol.evaluate(1.5, np.linspace(-1.0, 3.0, 401)).tolist()) == {2.0, 0.0}


def test_front_tracking_tv_nonincreasing_at_interactions():
    rng = np.random.default_rng(17)
    levels = rng.uniform(-1, 1, size=12)
    # 11 jumps at random midpoints of a grid on [-2, 2]
    cells = rng.integers(1, 60, size=12)
    u0 = GridFunction1D(-2.0, 4.0 / cells.sum(), np.repeat(levels, cells))
    sol = front_tracking_solve(u0, 3.0)
    assert len(_mergers(sol)) > 0
    for ev, parents in _mergers(sol):
        assert len(parents) == 2
        # the merger joins the left one's left state to the right one's
        # right state
        left, right = sorted(parents, key=lambda p: p.uL != ev.uL)
        assert (left.uL, right.uR) == (ev.uL, ev.uR)
        tv_before = sum(abs(p.uR - p.uL) for p in parents)
        assert abs(ev.uR - ev.uL) <= tv_before + 1e-14


def test_front_tracking_mass_conserved():
    # compactly supported datum: zero states at both ends, zero boundary flux
    # jumps at -1, 0 and 1
    u0 = GridFunction1D(-1.5, 1.0, [0.0, 1.0, -1.0, 0.0])
    sol = front_tracking_solve(u0, 1.5)
    m0 = _mass(sol, 0.0, -6.0, 6.0)
    for t in (0.4, 0.9, 1.5):
        assert _mass(sol, t, -6.0, 6.0) == pytest.approx(m0, abs=1e-12)


def test_front_tracking_fan_matches_exact():
    u0 = sample(RiemannData(-1.0, 1.0), -3.0, 3.0, 0.01)
    sol = front_tracking_solve(u0, 1.0)
    got = sol.evaluate(1.0, u0.x)
    fan = np.clip(u0.x, -1.0, 1.0)
    assert np.max(np.abs(got - fan)) <= sol.delta + 0.011


def test_front_tracking_from_grid_function():
    u0 = sample(lambda x: -np.tanh(x), -3.0, 3.0, 0.01)
    sol = front_tracking_solve(u0, 1.5)
    v = sol.sample_on(u0, 1.5)
    lo = lax_oleinik_solve(u0, 1.5)
    assert l1_distance(v, lo, window=(-1.5, 1.5)) <= 0.02
