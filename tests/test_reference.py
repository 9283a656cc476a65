"""Entropy references: closed form, variational, finite volume, tracking."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw.acceptance import _neg_tanh
from nlclaw.expressions import parse_expression
from nlclaw.fluxes import FluxSpec, burgers_flux, cubic_flux
from nlclaw.grids import (
    GridFunction1D,
    RiemannData,
    l1_distance,
    sample,
    total_variation,
)
from nlclaw.reference import (
    GODUNOV_CFL,
    NonConvexFluxError,
    _sonic_point,
    burgers_riemann_exact,
    front_tracking_solve,
    godunov_solve,
    lax_oleinik_solve,
)
from nlclaw.solver import (
    SPEED_PROBES,
    SUP_FLOOR,
    check_node_steps,
    speed_bound,
    step_times,
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


def reference_lax_oleinik(u0: GridFunction1D, t: float) -> GridFunction1D:
    """The Lax-Oleinik search one node at a time, as lax_oleinik_solve
    ran it before it searched one recursion level at a time: a stack of
    (ilo, ihi, jlo, jhi) intervals, one np.argmin per midpoint."""
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


def bits(a):
    return np.asarray(a).view(np.uint64)


def assert_lax_oleinik_is_the_reference(u0, t):
    """Bitwise the same values, or the same ValueError: an objective that
    overflows can send a minimiser far enough to make u(t) infinite."""
    try:
        want = reference_lax_oleinik(u0, t).values
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            lax_oleinik_solve(u0, t)
        return
    got = lax_oleinik_solve(u0, t).values
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def tanh_row(n, dx, a=0.9, k=1.1, s=0.05):
    """A sweep row of -a tanh(k (x - s)) on n nodes centred on 0."""
    half = 0.5 * (n - 1) * dx
    u0 = sample(lambda x: -a * np.tanh(k * (x - s)), -half, half, dx)
    assert u0.values.size == n
    return u0


# the node counts and spacings of smooth sweep rows (eps 0.2, 0.1, 0.05)
SWEEP_ROWS = [
    (855, 0.01), (921, 0.01), (941, 0.01), (1367, 0.00625),
    (1455, 0.00625), (1457, 0.00625),
]


@pytest.mark.parametrize("n, dx", SWEEP_ROWS)
@pytest.mark.parametrize("t", [1e-3, 0.4312947468299836, 0.5856858381164344, 50.0])
def test_lax_oleinik_on_a_sweep_row_is_the_node_by_node_search(n, dx, t):
    assert_lax_oleinik_is_the_reference(tanh_row(n, dx), t)


@pytest.mark.parametrize("datum", [
    RiemannData(1.0, 0.0), RiemannData(0.3, -0.8),  # shocks
    RiemannData(-1.0, 1.0), RiemannData(0.0, 0.5),  # fans
])
@pytest.mark.parametrize("t", [1e-4, 0.25, 1.0, 40.0])
def test_lax_oleinik_on_riemann_data_is_the_node_by_node_search(datum, t):
    assert_lax_oleinik_is_the_reference(sample(datum, -2.0, 2.0, 0.01), t)


@pytest.mark.parametrize("c", [0.0, -0.0, 0.5, -1.0, 3.0])
@pytest.mark.parametrize("t", [0.005, 0.01, 0.125, 1.0, 1e4])
def test_lax_oleinik_on_constant_data_is_the_node_by_node_search(c, t):
    # c * t a whole or half number of cells: objectives tie between nodes
    assert_lax_oleinik_is_the_reference(sample(c, -1.0, 1.0, 0.01), t)


@pytest.mark.parametrize("f", [
    lambda y: np.exp(-y * y), lambda y: np.cos(3.0 * y), np.tanh,
])
@pytest.mark.parametrize("parity", [1.0, -1.0])
@pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
def test_lax_oleinik_on_mirror_symmetric_data_is_the_node_by_node_search(
    f, parity, t
):
    # values at x and -x equal (parity 1) or opposite (parity -1)
    half = f(0.01 * np.arange(1, 201))
    mid = f(np.zeros(1)) if parity > 0 else np.zeros(1)
    values = np.concatenate([parity * half[::-1], mid, half])
    assert np.array_equal(values, parity * values[::-1])
    assert_lax_oleinik_is_the_reference(GridFunction1D(-2.0, 0.01, values), t)


@pytest.mark.parametrize("label, datum, window, T", [
    ("riemann_shock", RiemannData(1.0, 0.0), (-2.2, 2.8), 1.0),
    ("neg_tanh_post_shock", _neg_tanh, (-4.0, 4.0), 2.0),
])
def test_lax_oleinik_on_criterion_8_grids_is_the_node_by_node_search(
    label, datum, window, T
):
    pad = 1.0 * T + 0.5
    u0 = sample(datum, window[0] - pad, window[1] + pad, 1e-3)
    assert u0.values.size == {"riemann_shock": 8001}.get(label, 13001)
    assert_lax_oleinik_is_the_reference(u0, T)


@pytest.mark.parametrize("values", [
    [0.0, 0.0], [1.0, -1.0], [-1.0, 1.0], [0.5, 0.5, 0.5], [2.0, -3.0, 1.0],
    [-0.0, 0.0, -0.0],
])
@pytest.mark.parametrize("t", [1e-300, 0.3, 1.0, 1e300])
def test_lax_oleinik_on_two_and_three_nodes_is_the_node_by_node_search(
    values, t
):
    assert_lax_oleinik_is_the_reference(GridFunction1D(-0.5, 0.5, values), t)


# dx 1e152 with states of 1e157 sends U0 to -inf while (x_i - y)^2 / (2t)
# overflows, so some objectives are NaN and np.argmin picks the first NaN
NAN_VALUES = np.full(20, -1e157)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=hnp.arrays(
        np.float64, st.integers(2, 40),
        elements=st.one_of(
            st.floats(-2.0, 2.0),
            st.sampled_from([0.0, -0.0, 1e157, -1e157, 1e308, -1e308]),
        ),
    ),
    dx=st.sampled_from([1e-3, 0.01, 1.0, 1e152]),
    t=st.sampled_from([1e-300, 1e-3, 0.5, 2.0, 1e300]),
)
@example(values=NAN_VALUES, dx=1e152, t=1e-3)
def test_lax_oleinik_on_random_data_is_the_node_by_node_search(values, dx, t):
    with np.errstate(over="ignore", invalid="ignore"):
        assert_lax_oleinik_is_the_reference(
            GridFunction1D(-1.0, dx, values), t
        )


def test_a_nan_objective_picks_the_first_nan_as_np_argmin():
    u0, t = GridFunction1D(-1.0, 1e152, NAN_VALUES), 1e-3
    with np.errstate(over="ignore", invalid="ignore"):
        U0 = np.concatenate([[0.0], np.cumsum(u0.values[:-1]) * u0.dx])
        # the first midpoint, node 9, searches every node
        first = U0 + (u0.x[9] - u0.x) ** 2 * (1.0 / (2.0 * t))
        # the first NaN, not the smallest number (-inf at node 4)
        assert np.argmin(first) == 1 and np.nanargmin(first) == 4
        got = lax_oleinik_solve(u0, t).values
        assert_lax_oleinik_is_the_reference(u0, t)
    assert got[9] == (u0.x[9] - u0.x[1]) / t


def lax_oleinik_calls(u0, t):
    """The Python and C calls (sys.setprofile) of one warm oracle call."""
    lax_oleinik_solve(u0, t)
    calls = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        lax_oleinik_solve(u0, t)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_lax_oleinik_makes_few_calls():
    # one recursion level per loop pass: the count grows like log2 n (11
    # levels at 1,367 nodes, 14 at 8,541), not like n (one np.argmin per
    # node made 12,326 and 76,892 calls)
    small = lax_oleinik_calls(tanh_row(1367, 0.00625), 0.5)
    large = lax_oleinik_calls(tanh_row(8541, 0.00625 / 4.0), 0.5)
    assert small <= 122
    assert large <= 149
    assert large - small <= 3 * 9  # three more levels of nine calls


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


def reference_godunov(u0: GridFunction1D, flux: FluxSpec, T: float):
    """godunov_solve as it ran before each step evaluated f once per node:
    f at both sides of every face, the sonic clip at every face, one
    np.where between the two rules, and two concatenated copies of the
    face fluxes."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    lo, hi = float(np.min(u0.values)), float(np.max(u0.values))
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
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

    def interface_flux(ul, ur):
        f_ul = flux.f(ul)
        f_ur = flux.f(ur)
        shock = np.maximum(f_ul, f_ur)               # ul > ur
        rare = flux.f(np.clip(omega, ul, ur))        # ul <= ur
        return np.where(ul > ur, shock, rare)

    for _, _, _, h in step_times(T, dt):
        F = interface_flux(vals[:-1], vals[1:])
        F_left = np.concatenate([[float(flux.f(vals[0]))], F])
        F_right = np.concatenate([F, [float(flux.f(vals[-1]))]])
        vals = vals - (h / dx) * (F_right - F_left)
    return u0.with_values(vals)


def assert_godunov_is_the_reference(u0, flux, T):
    """Bitwise the same values, or the same error."""
    try:
        want = reference_godunov(u0, flux, T).values
    except ValueError as e:
        with pytest.raises(type(e), match=str(e)):
            godunov_solve(u0, flux, T)
        return
    got = godunov_solve(u0, flux, T).values
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


# f = exp(x) - 2x as the runner reads an expression flux: convex, with a
# sonic point at ln 2, and a transcendental f evaluated once per node
# rather than once per face side
EXP_FLUX = FluxSpec(
    parse_expression("exp(x) - 2*x"), parse_expression("exp(x) - 2"),
    radius=3.0,
)

@pytest.mark.parametrize("datum, window, T", [
    (RiemannData(1.0, 0.0), (-2.2, 2.8), 1.0),
    (_neg_tanh, (-4.0, 4.0), 2.0),
], ids=["riemann_shock", "neg_tanh_post_shock"])
def test_godunov_on_criterion_8_grids_is_the_per_face_rule(datum, window, T):
    pad = 1.0 * T + 0.5
    u0 = sample(datum, window[0] - pad, window[1] + pad, 1e-3)
    assert_godunov_is_the_reference(u0, burgers_flux(radius=1.5), T)


@pytest.mark.parametrize("datum", [
    RiemannData(-1.0, 1.0),  # a fan through the sonic point 0
    RiemannData(1.0, -1.0),  # a standing shock
    RiemannData(0.2, 0.9),   # a fan right of the sonic point
    RiemannData(-0.9, -0.2),  # a fan left of it
])
@pytest.mark.parametrize("T", [0.05, 0.5])
def test_godunov_on_burgers_riemann_data_is_the_per_face_rule(datum, T):
    u0 = sample(datum, -1.5, 1.5, 0.01)
    assert_godunov_is_the_reference(u0, burgers_flux(1.0), T)


@pytest.mark.parametrize("datum", [
    RiemannData(0.2, 1.8),
    lambda x: 1.0 + 0.8 * np.sin(3.0 * x),
])
def test_godunov_with_the_cubic_flux_and_fans_is_the_per_face_rule(datum):
    # u^3/3 is convex on [0, 2], the range of both data
    u0 = sample(datum, -2.0, 2.0, 0.01)
    assert_godunov_is_the_reference(u0, cubic_flux(radius=2.0), 0.3)


@pytest.mark.parametrize("datum", [
    RiemannData(-0.5, 1.5), RiemannData(1.5, -0.5),
    lambda x: np.sin(4.0 * x) + 0.3 * np.cos(11.0 * x),
])
def test_godunov_with_an_exp_expression_flux_is_the_per_face_rule(datum):
    u0 = sample(datum, -1.5, 1.5, 0.01)
    assert_godunov_is_the_reference(u0, EXP_FLUX, 0.4)


# values with 0.0/-0.0 neighbours and equal neighbours; across 0 the
# Burgers sonic point is omega = 0, and the cubic flux is convex on the
# range of the second row
SIGNED_ZEROS = {
    "burgers": [
        0.0, -0.0, -0.0, 0.0, 0.0, 0.5, 0.5, -0.3, -0.3, -0.0, -0.0, 0.0,
        0.7, -0.0, 0.0, 0.0, -0.2, 0.0, -0.0,
    ],
    "cubic": [
        0.0, -0.0, -0.0, 0.0, 0.5, 0.5, 0.3, 0.3, -0.0, 0.0, 0.7, -0.0,
        0.0, 0.2, 0.0, -0.0,
    ],
}


# Burgers with f(-0.0) = -0.0: the sonic clip of omega = 0.0 at a fan
# face from -0.3 to -0.0 ties with the right state, and which zero it
# keeps shows in the next -0.0 cell
SIGNED_FLUX = FluxSpec(
    f=lambda u: np.where(u == 0.0, u, 0.5 * u * u), fprime=lambda u: u,
)


@pytest.mark.parametrize("name, flux", [
    ("burgers", burgers_flux(1.0)), ("burgers", SIGNED_FLUX),
    ("cubic", cubic_flux(radius=2.0)),
], ids=["burgers", "signed", "cubic"])
@pytest.mark.parametrize("T", [0.01, 0.2])
def test_godunov_on_signed_zeros_and_equal_neighbours_is_the_per_face_rule(
    name, flux, T
):
    for values in (SIGNED_ZEROS[name], SIGNED_ZEROS[name][::-1]):
        u0 = GridFunction1D(-0.5, 0.05, np.array(values))
        assert_godunov_is_the_reference(u0, flux, T)


@pytest.mark.parametrize("c", [0.4, 0.0, -0.0, -1.0])
@pytest.mark.parametrize("flux", [burgers_flux(1.0), EXP_FLUX],
                         ids=["burgers", "exp"])
def test_godunov_on_constant_data_is_the_per_face_rule(c, flux):
    # hi - lo < 1e-12: the range is probed on [c - 0.5, c + 0.5]
    u0 = sample(c, -1.0, 1.0, 0.01)
    assert_godunov_is_the_reference(u0, flux, 0.3)


@pytest.mark.parametrize("values", [
    [1.0, -1.0], [-1.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [0.5, 0.5],
])
@pytest.mark.parametrize("T", [1e-9, 0.3])
def test_godunov_on_two_nodes_is_the_per_face_rule(values, T):
    u0 = GridFunction1D(-0.5, 1.0, np.array(values))
    assert_godunov_is_the_reference(u0, burgers_flux(1.0), T)


def test_godunov_below_one_step_is_the_per_face_rule():
    u0 = sample(RiemannData(-1.0, 1.0), -1.0, 1.0, 0.01)
    # dt is 0.9 dx: T below it takes one partial step
    assert_godunov_is_the_reference(u0, burgers_flux(1.0), 1e-4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=hnp.arrays(
        np.float64, st.integers(2, 40),
        elements=st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 0.5, -0.5]),
        ),
    ),
    dx=st.sampled_from([1e-3, 0.01, 0.3]),
    T=st.sampled_from([1e-6, 0.05, 0.7]),
    name=st.sampled_from(["burgers", "cubic", "exp"]),
)
def test_godunov_on_random_data_is_the_per_face_rule(values, dx, T, name):
    # the cubic flux is rejected on data below 0: the same error
    flux = {
        "burgers": burgers_flux(2.0), "cubic": cubic_flux(radius=2.0),
        "exp": EXP_FLUX,
    }[name]
    assert_godunov_is_the_reference(GridFunction1D(-1.0, dx, values), flux, T)


def godunov_work(u0, T):
    """The steps of one warm godunov_solve of Burgers data, the points it
    passes to f, and its Python and C calls (sys.setprofile)."""
    burgers = burgers_flux(radius=1.5)
    sizes = []

    def f(u):
        sizes.append(np.size(u))
        return burgers.f(u)

    counting = FluxSpec(f, burgers.fprime, radius=1.5)
    sizes.clear()  # the spot-check's points
    godunov_solve(u0, counting, T)
    steps = sizes.count(u0.values.size)  # fv = f(vals), once per step
    calls = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    godunov_solve(u0, burgers, T)
    sys.setprofile(profile)
    try:
        godunov_solve(u0, burgers, T)
    finally:
        sys.setprofile(None)
    return steps, sum(sizes), calls[0]


def test_godunov_step_makes_few_calls():
    # criterion 8's -tanh grid.  f once per node and at the two ends, the
    # sonic clip only at fan faces, of which this non-increasing datum
    # has none: n + 2 points of f and 5 calls per step, where f at both
    # sides of every face and the clip at every face took 3 (n - 1) + 2
    # points and 20 calls
    u0 = sample(_neg_tanh, -6.5, 6.5, 1e-3)
    n = u0.values.size
    assert n == 13001
    steps, points, calls = godunov_work(u0, 2.0)
    assert steps > 2000
    assert points == steps * (n + 2)
    half_steps, _, half_calls = godunov_work(u0, 1.0)
    assert calls - half_calls <= 5 * (steps - half_steps)


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
