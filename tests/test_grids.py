"""Grid functions, sampling, norms, interpolation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw.expressions import parse_expression
from nlclaw.grids import (
    GridFunction1D,
    GridMismatchError,
    PiecewiseInitialData,
    RiemannData,
    interpolate_at,
    interpolate_values,
    l1_distance,
    sample,
    sup_norm,
    total_variation,
)


def test_riemann_sample_coarse():
    u = sample(RiemannData(1.0, 0.0), -2.0, 2.0, 0.5)
    np.testing.assert_array_equal(u.values, [1, 1, 1, 1, 1, 0, 0, 0, 0])


def test_constant_sample():
    u = sample(3.0, -1.0, 1.0, 0.1)
    np.testing.assert_array_equal(u.values, np.full(21, 3.0))


def test_tanh_sup_norm():
    # sup of -tanh on [-10, 10] is tanh(10), evaluated directly.
    u = sample(lambda x: -np.tanh(x), -10.0, 10.0, 1e-3)
    assert sup_norm(u) == pytest.approx(0.9999999958776927, abs=1e-15)


def test_piecewise_left_continuity():
    data = PiecewiseInitialData(
        breakpoints=(0.0,),
        pieces=(lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
        lipschitz_C=0.0,
    )
    # at the breakpoint the left piece wins
    assert data(0.0)[0] == 1.0
    assert data(1e-12)[0] == 0.0
    assert data(-1e-12)[0] == 1.0


def test_piecewise_needs_resolved_breakpoints():
    data = PiecewiseInitialData(
        breakpoints=(0.0, 0.01),
        pieces=(lambda x: x, lambda x: x, lambda x: x),
        lipschitz_C=1.0,
    )
    with pytest.raises(ValueError):
        sample(data, -1.0, 1.0, 0.005)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseInitialData((1.0, 0.0), (None, None, None))
    with pytest.raises(ValueError):
        PiecewiseInitialData((0.0,), (None,))


def reference_piecewise(data, x):
    """A PiecewiseInitialData evaluated by one boolean mask per piece, the
    rule it used for every input before sorted points were cut into
    contiguous slices; the oracle of both rules."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.searchsorted(np.asarray(data.breakpoints), x, side="left")
    out = np.empty_like(x)
    for k, piece in enumerate(data.pieces):
        mask = idx == k
        if np.any(mask):
            out[mask] = np.asarray(piece(x[mask]), dtype=float)
    return out


PIECEWISE_DATA = {
    "lambdas": PiecewiseInitialData(
        (-2.0, -1.0, 0.0, 1.0, 2.0),
        (
            lambda x: np.zeros_like(x),
            lambda x: x + 2.0,
            lambda x: 1.0,  # a constant piece: a scalar broadcast
            lambda x: -1.0 + 0.0 * x,
            lambda x: (x - 2.0) / 3.0,
            lambda x: np.tanh(2.0 * x),
        ),
        lipschitz_C=1.0,
    ),
    "expressions": PiecewiseInitialData(
        (-0.5, 0.75),
        (
            parse_expression("-tanh(3*(x + 1.3))"),
            parse_expression("exp(-x^2) - 0.25"),
            parse_expression("0.4*tanh(x - 2) + exp(0.1*x)"),
        ),
    ),
}


def _piecewise_inputs():
    bps = [-2.0, -1.0, -0.5, 0.0, 0.75, 1.0, 2.0]
    sorted_x = np.linspace(-3.0, 3.0, 601) + 0.0037  # off the breakpoints
    exact = np.sort(
        bps + [np.nextafter(b, s) for b in bps for s in (-np.inf, np.inf)]
        + [-0.0, 0.0, -0.0, -3.0, -3.0, 3.0]
    )
    shuffled = np.random.default_rng(26).permutation(sorted_x)
    with_nan = sorted_x.copy()
    with_nan[300] = np.nan
    return {
        "sorted": sorted_x,
        "sorted_from_zero": np.linspace(0.0, 3.0, 301),
        "reversed": sorted_x[::-1],
        "shuffled": shuffled,
        "breakpoint_exact": exact,
        "nan_inside": with_nan,
        "nan_first": np.concatenate([[np.nan], sorted_x]),
        "nan_last": np.concatenate([sorted_x, [np.nan]]),
        "nan_alone": np.array([np.nan]),
        "infinite": np.array([-np.inf, -1.0, 0.0, np.inf]),
        "empty": np.array([]),
        "one_point": np.array([0.5]),
        "one_breakpoint": np.array([-1.0]),
        "python_float": 0.75,
        "list": [-2.5, -1.5, 1.5, 2.5],
        "rank_2": sorted_x[:600].reshape(20, 30),
    }


PIECEWISE_INPUTS = _piecewise_inputs()


@pytest.mark.parametrize("points", sorted(PIECEWISE_INPUTS))
@pytest.mark.parametrize("datum", sorted(PIECEWISE_DATA))
def test_piecewise_is_bitwise_the_mask_rule(datum, points):
    data, x = PIECEWISE_DATA[datum], PIECEWISE_INPUTS[points]
    want = reference_piecewise(data, x)
    got = data(x)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("points", sorted(PIECEWISE_INPUTS))
def test_piecewise_calls_each_piece_on_its_points_only(points):
    # a piece with no points is not called, and each gets its points in
    # their order, whichever rule serves the input
    x = PIECEWISE_INPUTS[points]

    def recording(calls):
        def piece(k):
            return lambda y: calls.append((k, np.array(y))) or y * (k + 1.0)
        return PiecewiseInitialData((-1.0, 0.0, 1.0), [piece(k) for k in range(4)])

    got, want = [], []
    recording(got)(x)
    reference_piecewise(recording(want), x)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_tv_step_and_constant():
    step = sample(RiemannData(1.0, 0.0), -2.0, 2.0, 0.01)
    assert total_variation(step) == pytest.approx(1.0, abs=1e-14)
    const = sample(2.5, -2.0, 2.0, 0.01)
    assert total_variation(const) == 0.0


def test_tv_sine_full_period():
    # one full period of sin has variation 4; the grid must tile the period
    # exactly or the last partial arc bites off O(dx) of it.
    n = 6284
    dx = 2.0 * np.pi / (n - 1)
    u = sample(np.sin, 0.0, 2.0 * np.pi, dx)
    assert u.n == n
    assert total_variation(u) == pytest.approx(4.0, abs=1e-5)


def test_tv_sawtooth_additive_over_monotone_runs():
    # 5 teeth rising 0 -> 0.9, each followed by a drop back to 0;
    # TV adds up over the monotone runs
    x0, dx = 0.0, 0.1
    vals = []
    for k in range(5):
        vals.extend(np.linspace(0, 1, 11)[:-1])
    u = GridFunction1D(x0, dx, np.array(vals + [0.0]))
    assert total_variation(u) == pytest.approx(5 * 0.9 + 5 * 0.9, abs=1e-12)


def test_sup_norm_step():
    u = sample(RiemannData(1.0, 0.0), -2.0, 2.0, 0.1)
    assert sup_norm(u) == 1.0


def test_l1_distance_basic():
    u = sample(RiemannData(1.0, 0.0), -2.0, 2.0, 0.01)
    v = sample(0.0, -2.0, 2.0, 0.01)
    assert l1_distance(u, u) == 0.0
    # mass of the left half-interval, inclusive node count gives +- dx
    assert abs(l1_distance(u, v) - 2.0) <= 0.01 + 1e-12
    w = sample(0.0, -2.0, 2.0, 0.02)
    with pytest.raises(GridMismatchError):
        l1_distance(u, w)


def test_l1_distance_window():
    u = sample(1.0, -4.0, 4.0, 0.01)
    v = sample(0.0, -4.0, 4.0, 0.01)
    d = l1_distance(u, v, window=(-1.0, 1.0))
    assert d == pytest.approx(2.0, abs=0.011)


def test_interpolate_nodes_and_midpoint():
    got = interpolate_values(np.array([0.0, 1.0, 0.5]), 0.0, 1.0,
                             np.array([1.0, 0.5, 1.5]))
    assert got.tolist() == [1.0, 0.5, 0.75]


def test_interpolate_constant_extension():
    got = interpolate_values(np.array([2.0, 3.0, 4.0]), 0.0, 1.0,
                             np.array([-5.0, 99.0]))
    assert got.tolist() == [2.0, 4.0]


def test_interpolate_never_overshoots():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vals = rng.normal(size=37)
        xq = rng.uniform(-3.0, 3.0, size=500)
        got = interpolate_values(vals, -1.3, 0.07, xq)
        assert np.all(got >= vals.min() - 0.0)
        assert np.all(got <= vals.max() + 0.0)


def test_interpolate_vector_matches_scalar():
    vals = np.array([0.0, 2.0, -1.0, 5.0])
    xs = np.array([-0.1, 0.0, 0.1, 0.3, 0.62, 0.75, 1.0])
    vec = interpolate_values(vals, 0.0, 0.25, xs)
    for xi, vi in zip(xs, vec):
        assert interpolate_values(vals, 0.0, 0.25, np.array([xi]))[0] == vi


# signed zeros, the smallest subnormal, and a pair whose difference
# overflows (theta = 0 against an infinite slope gives a NaN)
_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1 / 3, 1e308, -1e308)


@st.composite
def _interp_cases(draw):
    """values with repeats and edge entries, and an xq below x0, on a node,
    between nodes or past the last node, or a signed zero."""
    values = draw(hnp.arrays(
        np.float64, st.integers(2, 6),
        elements=st.one_of(
            st.sampled_from(_EDGE_VALUES), st.floats(-10.0, 10.0)
        ),
    ))
    n = values.size
    x0 = draw(st.sampled_from([0.0, -0.0, -1.3, 0.5]))
    dx = draw(st.sampled_from([1.0, 0.07, 0.25]))
    xq = draw(st.one_of(
        st.sampled_from([0.0, -0.0, x0, x0 + (n - 1) * dx]),
        st.builds(
            lambda k, f: x0 + (k + f) * dx,
            st.integers(-2, n + 1), st.floats(0.0, 1.0),
        ),
    ))
    return values, x0, dx, xq


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_interp_cases())
@example(case=(np.array([-1e308, 1e308]), 0.0, 1.0, 0.0))  # the NaN
@example(case=(np.array([-0.0, -0.0]), 0.0, 1.0, -0.0))  # pos = -0.0
def test_interpolate_at_is_bitwise_interpolate_values(case):
    values, x0, dx, xq = case
    with np.errstate(over="ignore", invalid="ignore"):
        want = interpolate_values(values, x0, dx, np.array([xq]))
    got = interpolate_at(values, x0, dx, xq)
    assert type(got) is float
    assert np.array([got]).view(np.uint64) == want.view(np.uint64)


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction1D(0.0, -0.1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GridFunction1D(0.0, 0.1, np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction1D(0.0, 0.1, np.array([1.0, np.nan]))


def test_window_slice_endpoints():
    u = sample(0.0, -2.0, 2.0, 0.5)
    sl = u.window_slice(-1.0, 1.0)
    x = u.x[sl]
    assert x[0] == -1.0 and x[-1] == 1.0
