"""Mollifier construction and discrete convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from nlclaw.grids import sample, sup_norm, total_variation
from nlclaw.kernel import ResolutionError, build_mollifier, convolve_values

# Frozen oracle: the integral I of exp(-1/(1-x^2)) over (-1, 1).
NORMALIZATION_I = 0.44399381616807937


def test_normalization_constant():
    # adaptive quadrature, refined past the flat endpoints
    val, _ = quad(
        lambda x: float(np.exp(-1.0 / (1.0 - x * x))), -1.0, 1.0,
        epsabs=1e-14, epsrel=1e-12, limit=200,
    )
    assert val == pytest.approx(NORMALIZATION_I, abs=1e-8)


def test_weights_shape_and_mass():
    m = build_mollifier(0.1, 0.01)
    assert m.weights.size == 21
    assert m.radius == 10
    assert float(m.weights.sum()) == 1.0
    np.testing.assert_array_equal(m.weights, m.weights[::-1])
    assert np.all(m.weights >= 0.0)


def test_support_endpoint_weight_zero():
    # offsets with |k|*dx >= eps fall outside the open support of the bump
    m = build_mollifier(0.1, 0.01)
    assert m.weights[0] == 0.0
    assert m.weights[-1] == 0.0


def test_under_resolved_kernel_rejected():
    with pytest.raises(ResolutionError):
        build_mollifier(0.05, 0.1)


def test_exact_mass_many_shapes():
    for eps, dx in [(0.1, 0.01), (0.2, 1e-3), (0.0125, 1e-3), (1.0, 0.3), (0.1, 0.1)]:
        m = build_mollifier(eps, dx)
        assert float(m.weights.sum()) == 1.0, (eps, dx)
        np.testing.assert_array_equal(m.weights, m.weights[::-1])
        r = m.radius
        k = np.arange(-r, r + 1)
        assert np.all(m.weights[np.abs(k) * dx > eps] == 0.0)


# np.sum of the weights: 1.0 or one of its two float neighbours
UNIT_MASS = (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("eps, dx", [(0.07, 0.0025), (0.05, 1e-3)])
def test_mass_one_ulp_below_one(eps, dx):
    # five centre nudges do not reach 1.0 here; (0.05, 1e-3) is c1's second
    # kernel
    assert float(build_mollifier(eps, dx).weights.sum()) == UNIT_MASS[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    dx=st.floats(1e-4, 0.1),
    ratio=st.floats(1.0, 316.0),
)
def test_mass_is_one_to_within_one_float(dx, ratio):
    m = build_mollifier(ratio * dx, dx)
    assert float(m.weights.sum()) in UNIT_MASS
    np.testing.assert_array_equal(m.weights, m.weights[::-1])
    assert np.all(m.weights >= 0.0)


def test_convolve_constant():
    m = build_mollifier(0.1, 0.01)
    u = sample(0.7, -1.0, 1.0, 0.01)
    out = convolve_values(m, u.values)
    # unit mass up to a few ulps of dot-product rounding
    assert np.max(np.abs(out - 0.7)) <= 1e-14


def test_convolve_step_midpoint():
    m = build_mollifier(0.1, 0.01)
    u = sample(lambda x: np.where(x < 0.0, 0.0, 1.0), -1.0, 1.0, 0.01)
    out = convolve_values(m, u.values)
    i0 = int(round((0.0 - u.x0) / u.dx))
    # symmetric kernel halves the jump; the node itself carries one weight
    assert abs(out[i0] - 0.5) <= m.weights.max() + 1e-12
    assert abs(out[i0] - 0.5 - 0.5 * m.weights[m.radius]) <= 1e-12


def test_convolve_linear_interior():
    # symmetric kernel annihilates the odd moment, so x stays x
    m = build_mollifier(0.1, 0.01)
    u = sample(lambda x: x, -1.0, 1.0, 0.01)
    out = convolve_values(m, u.values)
    interior = slice(m.radius, u.n - m.radius)
    assert np.max(np.abs(out[interior] - u.values[interior])) <= 1e-12


def test_convolve_is_linear():
    rng = np.random.default_rng(3)
    m = build_mollifier(0.07, 0.01)
    uv = rng.normal(size=151)
    vv = rng.normal(size=151)
    lhs = convolve_values(m, 2.5 * uv - 1.25 * vv)
    rhs = 2.5 * convolve_values(m, uv) - 1.25 * convolve_values(m, vv)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_convolve_contracts_sup_and_tv():
    rng = np.random.default_rng(11)
    m = build_mollifier(0.05, 0.01)
    for _ in range(20):
        u = sample(0.0, -1.0, 1.0, 0.01).with_values(rng.normal(size=201))
        out = u.with_values(convolve_values(m, u.values))
        assert sup_norm(out) <= sup_norm(u) + 1e-14
        assert total_variation(out) <= total_variation(u) + 1e-12


def convolve_edge_padded(m, row):
    """The 1D rule with np.pad's edge mode: the oracle."""
    padded = np.pad(row, m.radius, mode="edge")
    return np.convolve(padded, m.weights, mode="valid")


@st.composite
def _convolve_cases(draw):
    """A kernel, possibly wider than the rows, and values of rank 1 to 3
    in C or Fortran order, with signed zeros and repeats."""
    dx = draw(st.sampled_from([0.01, 0.05, 0.3]))
    m = build_mollifier(dx * draw(st.floats(1.0, 12.0)), dx)
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=9))
    n = draw(st.integers(1, 40))
    element = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(-1e3, 1e3)
    )
    values = draw(hnp.arrays(np.float64, (*shape[:-1], n), elements=element))
    # a transposed layout, as the column pass of a 2D field has
    return m, np.asfortranarray(values) if draw(st.booleans()) else values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_convolve_cases())
def test_convolve_values_is_the_1d_rule_on_every_row(case):
    m, values = case
    got = convolve_values(m, values)
    assert got.shape == values.shape
    for index in np.ndindex(values.shape[:-1]):
        want = convolve_edge_padded(m, values[index])
        assert np.array_equal(got[index].view(np.uint64), want.view(np.uint64))
        alone = convolve_values(m, values[index])
        assert np.array_equal(alone.view(np.uint64), want.view(np.uint64))


def test_kernel_sup_norm_estimate():
    # max weight / dx approximates eta_eps(0) = e^-1 / (I * eps)
    eps = 0.1
    m = build_mollifier(eps, 1e-3)
    expect = np.exp(-1.0) / (NORMALIZATION_I * eps)
    assert m.sup == pytest.approx(expect, rel=5e-3)
