import numpy as np
import pytest

from nlclaw.expressions import Expression
from nlclaw.grids import PiecewiseInitialData, RiemannData
from nlclaw.scenario import ScenarioError, parse_scenario

MINIMAL = """
name = shock
mode = nn
initial = riemann 1 0
epsilon = 0.1
T = 1
dx = 0.01
domain = -2 3
"""


def test_minimal_document():
    spec = parse_scenario(MINIMAL)
    assert spec.name == "shock"
    assert spec.mode == "nn"
    assert spec.initial == RiemannData(1.0, 0.0)
    assert spec.epsilon == 0.1
    assert spec.epsilon_list is None
    assert spec.T == 1.0 and spec.dx == 0.01
    assert spec.domain == (-2.0, 3.0)
    # defaults
    assert spec.flux.kind == "burgers"
    assert spec.cfl == 0.5
    assert spec.output == "csv"
    assert spec.stride == 50
    assert spec.expect is None


def test_comments_and_blank_lines_ignored():
    spec = parse_scenario("# header\n\n" + MINIMAL + "\n# trailing\n")
    assert spec.name == "shock"


def test_expression_initial_and_flux():
    spec = parse_scenario(
        """
name = smooth
mode = velocity_reg
initial = expression -tanh(x)
flux = expression x^3/3 ; x^2
epsilon = 0.05
T = 0.5
dx = 0.01
domain = -3 3
output = json
stride = 10
"""
    )
    assert isinstance(spec.initial, Expression)
    assert spec.flux.kind == "expression"
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(spec.flux.f(xs), xs**3 / 3, atol=1e-14)
    assert np.allclose(spec.flux.fprime(xs), xs**2, atol=1e-14)
    assert spec.output == "json"
    assert spec.stride == 10


def test_piecewise_initial():
    spec = parse_scenario(
        """
name = pw
mode = nn
initial = piecewise -1,1 ; 0.8+0.1*(x+1) ; -0.2+0.15*(x+1) ; -0.9+0.1*(x-1) ; C=0.15
epsilon = 0.1
T = 1
dx = 0.01
domain = -3 3
"""
    )
    pw = spec.initial
    assert isinstance(pw, PiecewiseInitialData)
    assert pw.breakpoints == (-1.0, 1.0)
    assert len(pw.pieces) == 3
    assert pw.lipschitz_C == 0.15


def test_epsilon_list_space_or_comma():
    for sep in ("0.2 0.1 0.05", "0.2, 0.1, 0.05", "0.2,0.1 ,0.05"):
        spec = parse_scenario(
            f"""
name = sweep
mode = nn
initial = riemann -1 1
epsilon_list = {sep}
T = 1
dx = 0.05
domain = -2 2
expect = nonconvergence
"""
        )
        assert spec.epsilon_list == (0.2, 0.1, 0.05)
        assert spec.expect == "nonconvergence"


def test_errors_accumulate_with_line_numbers():
    doc = """
mode = warp
initial = riemann 1
T = -1
dx = 0.02
epsilon = 0.1
epsilon_list = 0.1 0.2
bogus = 3
"""
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(doc)
    msgs = ei.value.errors
    assert any("unknown mode" in m for m in msgs)
    assert any("riemann needs exactly" in m for m in msgs)
    assert any("T must be positive" in m for m in msgs)
    assert any("either epsilon or epsilon_list" in m for m in msgs)
    assert any("unknown key 'bogus'" in m for m in msgs)
    assert any("missing required key 'name'" in m for m in msgs)
    assert any("missing required key 'domain'" in m for m in msgs)
    # line numbers refer to the document
    assert any(m.startswith("line 2:") for m in msgs)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL + "name = again\n")
    assert any("duplicate key 'name'" in m for m in ei.value.errors)


def test_malformed_line_rejected():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL + "just some words\n")
    assert any("expected 'key = value'" in m for m in ei.value.errors)


def test_bad_expression_reported_with_line():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(
            """
name = x
mode = nn
initial = expression zap(x)
epsilon = 0.1
T = 1
dx = 0.01
domain = -1 1
"""
        )
    assert any("zap" in m and m.startswith("line 4") for m in ei.value.errors)


def test_domain_must_increase():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL.replace("domain = -2 3", "domain = 3 -2"))
    assert any("a < b" in m for m in ei.value.errors)


def test_name_at_most_200_characters():
    spec = parse_scenario(MINIMAL.replace("shock", "a" * 200))
    assert spec.name == "a" * 200
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL.replace("shock", "a" * 201))
    assert [m[:7] for m in ei.value.errors] == ["line 2:"]


def test_cfl_bounds():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "cfl = 1.5\n")
    spec = parse_scenario(MINIMAL + "cfl = 1\n")
    assert spec.cfl == 1.0


def test_stride_must_be_positive_integer():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "stride = 0\n")
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "stride = 2.5\n")


def test_expect_only_nonconvergence():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL + "expect = miracles\n")
    assert any("nonconvergence" in m for m in ei.value.errors)


def test_velocity_requires_euler_mode():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL + "velocity = 0.1*x\n")
    assert any("only valid in euler mode" in m for m in ei.value.errors)


def test_domain_y_requires_nn2d():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL + "domain_y = 0 1\n")
    assert any("only valid in nn2d mode" in m for m in ei.value.errors)


def test_euler_requires_expression_initial():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(MINIMAL.replace("mode = nn", "mode = euler"))
    assert any("euler mode needs" in m for m in ei.value.errors)


def test_euler_and_2d_forbid_epsilon_list():
    doc = """
name = p
mode = euler
initial = expression 1 + 0.1*exp(-x^2)
epsilon_list = 0.1 0.05
T = 0.3
dx = 0.0125
domain = -6 6
"""
    with pytest.raises(ScenarioError) as ei:
        parse_scenario(doc)
    assert any("single epsilon" in m for m in ei.value.errors)


def test_euler_document_parses():
    spec = parse_scenario(
        """
name = pulse
mode = euler
initial = expression 1 + 0.1*exp(-x^2)
velocity = 0.2*tanh(x)
epsilon = 0.1
T = 0.3
dx = 0.0125
domain = -6 6
"""
    )
    assert spec.mode == "euler"
    assert spec.velocity is not None
    assert abs(float(spec.velocity(0.0))) == 0.0


def test_nn2d_document_parses():
    spec = parse_scenario(
        """
name = plane
mode = nn2d
initial = expression -tanh(x)
epsilon = 0.1
T = 0.2
dx = 0.02
domain = -3 3
domain_y = 0 0.2
"""
    )
    assert spec.mode == "nn2d"
    assert spec.domain_y == (0.0, 0.2)
