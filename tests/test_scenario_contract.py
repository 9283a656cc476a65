"""The scenario contract: every document the grammar of nlclaw.scenario can
produce, valid or hostile, ends in exit status 0, 1 or 2 without an
escaping exception, and an input error (exit 1) says why and writes
nothing."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlclaw.cli import main
from nlclaw.scenario import MODES

HOSTILE = ("nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300", "1e300")
# the last two are not finite everywhere; one datum in four draws them
EXPRESSIONS = ("-tanh(x)", "0.5*exp(-x^2)", "1 + 0.1*sin(x)") * 2 + (
    "1/x", "x^0.5",
)
FLUXES = (
    "burgers", "cubic", "expression x^2/2 ; x", "expression x^3/3 ; x^2",
    "expression x^2/2 ; 2*x",
)
# at most one structural fault per document, in one document of three
FAULTS = (None,) * 24 + (
    "drop", "unknown", "duplicate", "garbage", "name", "mode", "initial",
    "flux", "output", "expect", "stride", "misplaced",
)


@st.composite
def documents(draw):
    """A command and a scenario document in the grammar of nlclaw.scenario,
    drawing every key, mode, flux and datum kind.  The document is valid
    with small values, except that in about one document of three one of
    its numbers is replaced by a HOSTILE one, and in one of three a
    structural fault is applied."""
    command = draw(st.sampled_from(("run", "sweep")))
    slot = draw(st.integers(-1, 24))
    hostile = draw(st.sampled_from(HOSTILE))
    drawn = []

    def num(*valid: str) -> str:
        drawn.append(None)
        if len(drawn) - 1 == slot:
            return hostile
        return draw(st.sampled_from(valid))

    mode = draw(st.sampled_from(MODES))
    kind = "expression" if mode == "euler" else draw(
        st.sampled_from(("riemann", "piecewise", "expression"))
    )
    if kind == "riemann":
        initial = f"riemann {num('1', '0.5', '-1')} {num('0', '-1', '1')}"
    elif kind == "piecewise":
        pieces = draw(st.lists(st.sampled_from(EXPRESSIONS), min_size=2,
                               max_size=2))
        initial = (f"piecewise {num('0', '-0.5')} ; {pieces[0]} ; "
                   f"{pieces[1]} ; C={num('0', '0.5')}")
    else:
        initial = "expression " + draw(st.sampled_from(EXPRESSIONS))
    fields = {
        "name": draw(st.sampled_from(("c", "c.1", "a_b-2"))),
        "mode": mode,
        "initial": initial,
        "T": num("0.05", "0.2"),
        "dx": num("0.05", "0.1"),
        "domain": f"{num('-1', '-2')} {num('1', '1.5')}",
    }
    if mode not in ("euler", "nn2d") and (
        command == "sweep" or draw(st.booleans())
    ):
        fields["epsilon_list"] = " ".join(
            num("0.2", "0.3") for _ in range(draw(st.integers(1, 3)))
        )
    else:
        fields["epsilon"] = num("0.2", "0.3")
    if draw(st.booleans()):
        fields["flux"] = draw(st.sampled_from(FLUXES))
    if draw(st.booleans()):
        fields["cfl"] = num("0.5", "1")
    if draw(st.booleans()):
        fields["stride"] = draw(st.sampled_from(("1", "5", "50")))
    if draw(st.booleans()):
        fields["output"] = draw(st.sampled_from(("csv", "json")))
    if draw(st.booleans()):
        fields["expect"] = "nonconvergence"
    if mode == "euler" and draw(st.booleans()):
        fields["velocity"] = draw(st.sampled_from(("0.2*tanh(x)", "-x")))
    if mode == "nn2d" and draw(st.booleans()):
        fields["domain_y"] = f"{num('0', '-0.1')} {num('0.2')}"

    lines = [f"{k} = {v}" for k, v in fields.items()]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "drop":
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    elif fault == "unknown":
        lines.append("bogus = 1")
    elif fault == "duplicate":
        lines.append(draw(st.sampled_from(lines)))
    elif fault == "garbage":
        lines.append("just some words")
    elif fault == "misplaced":
        lines.append(draw(st.sampled_from(
            ("velocity = 0.1*x", "domain_y = 0 1", "epsilon_list = 0.1")
        )))
    elif fault is not None:
        bad = {
            "name": ("../x", "sub/dir/x", ".hidden", ""),
            "mode": ("warp",), "initial": ("zap 1", "riemann 1",
                                           "expression zap(x)"),
            "flux": ("bogus", "expression x"), "output": ("xml",),
            "expect": ("miracles",), "stride": ("0", "-1", "2.5", "1e300"),
        }[fault]
        lines.append(f"{fault} = {draw(st.sampled_from(bad))}")
        lines = [ln for ln in lines[:-1] if not ln.startswith(f"{fault} =")
                 ] + lines[-1:]
    return command, "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=documents())
def test_every_document_ends_in_an_exit_status(doc):
    command, text = doc
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "doc.scn"
        scn.write_text(text)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, str(scn), "--outdir", str(out)])
        assert rc in (0, 1, 2), text
        # whatever the name, files land only in the outdir
        assert {p.name for p in Path(tmp).iterdir()} <= {"doc.scn", "out"}
        if rc == 1:
            assert err.getvalue().strip(), text
            assert not out.exists() or not any(out.iterdir()), text
        if rc == 2:  # a failed check or an aborted solve: one line says why
            assert len(err.getvalue().strip().splitlines()) == 1, text


def _run(argv, capsys) -> tuple[int, str]:
    capsys.readouterr()
    rc = main(argv)
    return rc, capsys.readouterr().err


GRID = "T = 0.2\ndx = 0.01\nepsilon = 0.1\nmode = nn\n"


@pytest.mark.parametrize("body, key", [
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("T = 0.2", "T = nan"), "line 4"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("epsilon = 0.1", "epsilon = nan"), "line 6"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("epsilon = 0.1", "epsilon = inf"), "line 6"),
    ("name = x\ninitial = riemann 1 0\ndomain = -inf 1\n" + GRID, "line 3"),
    ("name = sub/dir/x\ninitial = riemann 1 0\ndomain = -1 1\n" + GRID,
     "line 1"),
    ("name = x\ninitial = piecewise 0 ; 1 ; 0 ; C=-1\ndomain = -1 1\n"
     + GRID, "line 2"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("dx = 0.01", "dx = 1e-9"), "dx:"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1e300 1e300\n" + GRID,
     "dx:"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("epsilon = 0.1", "epsilon = 1e300"), "epsilon:"),
    ("name = x\ninitial = expression -tanh(x)\ndomain = -1 1\n"
     + GRID.replace("mode = nn", "mode = nn2d").replace("dx = 0.01",
                                                        "dx = 1e-5"),
     "dx:"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("epsilon = 0.1", "epsilon_list = 0.1 nan"), "line 6"),
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("epsilon = 0.1", "epsilon_list = 0.1 1e-9"), "epsilon:"),
    # T = 0.1 at dx = 0.01 takes 20 steps; stride 50 stores only t = T
    ("name = x\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID.replace("T = 0.2", "T = 0.1") + "stride = 50\n", "stride:"),
    # finite on the grid, but not at the feet left of the domain
    ("name = x\nmode = nn\ninitial = piecewise 0 ; x^0.5 ; 1 ; C=0\n"
     "T = 0.05\ndx = 0.05\ndomain = 0 1\nepsilon = 0.2\n", "initial:"),
    # the right limit at the breakpoint is 1/0
    ("name = x\nmode = nn\ninitial = piecewise 0 ; -tanh(x) ; 1/x ; C=0\n"
     "T = 0.05\ndx = 0.05\ndomain = -1 1\nepsilon = 0.2\n", "initial:"),
    # the eps 0.2 row's grid (dx 0.025) has a node at x = 0
    ("name = x\nmode = nn\ninitial = expression 1/x\nT = 0.05\n"
     "dx = 0.05\ndomain = -1 1\nepsilon_list = 0.2 0.3\n", "initial:"),
    # the padded grid puts a node within rounding of x = 0, where the
    # window grid has x = 0 on the left piece: the Godunov reference
    # would take 1e17 steps
    ("name = c\nmode = flux_reg\nflux = expression x^2/2 ; x\n"
     "initial = piecewise 0 ; -tanh(x) ; 1/x ; C=0.5\nT = 0.05\n"
     "dx = 0.1\ndomain = -2 1\nepsilon_list = 0.2 0.1\n",
     "initial: 379 nodes x 2.502e+15 steps"),
    # exp overflows on the flux's check points, so its wrong fprime would
    # pass a finite-difference check that reads nan
    ("name = x\nmode = velocity_reg\nflux = expression exp(x) ; 2*x\n"
     "initial = riemann 800 0\nepsilon = 0.1\ndx = 0.01\nT = 0.001\n"
     "domain = -1 3\n", "flux:"),
    # nn and conservative read no flux, so the unset Burgers default is
    # never checked and the datum's step count is what fails
    ("name = x\ninitial = riemann 1e300 0\ndomain = -1 3\n"
     + GRID.replace("T = 0.2", "T = 0.001"),
     "initial: 401 nodes x 2e+299 steps"),
    ("name = x\ninitial = riemann 1e300 0\ndomain = -1 3\n"
     + GRID.replace("T = 0.2", "T = 0.001").replace("nn", "conservative"),
     "initial: 401 nodes x 2e+299 steps"),
    ("name = x\ninitial = riemann 1e300 0\ndomain = -1 3\nflux = cubic\n"
     + GRID.replace("T = 0.2", "T = 0.001").replace("nn", "velocity_reg"),
     "flux:"),
    # a sweep fits a rate through its rows: one distinct epsilon is no sweep
    ("name = x\ninitial = riemann -1 1\ndomain = -2 2\n"
     "expect = nonconvergence\n"
     + GRID.replace("epsilon = 0.1", "epsilon_list = 0.2"), "line 7"),
    ("name = x\ninitial = riemann -1 1\ndomain = -2 2\n"
     "expect = nonconvergence\n"
     + GRID.replace("epsilon = 0.1", "epsilon_list = 0.1 0.1"), "line 7"),
    # longer than the file system's name limit once a suffix is added
    ("name = " + "a" * 300 + "\ninitial = riemann 1 0\ndomain = -1 1\n"
     + GRID, "line 1"),
])
def test_hostile_document_is_one_line_input_error(tmp_path, capsys, body, key):
    scn = tmp_path / "doc.scn"
    scn.write_text(body)
    out = tmp_path / "out"
    rc, err = _run(["run", str(scn), "--outdir", str(out)], capsys)
    assert rc == 1
    prefix = f"{scn}: {key}:" if key.startswith("line") else key
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("flags, flag", [
    (["--T", "inf"], "--T"),
    (["--T", "nan"], "--T"),
    (["--uL", "nan"], "--uL/--uR"),
    (["--stride", "0"], "--stride"),
    (["--name", "../escaped"], "--name"),
    (["--domain", "1", "nan"], "--domain"),
    (["--dx", "1e-9"], "dx"),
    (["--epsilon", "1e300"], "epsilon"),
    (["--T", "0.1", "--dx", "0.01", "--stride", "50"], "stride"),
])
def test_hostile_riemann_flag_is_one_line_input_error(
    tmp_path, capsys, flags, flag
):
    out = tmp_path / "out"
    rc, err = _run(
        ["riemann", "--uL", "1", "--uR", "0", *flags, "--outdir", str(out)],
        capsys,
    )
    assert rc == 1
    assert err.startswith(f"{flag}: ") and err.count("\n") == 1, err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_riemann_flags_and_scenario_file_write_the_same_bytes(tmp_path):
    # the default domain is [-reach, reach], reach = 1 + uL^2 T (cubic flux)
    reach = 1.0 + 1.0 * 0.4
    flags = tmp_path / "flags"
    rc_flags = main([
        "riemann", "--uL", "1", "--uR", "0", "--mode", "velocity_reg",
        "--flux", "cubic", "--epsilon", "0.1", "--T", "0.4", "--dx", "0.02",
        "--stride", "5", "--name", "same", "--outdir", str(flags),
    ])
    scn = tmp_path / "same.scn"
    scn.write_text(
        "name = same\nmode = velocity_reg\nflux = cubic\n"
        "initial = riemann 1 0\nepsilon = 0.1\nT = 0.4\ndx = 0.02\n"
        f"domain = {-reach!r} {reach!r}\nstride = 5\n"
    )
    text = tmp_path / "file"
    rc_file = main(["run", str(scn), "--outdir", str(text)])
    assert rc_flags == rc_file
    names = sorted(p.name for p in flags.iterdir())
    assert names == ["same.csv", "same_profile.dat", "same_report.json"]
    assert names == sorted(p.name for p in text.iterdir())
    for name in names:
        assert (flags / name).read_bytes() == (text / name).read_bytes()


def test_a_failed_check_is_named_in_one_line(tmp_path, capsys):
    # the front has not formed by T, so the fit over [T/2, T] reads a
    # slower front than the Rankine-Hugoniot speed 1/2
    scn = tmp_path / "x.scn"
    scn.write_text(
        "name = x\ninitial = riemann 1 0\ndomain = -1 1.5\nstride = 1\n"
        + GRID.replace("dx = 0.01", "dx = 0.02")
    )
    rc, err = _run(["run", str(scn), "--outdir", str(tmp_path / "out")],
                   capsys)
    report = json.loads((tmp_path / "out" / "x_report.json").read_text())
    failed = [c for c in report["checks"]["checks"] if not c["passed"]]
    assert rc == 2 and failed and err.count("\n") == 1, err
    assert err.startswith("checks failed: ")
    for c in failed:
        assert (
            f"{c['name']} = {c['value']!r} (threshold {c['threshold']!r})"
            in err
        )
