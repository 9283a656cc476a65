import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlclaw import acceptance, diagnostics, runner
from nlclaw.cli import main
from nlclaw.runner import RunResult, Snapshot, write_outputs
from nlclaw.grids import RiemannData
from nlclaw.scenario import ScenarioSpec, parse_scenario

SHOCK = """
name = shock
mode = nn
initial = riemann 1 0
epsilon = 0.1
T = 1
dx = 0.005
domain = -1.5 2.0
stride = 50
"""

PULSE = """
name = pulse
mode = euler
initial = expression 1 + 0.1*exp(-x^2)
velocity = 0.2*tanh(x)
epsilon = 0.1
T = 0.3
dx = 0.0125
domain = -6 6
stride = 20
"""

PLANE = """
name = plane
mode = nn2d
initial = expression -tanh(x)
epsilon = 0.1
T = 0.2
dx = 0.02
domain = -3 3
domain_y = 0 0.2
"""

RARE_SWEEP = """
name = rare
mode = nn
initial = riemann -1 1
epsilon_list = 0.2 0.1 0.05
T = 1
dx = 0.05
domain = -2 2
expect = nonconvergence
"""


def _write(tmp, name, text):
    p = tmp / name
    p.write_text(text)
    return p


@pytest.fixture(scope="module")
def shock_runs(tmp_path_factory):
    """The same shock scenario run twice into separate directories."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"shock_{tag}")
        scn = _write(out, "shock.scn", SHOCK)
        rc = main(["run", str(scn), "--outdir", str(out)])
        outs.append((rc, out))
    return outs


def test_shock_run_succeeds_and_writes_files(shock_runs):
    rc, out = shock_runs[0]
    assert rc == 0
    assert (out / "shock.csv").exists()
    assert (out / "shock_report.json").exists()
    assert (out / "shock_profile.dat").exists()


def test_shock_report_contents(shock_runs):
    _, out = shock_runs[0]
    rep = json.loads((out / "shock_report.json").read_text())
    assert rep["scenario"] == "shock"
    assert rep["mode"] == "nn"
    assert rep["epsilon"] == 0.1
    assert rep["passed"] is True
    fs = rep["front_speed"]
    assert abs(fs["measured"] - 0.5) <= 0.01
    assert fs["predicted"] == 0.5
    names = [c["name"] for c in rep["checks"]["checks"]]
    assert "max principle" in names
    assert all(c["passed"] for c in rep["checks"]["checks"])


def test_snapshot_csv_format(shock_runs):
    _, out = shock_runs[0]
    lines = (out / "shock.csv").read_text().splitlines()
    assert lines[0].startswith("# nlclaw ")
    assert lines[1].startswith("# scenario=shock mode=nn")
    assert lines[2] == "t,x,u"
    first = lines[3].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -1.5


def test_profile_format(shock_runs):
    _, out = shock_runs[0]
    lines = (out / "shock_profile.dat").read_text().splitlines()
    assert lines[2] == "# x u"
    x0, u0 = lines[3].split()
    assert float(x0) == -1.5 and float(u0) == 1.0


SLOW_SHOCK = """
name = slow
mode = nn
initial = riemann 0.515 0
epsilon = 0.1
T = 1.0
dx = 0.01
domain = -2 3
stride = 20
"""


def test_last_stored_level_is_at_T(tmp_path):
    # dt = 0.005/0.515 puts T/dt 1.4e-14 above 103: the last step ends at
    # T, not one ulp short, so the level at T is stored although stride
    # 20 does not divide the 103 steps
    scn = _write(tmp_path, "slow.scn", SLOW_SHOCK)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--outdir", str(out)]) == 0
    times = [
        line.split(",")[0]
        for line in (out / "slow.csv").read_text().splitlines()[3:]
    ]
    assert list(dict.fromkeys(times))[-2:] == ["0.9708737864077669", "1.0"]


def test_stride_whose_levels_bunch_at_T_is_rejected_before_the_solve(
    tmp_path, monkeypatch, capsys
):
    # stride 50 of the 103 steps stores 0.9709 and 1.0 in [0.5, 1]: two
    # levels, but 0.029 apart, over which the fit saw one dx of front
    # motion (0.343 against 0.2575); the schedule shows it before any step
    scn = _write(
        tmp_path, "slow.scn", SLOW_SHOCK.replace("stride = 20", "stride = 50")
    )

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(runner, "solve", no_solve)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(scn), "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stride: stride 50 stores 2 level(s) 0.0291 apart")
    assert err.count("\n") == 1
    assert not out.exists()


def test_conservative_stride_is_rejected_after_the_solve(
    tmp_path, monkeypatch, capsys
):
    # the conservative solver sizes each step by the current sup|u|, so its
    # stored times exist only after the solve: stride 1000 keeps 0 and T
    scn = _write(tmp_path, "cons.scn", """
name = cons
mode = conservative
initial = riemann 1 0
epsilon = 0.1
T = 0.5
dx = 0.05
domain = -1 1.5
stride = 1000
""")
    solves = []
    solve = runner.solve

    def counted(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(runner, "solve", counted)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(scn), "--outdir", str(out)]) == 1
    assert solves == ["conservative"]
    assert capsys.readouterr().err == (
        "stride: stride 1000 stores 1 level(s) 0 apart in [0.25, T = 0.5]; "
        "the front-speed fit needs 2 spanning half of it, so lower the "
        "stride\n"
    )
    assert not out.exists()


def test_a_scheduled_shock_checks_its_levels_once(monkeypatch):
    # the solver stores exactly schedule's times: one check, before solving
    calls = []
    check = runner._check_levels
    monkeypatch.setattr(
        runner, "_check_levels",
        lambda *args: calls.append(args[0]) or check(*args),
    )
    runner.execute(parse_scenario(SMALL_RUNS["run"]))
    assert len(calls) == 1


def test_stride_one_with_too_few_steps_names_dx(tmp_path, capsys):
    # stride 1 stores every step, so it cannot be lowered: one step of
    # dt = T stores only T in [T/2, T], and the cure is a finer grid
    scn = _write(tmp_path, "s1.scn", """
name = s1
mode = nn
initial = riemann 1 0
epsilon = 1
T = 0.5
dx = 1
domain = -1 1
stride = 1
""")
    capsys.readouterr()
    assert main(["run", str(scn), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (
        "dx: dx 1.0 takes 1 step(s) and stores 1 level(s) 0 apart in "
        "[0.25, T = 0.5]; the front-speed fit needs 2 spanning half of it, "
        "so lower dx\n"
    )


def test_reruns_byte_identical(shock_runs):
    (_, a), (_, b) = shock_runs
    for name in ("shock.csv", "shock_report.json", "shock_profile.dat"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_no_absolute_paths_in_outputs(shock_runs):
    _, out = shock_runs[0]
    for name in ("shock.csv", "shock_report.json", "shock_profile.dat"):
        text = (out / name).read_text()
        assert str(out) not in text


# data that parse but cannot be sampled: each is an input error on its key
UNSAMPLEABLE = (
    "mode = nn\ninitial = expression 1/x\n",
    "mode = euler\ninitial = expression 1/x\n",
    "mode = nn\ninitial = piecewise 0,0.02 ; 1 ; 0 ; 1 ; C=0\n",
)


def test_malformed_scenario_exits_1_writes_nothing(tmp_path, capsys):
    grid = "name = x\nT = 0.2\ndx = 0.01\ndomain = -1 1\n"
    docs = [("name = x\nmode = warp\n", None)]
    docs += [(grid + "epsilon = 0.1\n" + body, "initial")
             for body in UNSAMPLEABLE]
    # a kernel the grid does not resolve
    docs.append((
        grid + "epsilon = 0.001\nmode = nn\ninitial = riemann 1 0\n",
        "epsilon",
    ))
    # an expression flux whose derivative is wrong
    docs.append((
        grid + "epsilon = 0.1\nmode = velocity_reg\n"
        "flux = expression x^2/2 ; 2*x\ninitial = riemann 1 0\n",
        "flux",
    ))
    # a sweep whose Godunov reference meets a flux not convex on the data
    docs.append((
        grid + "epsilon_list = 0.4 0.2\nmode = velocity_reg\nflux = cubic\n"
        "initial = expression -0.5*tanh(x)\n",
        "flux",
    ))
    for k, (text, key) in enumerate(docs):
        scn = _write(tmp_path, f"bad{k}.scn", text)
        out = tmp_path / f"out{k}"
        out.mkdir()
        capsys.readouterr()
        rc = main(["run", str(scn), "--outdir", str(out)])
        assert rc == 1
        assert list(out.iterdir()) == []
        if key is not None:
            err = capsys.readouterr().err
            assert err.startswith(f"{key}: ") and err.count("\n") == 1


SINGULAR = """
name = singular
mode = nn
initial = expression 1/x
T = 0.1
domain = -1.005 1.005
"""


@pytest.mark.parametrize("command, grid", [
    ("sweep", "epsilon_list = 0.2 0.04\ndx = 0.01\n"),
    ("run", "epsilon = 0.04\ndx = 0.005\n"),
], ids=["sweep", "run"])
def test_singular_datum_exceeds_node_step_budget(tmp_path, command, grid):
    # a node within rounding of x = 0 makes sup|u0| about 4.5e15: the
    # sweep's eps 0.04 row would pad its grid to ~1e17 nodes, the run
    # would take ~1e17 steps; both are rejected before anything is sized
    scn = _write(tmp_path, "singular.scn", SINGULAR + grid)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nlclaw.cli", command, str(scn),
         "--outdir", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    # that sup|u0| sizes a dt of about 5.55e-19
    assert proc.stderr.startswith("initial: ")
    assert " steps (T = 0.1, dt = 5.55" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_stored_levels_over_budget_exit_1(tmp_path):
    # 40,001 nodes x 20,000 steps is within the node-step budget, but at
    # stride 1 the levels would hold 8e8 values (6.4 GB)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nlclaw.cli", "riemann", "--uL", "1",
         "--uR", "0", "--dx", "1e-4", "--T", "1", "--stride", "1",
         "--outdir", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "stride: 40001 nodes x 20001 stored levels (stride 1) = 8e+08 "
        "stored values, above the budget of 1e+08\n"
    )
    assert not out.exists()


def test_missing_file_exits_1(tmp_path):
    rc = main(["run", str(tmp_path / "nope.scn"), "--outdir", str(tmp_path)])
    assert rc == 1


def test_euler_run(tmp_path):
    scn = _write(tmp_path, "pulse.scn", PULSE)
    rc = main(["euler", str(scn), "--outdir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "pulse_report.json").read_text())
    assert rep["mode"] == "euler"
    assert rep["passed"] is True
    assert rep["conservative_residual"]["mass"] >= 0.0
    assert rep["vacuum_flagged"] is False
    head = (tmp_path / "pulse.csv").read_text().splitlines()[2]
    assert head == "t,x,rho,v"


def test_euler_subcommand_rejects_other_modes(tmp_path):
    scn = _write(tmp_path, "shock.scn", SHOCK)
    rc = main(["euler", str(scn), "--outdir", str(tmp_path)])
    assert rc == 1


def test_2d_run(tmp_path):
    scn = _write(tmp_path, "plane.scn", PLANE)
    rc = main(["run", str(scn), "--outdir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "plane_report.json").read_text())
    assert rep["passed"] is True
    head = (tmp_path / "plane.csv").read_text().splitlines()[2]
    assert head == "x,y,u"


def test_json_output_mode(tmp_path):
    scn = _write(tmp_path, "plane.scn", PLANE + "output = json\n")
    rc = main(["run", str(scn), "--outdir", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "plane.json").read_text())
    assert body["columns"] == ["x", "y", "u"]
    assert len(body["rows"]) > 0


def test_verify_writes_only_report(tmp_path):
    scn = _write(tmp_path, "pulse.scn", PULSE)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["verify", str(scn), "--outdir", str(out)])
    assert rc == 0
    assert [p.name for p in out.iterdir()] == ["pulse_report.json"]


def test_outdir_that_is_a_file_is_one_line_input_error(tmp_path, capsys):
    scn = _write(tmp_path, "plane.scn", PLANE)
    taken = _write(tmp_path, "taken", "not a directory\n")
    capsys.readouterr()
    rc = main(["run", str(scn), "--outdir", str(taken)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("outdir: ") and err.count("\n") == 1, err
    assert taken.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plane.scn", "taken"]


def test_sweep_plateau(tmp_path):
    scn = _write(tmp_path, "rare.scn", RARE_SWEEP)
    rc = main(["sweep", str(scn), "--outdir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "rare_report.json").read_text())
    errs = [row["error_L1"] for row in rep["table"]["rows"]]
    assert all(abs(e - 1.0) <= 0.1 for e in errs)
    lines = (tmp_path / "rare_table.dat").read_text().splitlines()
    assert lines[2] == "# epsilon dx dt error_L1 error_sup floor_dominated"
    assert len(lines) == 6
    # per-epsilon final-state snapshots accompany the table
    assert (tmp_path / "rare_eps0.2.csv").exists()
    assert (tmp_path / "rare_eps0.05.csv").exists()


def test_sweep_requires_epsilon_list(tmp_path):
    scn = _write(tmp_path, "shock.scn", SHOCK)
    rc = main(["sweep", str(scn), "--outdir", str(tmp_path)])
    assert rc == 1


def test_expected_nonconvergence_absent_fails_run(tmp_path):
    # a smooth converging setup flagged expect = nonconvergence must
    # come back as a failed check (exit 2), not a silent pass
    scn = _write(
        tmp_path,
        "smooth.scn",
        """
name = smooth
mode = nn
initial = expression -tanh(x)
epsilon_list = 0.2 0.1
T = 0.5
dx = 0.05
domain = -2 2
expect = nonconvergence
""",
    )
    rc = main(["sweep", str(scn), "--outdir", str(tmp_path)])
    assert rc == 2
    rep = json.loads((tmp_path / "smooth_report.json").read_text())
    assert rep["passed"] is False


def test_riemann_subcommand(tmp_path):
    rc = main(
        [
            "riemann", "--uL", "1", "--uR", "0",
            "--epsilon", "0.1", "--T", "1", "--dx", "0.005",
            "--domain", "-1.5", "2.0", "--stride", "50",
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "riemann_report.json").read_text())
    assert abs(rep["front_speed"]["measured"] - 0.5) <= 0.01


def test_riemann_rejects_bad_domain(tmp_path, capsys):
    rc = main(
        [
            "riemann", "--uL", "1", "--uR", "0",
            "--domain", "2", "-1", "--outdir", str(tmp_path),
        ]
    )
    assert rc == 1
    # a kernel narrower than the grid spacing is an input error too
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(
        [
            "riemann", "--uL", "1", "--uR", "0", "--epsilon", "0.0001",
            "--dx", "0.01", "--outdir", str(out),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("epsilon: ") and err.count("\n") == 1
    assert not out.exists()


def test_result_file_formats_are_pinned(tmp_path):
    # signed zeros in the level, node and field columns, in the (t, x, u),
    # (t, x, rho, v), nn2d (x, y, u) and plot (x, u) column orders
    meta = {
        "version": "v0", "scenario": "fmt", "mode": "nn", "epsilon": 0.1,
        "dx": 1 / 3, "dt": None,
    }
    levels, nodes = np.array([-0.0, 1e-300]), np.array([-0.0, 0.1])
    u = np.array([[1 / 3, -0.0], [0.0, -1e-5]])
    res = RunResult(
        meta, {"checks": {}}, True, ("t", "x", "u"),
        Snapshot(levels, nodes, (u,)),
        plots={
            "profile": (("x", "u"), runner._profile(nodes, u[-1])),
            "table": (
                ("epsilon", "error_L1", "floor_dominated"),
                [(0.1, 1 / 3, True), (0.05, -0.0, False), (0.025, 1e-300, True)],
            ),
        },
        extra_snapshots=[
            ("eps0.1", meta, ("x", "y", "u"),
             Snapshot(levels[1:], nodes, (u[1:],), order=(1, 0, 2))),
            ("eps0.05", meta, ("t", "x", "rho", "v"),
             Snapshot(levels[:1], nodes, (u[:1], 2.0 * u[:1]))),
        ],
    )
    head = (
        "# nlclaw v0\n"
        "# scenario=fmt mode=nn epsilon=0.1 dx=0.3333333333333333 dt=None\n"
    )
    expected = {
        "fmt_report.json": (
            '{\n  "version": "v0",\n  "scenario": "fmt",\n  "mode": "nn",\n'
            '  "epsilon": 0.1,\n  "dx": 0.3333333333333333,\n  "dt": null,\n'
            '  "checks": {},\n  "passed": true\n}\n'
        ),
        "fmt.csv": head + (
            "t,x,u\n-0.0,-0.0,0.3333333333333333\n-0.0,0.1,-0.0\n"
            "1e-300,-0.0,0.0\n1e-300,0.1,-1e-05\n"
        ),
        "fmt_eps0.1.csv": head + "x,y,u\n-0.0,1e-300,0.0\n0.1,1e-300,-1e-05\n",
        "fmt_eps0.05.csv": head + (
            "t,x,rho,v\n-0.0,-0.0,0.3333333333333333,0.6666666666666666\n"
            "-0.0,0.1,-0.0,-0.0\n"
        ),
        "fmt_profile.dat": head + "# x u\n-0.0 0.0\n0.1 -1e-05\n",
        "fmt_table.dat": head + (
            "# epsilon error_L1 floor_dominated\n"
            "0.1 0.3333333333333333 True\n0.05 -0.0 False\n0.025 1e-300 True\n"
        ),
    }
    spec = ScenarioSpec(
        "fmt", "nn", RiemannData(1.0, 0.0), 1.0, 0.1, (-1.0, 1.0),
        epsilon=0.1,
    )
    written = write_outputs(spec, res, tmp_path / "csv")
    assert sorted(p.name for p in written) == sorted(expected)
    for p in written:
        assert p.read_text() == expected[p.name]

    spec.output = "json"
    write_outputs(spec, res, tmp_path / "json")
    assert (tmp_path / "json" / "fmt_eps0.1.json").read_text() == (
        '{\n  "version": "v0",\n  "scenario": "fmt",\n  "mode": "nn",\n'
        '  "epsilon": 0.1,\n  "dx": 0.3333333333333333,\n  "dt": null,\n'
        '  "columns": [\n    "x",\n    "y",\n    "u"\n  ],\n'
        '  "rows": [\n    [\n      -0.0,\n      1e-300,\n      0.0\n    ],\n'
        '    [\n      0.1,\n      1e-300,\n      -1e-05\n    ]\n  ]\n}\n'
    )
    body = json.loads((tmp_path / "json" / "fmt.json").read_text())
    assert body["rows"] == [
        [-0.0, -0.0, 1 / 3], [-0.0, 0.1, -0.0], [1e-300, -0.0, 0.0],
        [1e-300, 0.1, -1e-5],
    ]
    assert [str(v) for v in body["rows"][1]] == ["-0.0", "0.1", "-0.0"]

    verify = write_outputs(spec, res, tmp_path / "verify", verify_only=True)
    assert [p.name for p in verify] == ["fmt_report.json"]


@st.composite
def _snapshots(draw, pool):
    """A Snapshot with its rows flattened one per node of every level, in
    the Snapshot's column order: zero to four levels (one for a plot, whose
    order has no level column), zero to five nodes, one or two fields, any
    column order, values drawn from pool."""
    n_fields = draw(st.integers(1, 2))
    order = draw(st.permutations(range(2 + n_fields)))
    plot = draw(st.booleans())
    if plot:
        order = [c for c in order if c != 0]
    n_levels = 1 if plot else draw(st.integers(0, 4))
    n_nodes = draw(st.integers(0, 5))
    values = st.sampled_from(pool)
    levels = draw(hnp.arrays(np.float64, n_levels, elements=values))
    nodes = draw(hnp.arrays(np.float64, n_nodes, elements=values))
    fields = [
        draw(hnp.arrays(np.float64, (n_levels, n_nodes), elements=values))
        for _ in range(n_fields)
    ]
    columns = [np.repeat(levels, n_nodes), np.tile(nodes, n_levels)]
    columns += [f.ravel() for f in fields]
    rows = [
        [columns[c][r] for c in order] for r in range(n_levels * n_nodes)
    ]
    return Snapshot(levels, nodes, fields, order=order), rows


_POOL = (0.0, -0.0, 5e-324, 1e-300, 1 / 3, -1e-05, 1e16, 0.1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_snapshots(_POOL), sep=st.sampled_from([",", " "]))
def test_write_table_matches_repr_of_every_value(tmp_path_factory, case, sep):
    # few distinct values, many repeats and both signed zeros: each line
    # must still be the reprs of its own row's values
    snap, rows = case
    assert len(snap) == len(rows)
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    meta = {
        "version": "v0", "scenario": "s", "mode": "nn", "epsilon": 0.1,
        "dx": 0.1, "dt": None,
    }
    runner._write_table(path, meta, "h", sep, snap)
    body = path.read_text().split("\n", 3)[3]
    assert body == "".join(
        sep.join(repr(float(v)) for v in r) + "\n" for r in rows
    )


_JSON_POOL = (
    0.0, -0.0, 5e-324, 1e-300, 1 / 3, 1e16, 0.1,
    float("nan"), float("inf"), float("-inf"),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    case=_snapshots(_JSON_POOL),
    epsilon=st.sampled_from([0.1, [0.2, 0.1, 0.05]]),
)
def test_write_json_matches_json_dumps(tmp_path_factory, case, epsilon):
    # both signed zeros and the floats json spells its own way: the file
    # must be json.dumps(..., indent=2) of the flattened rows, byte for byte
    snap, rows = case
    path = tmp_path_factory.getbasetemp() / "oracle.json"
    meta = {
        "version": "v0", "scenario": "s", "mode": "nn", "epsilon": epsilon,
        "dx": 0.1, "dt": None,
    }
    columns = ("a", "b", "c", "d")[:len(snap.order)]
    runner._write_json(path, meta, columns, snap)
    body = {
        **meta, "columns": list(columns),
        "rows": [[float(v) for v in r] for r in rows],
    }
    assert path.read_text() == json.dumps(body, indent=2) + "\n"


SMALL_RUNS = {
    "run": """
name = run
mode = nn
initial = riemann 1 0
epsilon = 0.1
T = 0.3
dx = 0.02
domain = -1 1.5
stride = 5
""",
    "sweep": """
name = sweep
mode = nn
initial = riemann -1 1
epsilon_list = 0.2 0.1
T = 0.3
dx = 0.05
domain = -1 1
stride = 5
output = json
""",
    "euler": PULSE.replace("T = 0.3", "T = 0.1").replace(
        "dx = 0.0125", "dx = 0.05"
    ).replace("stride = 20", "stride = 2"),
    "nn2d": PLANE.replace("T = 0.2", "T = 0.05"),
}


def _data_rows(path):
    if path.suffix == ".json":
        return len(json.loads(path.read_text())["rows"])
    return len(path.read_text().splitlines()) - 3  # two meta lines, header


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_snapshot_len_is_the_rows_written(tmp_path, name):
    # perfbench's runner.rows_out counts rows as len(res.snapshot_rows)
    # plus len(extra[3]) over res.extra_snapshots
    spec = parse_scenario(SMALL_RUNS[name])
    res = runner.execute(spec)
    write_outputs(spec, res, tmp_path)
    snapshots = [("", res.snapshot_rows)] if name != "sweep" else []
    snapshots += [(f"_{extra[0]}", extra[3]) for extra in res.extra_snapshots]
    assert len(snapshots) == (2 if name == "sweep" else 1)
    for suffix, snap in snapshots:
        path = tmp_path / f"{spec.name}{suffix}.{spec.output}"
        assert len(snap) == _data_rows(path) > 0


NONCONVEX_SWEEP = """
name = nonconvex
mode = velocity_reg
flux = cubic
initial = expression -0.5*tanh(x)
epsilon_list = 0.4 0.2
T = 0.3
dx = 0.05
domain = -2 2
"""


def test_nonconvex_sweep_rejected_before_any_solve(
    tmp_path, monkeypatch, capsys
):
    calls = []
    real_solve = diagnostics.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "solve", counting_solve)
    scn = _write(tmp_path, "nonconvex.scn", NONCONVEX_SWEEP)
    out = tmp_path / "out"
    rc = main(["sweep", str(scn), "--outdir", str(out)])
    assert rc == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("flux: ")
    assert not out.exists() or list(out.iterdir()) == []


def test_selftest_subset(tmp_path, capsys):
    rc = main(["selftest", "--criteria", "4", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "criterion  4 [PASS]" in out
    lines = (tmp_path / "selftest_results.txt").read_text().splitlines()
    assert lines == ["criterion  4 [PASS] catastrophe time"]
    rep = json.loads((tmp_path / "selftest_report.json").read_text())
    assert rep["passed"] is True
    assert rep["criteria"][0]["number"] == 4


def test_selftest_rejects_unknown_criterion(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["selftest", "--criteria", "99", "--outdir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "no criterion 99 (have 1..14)\n"
    assert list(tmp_path.iterdir()) == []  # an input error writes nothing


def test_selftest_outdir_that_is_a_file_fails_before_any_criterion(
    tmp_path, monkeypatch, capsys
):
    runs = []
    title, criterion, reads = acceptance._CRITERIA[4]

    def counting(registry):
        runs.append(4)
        return criterion(registry)

    monkeypatch.setitem(acceptance._CRITERIA, 4, (title, counting, reads))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    rc = main(["selftest", "--criteria", "4", "--outdir", str(taken)])
    assert rc == 1
    assert runs == []
    err = capsys.readouterr().err
    assert err.startswith("outdir: ") and err.count("\n") == 1, err
    assert taken.read_text() == "not a directory\n"


def test_selftest_outdir_that_cannot_take_the_files(tmp_path, capsys):
    (tmp_path / "selftest_results.txt").mkdir()
    rc = main(["selftest", "--criteria", "4", "--outdir", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "criterion  4 [PASS]" in captured.out
    assert captured.err.startswith("outdir: ")
    assert captured.err.count("\n") == 1, captured.err
