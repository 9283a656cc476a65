"""Execute parsed scenarios: solve, check, and serialise.

Output files per run, all deterministic byte for byte (no wall clock,
no machine identity, no environment variable):

    <name>.csv           snapshots, columns t,x,u (x,y,u for nn2d,
                         t,x,rho,v for euler); .json with the same
                         numbers when output = json
    <name>_report.json   checks and measurements; leading keys name the
                         version, scenario, mode, epsilon, dx, dt
    <name>_profile.dat   plot-ready two columns (final profile)
    <name>_table.dat     sweeps only: eps vs errors, plot-ready

Exit status: 0 all mode-required checks pass, 1 input error (nothing
written), 2 check failure or solver abort.  Either failure says why on
stderr; a check failure in one line that names each failed check with
its value and threshold.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    CheckResult,
    DiagnosticsReport,
    MultipleCrossingsError,
    NoCrossingError,
    StudyScenario,
    check_invariants,
    convergence_study,
    front_speed_check,
    sweep_dx,
)
from .euler import conservative_residual, recombine, solve_isentropic
from .fluxes import FluxSpec, burgers_flux, cubic_flux
from .grids import DatumError, RiemannData, sample, sup_norm
from .reference import NonConvexFluxError
from .scenario import ScenarioError, ScenarioSpec, parse_scenario
from .solver import (
    FLUX_MODES,
    LEVEL_BUDGET,
    PicardDivergenceError,
    SolverConfig,
    WorkBudgetError,
    schedule,
    solve,
    transport_step,
)
from .kernel import ResolutionError
from .twodim import sample_2d, solve_velocity_reg_2d, tv_2d

__all__ = [
    "EXIT_CHECK_FAILED",
    "EXIT_INPUT_ERROR",
    "EXIT_OK",
    "read_scenario",
    "run",
    "run_file",
]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CHECK_FAILED = 2
# the largest |slope| of a sweep's L1 errors over log epsilon that a
# non-convergence sweep accepts as a plateau
PLATEAU_SLOPE = 0.1

_RUN_ERRORS = (
    PicardDivergenceError,
    ResolutionError,
    NoCrossingError,
    MultipleCrossingsError,
)


def _flux_spec(spec: ScenarioSpec, sup0: float) -> FluxSpec:
    """The scenario's flux, its spot-check sized to the data's sup-norm
    sup0: radius max(1, 1.5 sup0).  A flux that fails the check is an
    input error on flux."""
    fc = spec.flux
    radius = max(1.0, 1.5 * sup0)
    try:
        if fc.kind == "burgers":
            return burgers_flux(radius=radius)
        if fc.kind == "cubic":
            return cubic_flux(radius=radius)
        return FluxSpec(fc.f, fc.fprime, radius=radius)
    except ValueError as e:
        raise ScenarioError([f"flux: {e}"]) from None


def _meta(spec, epsilon, dx, dt) -> dict:
    return {
        "version": __version__,
        "scenario": spec.name,
        "mode": spec.mode,
        "epsilon": epsilon,
        "dx": dx,
        "dt": dt,
    }


class Snapshot:
    """A result table of len(levels) * len(nodes) rows, level by level.

    levels holds one value per level (a time, or nn2d's y), nodes the
    grid coordinates, and each of fields an array of shape (len(levels),
    len(nodes)).  order lists the columns by index into (level, node,
    field 0, field 1, ...): (0, 1, 2) is (t, x, u), (1, 0, 2) is nn2d's
    (x, y, u), and (1, 2) is a plot's (x, u), with no level column.  The
    arrays are held, not copied; len() is the number of rows.
    """

    def __init__(self, levels, nodes, fields: tuple, order: tuple = ()):
        self.levels = np.asarray(levels, dtype=float)
        self.nodes = np.asarray(nodes, dtype=float)
        self.fields = tuple(np.asarray(f, dtype=float) for f in fields)
        self.order = tuple(order) or tuple(range(2 + len(self.fields)))

    def __len__(self) -> int:
        return self.levels.size * self.nodes.size


def _profile(x: np.ndarray, values: np.ndarray) -> Snapshot:
    """The plot-ready one-level table (x, values)."""
    return Snapshot((0.0,), x, (values[np.newaxis],), order=(1, 2))


class RunResult:
    """Everything one scenario run produced, ready to serialise.

    The report is the meta keys, then the run kind's body in its own key
    order, then "passed"; failed lists the diagnostics.CheckResults that
    failed (a sweep's named by their epsilon).  snapshot_rows is the run's
    Snapshot, whose len() is the number of rows its file holds;
    extra_snapshots holds a sweep's per-epsilon (suffix, meta, columns,
    Snapshot); plots maps the suffix of a plot-ready .dat file to its
    (columns, rows), where rows is a Snapshot or a list of tuples.
    """

    def __init__(
        self, meta: dict, body: dict, passed: bool, columns: tuple = (),
        rows: Snapshot | None = None, plots: dict | None = None,
        extra_snapshots: list | None = None, failed: list | None = None,
    ):
        self.meta = meta
        self.passed = bool(passed)
        self.failed = failed or []
        self.report = {**meta, **body, "passed": self.passed}
        self.snapshot_columns = columns
        self.snapshot_rows = rows
        self.plots = plots or {}
        self.extra_snapshots = extra_snapshots or []


def _sample(key: str, data, a: float, b: float, dx: float):
    """sample(), with a datum that cannot be sampled (non-finite values,
    breakpoints closer than the grid resolves) reported as an input error
    on its scenario key."""
    try:
        return sample(data, a, b, dx)
    except ValueError as e:
        raise ScenarioError([f"{key}: {e}"]) from None


def _datum_and_flux(spec: ScenarioSpec, dx: float, reads_flux: bool):
    """The 1D datum, its samples on the domain at spacing dx, and, when the
    run reads_flux, the flux sized to the sampled range (else None, so a
    flux the run never reads is never checked)."""
    data = spec.initial
    u0 = _sample("initial", data, spec.domain[0], spec.domain[1], dx)
    return data, u0, _flux_spec(spec, sup_norm(u0)) if reads_flux else None


def _run_1d_single(spec: ScenarioSpec) -> RunResult:
    data, u0, flux = _datum_and_flux(spec, spec.dx, spec.mode in FLUX_MODES)
    cfg = SolverConfig(cfl=spec.cfl, store_stride=spec.stride)
    shock = isinstance(data, RiemannData) and data.uL > data.uR
    # the solver stores exactly schedule's times, so their levels are checked
    # before solving; the conservative solver's adaptive times only after
    adaptive = spec.mode == "conservative"
    if shock and not adaptive:
        times = schedule(
            u0, spec.T, cfg, transport_step(cfg, u0.dx, u0.values, data)
        )
        _check_levels(times, 0.5 * spec.T, 2, spec, "front-speed fit")
    traj = solve(spec.mode, u0, spec.epsilon, spec.T, cfg, data=data, flux=flux)

    rep = check_invariants(traj)
    front = {}
    if shock:
        if adaptive:
            _check_levels(traj.times, 0.5 * spec.T, 2, spec, "front-speed fit")
        fit, predicted, check = front_speed_check(traj, flux, data, spec.T)
        front["front_speed"] = {
            "measured": fit.speed,
            "stderr": fit.stderr,
            "predicted": predicted,
        }
        if check is not None:
            rep.checks.append(check)
    fin = traj.final
    return RunResult(
        _meta(spec, spec.epsilon, spec.dx, traj.dt),
        {"checks": rep.as_dict(), **front}, rep.passed,
        ("t", "x", "u"),
        Snapshot(traj.times, fin.x, (traj.values,)),
        plots={"profile": (("x", "u"), _profile(fin.x, fin.values))},
        failed=rep.failed,
    )


def _run_sweep(spec: ScenarioSpec) -> RunResult:
    # probe on the coarsest row's grid: a datum that grid resolves is
    # resolved by every finer row
    dx = sweep_dx(spec.dx, max(spec.epsilon_list))
    if spec.expect == "nonconvergence" and isinstance(
        spec.initial, RiemannData
    ):
        ref_name = "fan"
    elif spec.flux.kind == "burgers":
        ref_name = "lax_oleinik"
    else:
        ref_name = "godunov"
    data, _, flux = _datum_and_flux(
        spec, dx, spec.mode in FLUX_MODES or ref_name == "godunov"
    )
    scenario = StudyScenario(
        data, spec.T, spec.domain, mode=spec.mode, flux=flux, dx_max=spec.dx
    )
    cfg = SolverConfig(cfl=spec.cfl, store_stride=spec.stride)
    try:
        table = convergence_study(scenario, spec.epsilon_list, ref_name, cfg)
    except NonConvexFluxError as e:  # the Godunov reference needs convexity
        raise ScenarioError([f"flux: {e}"]) from None

    run_reports, failed, snapshots = [], [], []
    for row in table.rows:
        traj = row.trajectory
        rep = check_invariants(traj)
        run_reports.append({"epsilon": row.epsilon, "checks": rep.as_dict()})
        failed += [
            replace(c, name=f"eps {row.epsilon!r} {c.name}")
            for c in rep.failed
        ]
        snapshots.append((
            f"eps{row.epsilon!r}", _meta(spec, row.epsilon, row.dx, row.dt),
            ("t", "x", "u"),
            Snapshot(traj.times, traj.grid.x, (traj.values,)),
        ))

    body = {"table": table.as_dict(), "runs": run_reports}
    if spec.expect == "nonconvergence":
        slope_all = table.fit_rate("l1", n_points=None)
        plateau = abs(slope_all) <= PLATEAU_SLOPE
        body["nonconvergence"] = {
            "slope_all_rows": slope_all,
            "passed": bool(plateau),
        }
        if not plateau:
            failed.append(CheckResult(
                "nonconvergence |slope_all_rows|", False, abs(slope_all),
                PLATEAU_SLOPE,
            ))
    table_rows = [row.as_dict() for row in table.rows]
    return RunResult(
        _meta(spec, [row.epsilon for row in table.rows], spec.dx, None),
        body, not failed,
        plots={"table": (
            tuple(table_rows[0]), [tuple(r.values()) for r in table_rows]
        )},
        failed=failed,
        extra_snapshots=snapshots,
    )


def _run_euler(spec: ScenarioSpec) -> RunResult:
    a, b = spec.domain
    rho0 = _sample("initial", spec.initial, a, b, spec.dx)
    if spec.velocity is not None:
        vel0 = _sample("velocity", spec.velocity, a, b, spec.dx)
    else:
        vel0 = rho0.with_values(np.zeros(rho0.n))
    cfg = SolverConfig(cfl=spec.cfl, store_stride=spec.stride)
    mu, lam = solve_isentropic(rho0, vel0, spec.epsilon, spec.T, cfg)
    rho, vel = recombine(mu, lam)
    _check_levels(mu.times, 0.0, 3, spec, "conservative residual")
    r1, r2 = conservative_residual(rho0, mu.times, rho, vel)
    merged = DiagnosticsReport(mode="euler")
    for prefix, traj in (("mu", mu), ("lam", lam)):
        for c in check_invariants(traj).checks:
            merged.add(
                f"{prefix}_{c.name}", c.passed, c.value, c.threshold, c.detail
            )
    body = {
        "checks": merged.as_dict(),
        "conservative_residual": {"mass": r1, "momentum": r2},
        "vacuum_flagged": bool(np.min(rho) <= 0.0),
    }
    x = rho0.x
    return RunResult(
        _meta(spec, spec.epsilon, spec.dx, mu.dt), body, merged.passed,
        ("t", "x", "rho", "v"),
        Snapshot(mu.times, x, (rho, vel)),
        plots={"profile": (("x", "rho"), _profile(x, rho[-1]))},
        failed=merged.failed,
    )


def _run_2d(spec: ScenarioSpec) -> RunResult:
    a, b = spec.domain
    ya, yb = spec.domain_y if spec.domain_y is not None else spec.domain
    try:
        u0 = sample_2d(
            lambda X, Y: spec.initial(X) + 0.0 * Y,
            a, b, ya, yb, spec.dx, spec.dx,
        )
    except ValueError as e:
        raise ScenarioError([f"initial: {e}"]) from None
    flux = _flux_spec(spec, sup_norm(u0))
    cfg = SolverConfig(cfl=spec.cfl, store_stride=spec.stride)
    tr = solve_velocity_reg_2d(u0, (flux, flux), spec.epsilon, spec.T, cfg)
    fin = tr.final
    lo0, hi0 = float(np.min(u0.values)), float(np.max(u0.values))
    lo, hi = float(np.min(fin.values)), float(np.max(fin.values))
    tv0 = tv_2d(u0)
    tvT = tv_2d(fin)
    rep = DiagnosticsReport(mode="nn2d")
    rep.add(
        "max_principle", lo >= lo0 and hi <= hi0, max(hi - hi0, lo0 - lo),
        0.0, detail="range of u(T) inside range of u0, exactly",
    )
    rep.add(
        "tv_growth", tvT <= 1.05 * tv0 + 1e-12, tvT, 1.05 * tv0,
        detail="terminal 2D total variation within 5% of initial",
    )
    # the final state with y as the level, in columns (x, y, u)
    rows = Snapshot(u0.y, u0.x, (fin.values,), order=(1, 0, 2))
    mid = fin.values[u0.y.size // 2]
    return RunResult(
        _meta(spec, spec.epsilon, spec.dx, tr.dt),
        {"checks": rep.as_dict(), "tv": {"initial": tv0, "final": tvT}},
        rep.passed, ("x", "y", "u"), rows,
        plots={"profile": (("x", "u"), _profile(u0.x, mid))},
        failed=rep.failed,
    )


def _check_levels(times, t_from: float, need: int, spec, use: str) -> None:
    """Reject a run whose stride stores fewer than need levels in [t_from,
    T], or ones less than (T - t_from)/2 apart, as an input error on stride
    (on dx at stride 1, which stores every step: only more steps help)."""
    kept = times[times >= t_from - 1e-12]  # T is one of them
    if kept.size < need or kept[-1] - kept[0] < 0.5 * (spec.T - t_from):
        key, what = "stride", f"stride {spec.stride} stores"
        if spec.stride == 1:
            n = times.size - 1
            key, what = "dx", f"dx {spec.dx!r} takes {n} step(s) and stores"
        raise ScenarioError([
            f"{key}: {what} {kept.size} level(s) "
            f"{kept[-1] - kept[0]:.3g} apart in [{t_from!r}, T = {spec.T!r}]; "
            f"the {use} needs {need} spanning half of it, so lower "
            + ("the stride" if key == "stride" else "dx")
        ])


def _check_sizes(spec: ScenarioSpec) -> None:
    """Reject, before anything is allocated, a grid or kernel no solve
    could keep within LEVEL_BUDGET: the nodes of the domain (nx*ny in
    nn2d; a sweep row's dx is sweep_dx) and the 2*ceil(eps/dx) + 1
    kernel weights.  Counts are floats, so no huge input overflows."""
    (a, b), (ya, yb) = spec.domain, spec.domain_y or spec.domain
    for eps in spec.epsilon_list or (spec.epsilon,):
        dx = spec.dx if spec.epsilon_list is None else sweep_dx(spec.dx, eps)
        nodes = (b - a) / dx + 1.0
        if spec.mode == "nn2d":
            nodes *= (yb - ya) / dx + 1.0
        for key, count, what in (
            ("dx" if dx == spec.dx else "epsilon", nodes,
             "grid nodes on the domain"),
            ("epsilon", 2.0 * np.ceil(eps / dx) + 1.0, "kernel weights"),
        ):
            if count > LEVEL_BUDGET:
                raise ScenarioError([
                    f"{key}: epsilon = {eps!r} and dx = {dx!r} need "
                    f"{count:.3g} {what}, above the budget of "
                    f"{LEVEL_BUDGET:.0e}"
                ])


def execute(spec: ScenarioSpec) -> RunResult:
    if spec.epsilon_list is None and spec.epsilon < spec.dx:
        raise ScenarioError([
            f"epsilon: {spec.epsilon!r} is below dx = {spec.dx!r}; the grid "
            "does not resolve the kernel"
        ])
    _check_sizes(spec)
    if spec.mode == "euler":
        return _run_euler(spec)
    if spec.mode == "nn2d":
        return _run_2d(spec)
    if spec.epsilon_list is not None:
        return _run_sweep(spec)
    return _run_1d_single(spec)


# json's spelling of the floats whose repr is not a JSON number
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _reprs(values: np.ndarray, spelling: dict, suffix: str) -> list:
    """repr of every float in a 1D array, the reprs that spelling names
    replaced and suffix appended, as a list of str.  Each distinct value
    is formatted and suffixed once; values are told apart by their bits,
    because 0.0 == -0.0 although their reprs differ.  (np.unique(...,
    return_inverse=True) finds the same, at about twice the cost on a row
    of 801 nodes with numpy 2.4.)"""
    keys = values.view(np.uint64)
    bits = np.sort(keys)
    bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    text = [spelling.get(t, t) + suffix for t in text]
    return np.array(text, dtype=object)[bits.searchsorted(keys)].tolist()


def _level_text(snap: Snapshot, sep: str, end: str, spelling: dict):
    """The rows of snap level by level: for each level one str holding a
    line per node, the row's values joined by sep in _reprs form and the
    line ended by end.

    The lines are laid out in one list per table, one piece per value: a
    row of k columns is k pieces, each value carrying the sep that follows
    it, or end in the last column.  The node column is filled in once per
    table; each level fills in its level column and its field columns
    (each distinct value of a field row formatted once) and joins the
    list.
    """
    n, w = snap.nodes.size, len(snap.order)
    if not len(snap):
        return
    ends = [sep] * (w - 1) + [end]
    text = [""] * (w * n)
    for c, col in enumerate(snap.order):
        if col == 1:
            text[c::w] = _reprs(snap.nodes, spelling, ends[c])
    for i, level in enumerate(_reprs(snap.levels, spelling, "")):
        for c, col in enumerate(snap.order):
            if col == 0:
                text[c::w] = [level + ends[c]] * n
            elif col > 1:
                text[c::w] = _reprs(snap.fields[col - 2][i], spelling, ends[c])
        yield "".join(text)


def _write_table(path: Path, meta: dict, header: str, sep: str, rows) -> Path:
    """The one text layout: two meta lines, the header line, then one line
    per row, values joined by sep in repr form (shortest round-trip floats,
    True/False).

    rows is a Snapshot, written level by level as _level_text lays it
    out (each distinct value of a level's field row formatted once with
    its sep or the newline appended, distinct by bit pattern: -0.0 prints
    as -0.0 and 0.0 as 0.0, as repr prints them), or a list of tuples.
    """
    with open(path, "w") as fh:
        fh.write(f"# nlclaw {meta['version']}\n")
        fh.write(
            "# scenario={scenario} mode={mode} epsilon={epsilon} dx={dx} "
            "dt={dt}\n".format(**meta)
        )
        fh.write(header + "\n")
        if not isinstance(rows, Snapshot):
            fh.write("".join(sep.join(map(repr, r)) + "\n" for r in rows))
            return path
        for text in _level_text(rows, sep, "\n", {}):
            fh.write(text)
    return path


def _write_json(path: Path, meta: dict, columns, rows: Snapshot) -> None:
    """json.dumps({**meta, "columns": list(columns), "rows": <the rows of
    the Snapshot as lists>}, indent=2) + "\n", byte for byte.  json formats
    the meta and columns; the rows are laid out at indent 2 here, level by
    level from _level_text, whose values carry the ",\n      " that follows
    them and whose rows end by closing the row and opening the next, an
    end cut from each level's last row (json writes a float as its repr,
    and the non-finite ones as _JSON_SPELLING spells them)."""
    head = json.dumps({**meta, "columns": list(columns), "rows": []}, indent=2)
    if not len(rows):
        path.write_text(head + "\n")
        return
    # a row is "    [\n      " + values + "\n    ]", rows joined by ",\n"
    end = "\n    ],\n    [\n      "
    with open(path, "w") as fh:
        fh.write(head[:-len("[]\n}")] + "[\n    [\n      ")
        levels = _level_text(rows, ",\n      ", end, _JSON_SPELLING)
        for k, text in enumerate(levels):
            fh.write((end if k else "") + text[:-len(end)])
        fh.write("\n    ]\n  ]\n}\n")


def write_outputs(
    spec: ScenarioSpec, res: RunResult, outdir: Path,
    verify_only: bool = False,
) -> list:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / f"{spec.name}_report.json"
    report_path.write_text(json.dumps(res.report, indent=2) + "\n")
    written = [report_path]
    if verify_only:
        return written

    snapshots = [("", res.meta, res.snapshot_columns, res.snapshot_rows)]
    snapshots += [(f"_{s}", m, c, r) for s, m, c, r in res.extra_snapshots]
    for suffix, meta, columns, rows in snapshots:
        if rows is None:
            continue
        # names may contain dots (eps values), so no Path.with_suffix
        path = outdir / f"{spec.name}{suffix}.{spec.output}"
        if spec.output == "json":
            _write_json(path, meta, columns, rows)
        else:
            _write_table(path, meta, ",".join(columns), ",", rows)
        written.append(path)
    for suffix, (columns, rows) in res.plots.items():
        written.append(_write_table(
            outdir / f"{spec.name}_{suffix}.dat", res.meta,
            "# " + " ".join(columns), " ", rows,
        ))
    return written


def run(spec: ScenarioSpec, outdir, verify_only: bool = False) -> int:
    """Execute one validated scenario and write its result files."""
    try:
        res = execute(spec)
    except ScenarioError as e:
        for msg in e.errors:
            print(msg, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except WorkBudgetError as e:  # too much work or storage for one solve
        print(f"{e.key}: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DatumError as e:  # met by a sweep row's grid or a solver's foot
        print(f"initial: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except _RUN_ERRORS as e:
        print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    try:
        write_outputs(spec, res, Path(outdir), verify_only=verify_only)
    except OSError as e:  # outdir is a file, or cannot take the files
        print(f"outdir: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not res.passed:
        print("checks failed: " + "; ".join(
            f"{c.name} = {c.value!r} (threshold {c.threshold!r})"
            for c in res.failed
        ), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def read_scenario(path) -> ScenarioSpec | None:
    """Read and parse a scenario file; on failure print why and return
    None."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return None
    try:
        return parse_scenario(text)
    except ScenarioError as e:
        for msg in e.errors:
            print(f"{path}: {msg}", file=sys.stderr)
        return None


def run_file(path, outdir, verify_only: bool = False) -> int:
    """Parse a scenario file and run it; input errors write nothing."""
    spec = read_scenario(path)
    if spec is None:
        return EXIT_INPUT_ERROR
    return run(spec, outdir, verify_only=verify_only)
