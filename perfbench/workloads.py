"""Seeded workloads: generation, one operation at a time, output checks.

Every workload is a fixed list of operations made from the seed.  A pass
runs the list once, closed loop, in this process.  Each operation is
checked right after it ends (outside its timed interval): exit status,
report verdict, expected files, and the sha256 of every file it wrote.

riemann_runs
    Decreasing Riemann data (uL > uR) for each regularisation mode and
    flux, written as scenario text and run through ``runner.run_file``
    (parse, execute, CSV snapshots at a small stride, report).  T = 1/uL
    fixes the step count and grid of every case, so seeds change the data
    but not the amount of work.
smooth_sweep
    ``-a*tanh(k*(x-s))`` up to T = 0.5/a, between 0.4 and 0.6 times the
    catastrophe time 1/(a*k); T*a fixes the step count.  Run as a short
    ``epsilon_list`` sweep (nn mode, Burgers flux, Lax-Oleinik reference)
    through ``runner.run_file`` with JSON output and a stride that keeps
    only a few levels.
selftest_subset
    ``acceptance.run_criteria`` one criterion at a time, then
    ``write_results``.  The inputs are fixed by the claims; the seed has
    no effect.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("riemann_runs", "smooth_sweep", "selftest_subset")

# Combinations of regularisation mode and flux.  nn ignores the flux, so
# it appears once.
RIEMANN_COMBOS = (
    ("nn", "burgers"),
    ("velocity_reg", "burgers"),
    ("flux_reg", "burgers"),
    ("velocity_reg", "cubic"),
    ("flux_reg", "cubic"),
)
RIEMANN_CASES_PER_COMBO = 3

SMOOTH_SWEEPS = 8
SMOOTH_EPSILONS = (0.2, 0.1, 0.05)

# Criteria 1, 6, 7 and 10 repeat the solver shapes of the other workloads
# at a high cost, 5 re-solves them, 14 is two subprocess selftests.
SELFTEST_CRITERIA = (2, 3, 4, 8, 9, 11, 12, 13)
TINY_SELFTEST_CRITERIA = (4, 12)


@dataclass
class Operation:
    name: str
    kind: str  # riemann | sweep | criterion
    text: str = ""  # scenario document
    criterion: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class OpResult:
    name: str
    seconds: float = 0.0
    norm_seconds: float = 0.0
    ok: bool = True
    reason: str = ""
    digests: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    front_speed_relerr: float | None = None
    sweep_err_l1: float | None = None
    sweep_rate: float | None = None

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reason = f"{self.reason}; {reason}" if self.reason else reason


def _riemann_text(name, mode, flux, uL, uR):
    return "\n".join([
        f"name = {name}",
        f"mode = {mode}",
        f"flux = {flux}",
        f"initial = riemann {uL!r} {uR!r}",
        "epsilon = 0.1",
        f"T = {1.0 / uL!r}",
        "dx = 0.0025",
        "domain = -0.5 1.5",
        "stride = 8",
        "",
    ])


def _smooth_text(name, a, k, s):
    return "\n".join([
        f"name = {name}",
        "mode = nn",
        f"initial = expression -{a!r}*tanh({k!r}*(x-({s!r})))",
        "epsilon_list = " + " ".join(repr(e) for e in SMOOTH_EPSILONS),
        f"T = {0.5 / a!r}",
        "dx = 0.01",
        "domain = -3 3",
        "stride = 100",
        "output = json",
        "",
    ])


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The operation list of one workload; same seed, same operations.

    tiny keeps a few operations of the same shape, for the harness tests."""
    rng = random.Random(seed)
    ops = []
    if workload == "riemann_runs":
        combos = RIEMANN_COMBOS[:2] if tiny else RIEMANN_COMBOS
        per_combo = 1 if tiny else RIEMANN_CASES_PER_COMBO
        for _ in range(per_combo):
            for mode, flux in combos:
                uL = round(rng.uniform(0.8, 1.2), 4)
                uR = round(rng.uniform(0.0, 0.4), 4)
                name = f"r{len(ops):02d}_{mode}_{flux}"
                ops.append(Operation(
                    name, "riemann",
                    text=_riemann_text(name, mode, flux, uL, uR),
                    expect={"uL": uL, "uR": uR},
                ))
    elif workload == "smooth_sweep":
        for i in range(1 if tiny else SMOOTH_SWEEPS):
            a = round(rng.uniform(0.8, 1.2), 4)
            k = round(rng.uniform(0.8, 1.2), 4)
            s = round(rng.uniform(-0.5, 0.5), 4)
            name = f"s{i:02d}"
            ops.append(Operation(
                name, "sweep", text=_smooth_text(name, a, k, s),
                expect={"a": a},
            ))
    elif workload == "selftest_subset":
        crit = TINY_SELFTEST_CRITERIA if tiny else SELFTEST_CRITERIA
        for n in crit:
            ops.append(Operation(f"c{n:02d}", "criterion", criterion=n))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def write_scenarios(ops, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.kind != "criterion":
            (directory / f"{op.name}.scn").write_text(op.text)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_files(op: Operation, rc: int, outdir: Path, files) -> OpResult:
    """Exit status, presence and digests of the files an operation wrote,
    and the verdict of its report."""
    res = OpResult(op.name)
    if rc != 0:
        res.fail(f"exit status {rc}")
    missing = [f for f in files if not (outdir / f).is_file()]
    if missing:
        res.fail("missing " + ", ".join(missing))
        return res
    res.digests = {f: sha256(outdir / f) for f in files}
    report = json.loads((outdir / f"{op.name}_report.json").read_text())
    if not report.get("passed", False):
        failed = [c["name"] for c in report.get("checks", {}).get("checks", [])
                  if not c["passed"]]
        res.fail("report passed=false: " + ", ".join(failed))
    res.report = report
    return res


def check_riemann(op: Operation, rc: int, outdir: Path, full: bool) -> OpResult:
    files = [f"{op.name}.csv", f"{op.name}_report.json",
             f"{op.name}_profile.dat"]
    res = _check_files(op, rc, outdir, files)
    if not res.digests:
        return res
    front = res.report.get("front_speed") or {}
    if front.get("predicted") is None:
        res.fail("no front speed in report")
    else:
        res.front_speed_relerr = (
            abs(front["measured"] - front["predicted"]) / abs(front["predicted"])
        )
    if full:
        uL, uR = op.expect["uL"], op.expect["uR"]
        prof = np.loadtxt(outdir / f"{op.name}_profile.dat")
        if prof[:, 1].min() < uR or prof[:, 1].max() > uL:
            res.fail("final profile leaves [uR, uL]")
        with open(outdir / f"{op.name}.csv") as fh:
            head = [next(fh) for _ in range(3)]
        if not head[0].startswith("# nlclaw") or head[2] != "t,x,u\n":
            res.fail("unexpected CSV header")
    return res


def check_sweep(op: Operation, rc: int, outdir: Path, full: bool) -> OpResult:
    snaps = [f"{op.name}_eps{e!r}.json" for e in SMOOTH_EPSILONS]
    files = [f"{op.name}_report.json", f"{op.name}_table.dat"] + snaps
    res = _check_files(op, rc, outdir, files)
    if not res.digests:
        return res
    table = res.report["table"]
    res.sweep_err_l1 = float(table["rows"][-1]["error_L1"])
    res.sweep_rate = float(table["fitted_rate"])
    if full:
        finest = json.loads((outdir / snaps[-1]).read_text())
        rows = np.asarray(finest["rows"], dtype=float)
        a = op.expect["a"]
        if rows[:, 2].min() < -a or rows[:, 2].max() > a:
            res.fail("finest-eps snapshot leaves [-a, a]")
        if finest["columns"] != ["t", "x", "u"]:
            res.fail("unexpected JSON snapshot columns")
    return res


def check_criterion(op: Operation, result) -> OpResult:
    res = OpResult(op.name)
    if not result.passed:
        res.fail("FAIL: " + json.dumps(result.details)[:300])
    d = result.details
    if op.criterion == 9:
        res.sweep_err_l1 = float(d["l1_errors"][-1])
        res.sweep_rate = float(d["slope_3_smallest"])
    elif op.criterion == 11:
        res.sweep_err_l1 = float(d["nn_gaps"][-1])
        res.sweep_rate = float(d["slope"])
    return res
