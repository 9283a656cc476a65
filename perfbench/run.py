"""nlclaw benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload riemann_runs --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run sets up, repeats passes over the
workload's operations until the next pass would end after ``--seconds``
(at least one pass), checks every output and prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced pass
over the same operations and prints the per-layer metrics; the two passes
must write byte-identical files.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Operation and pass times are load-normalised with speed samples taken
between operations (see calibration.py); the raw times stay in the result
file.  Set-up time is measured in fresh interpreters: the run starts
SETUP_PROBES children that import the package and generate the workload,
and reports the median time from spawn to ready, scaled by the median of
all the run's speed samples.

Everything the run writes goes under ``$CARGO_TARGET_DIR/perfbench``
(``.bench_build/perfbench`` by default): temporary outputs, which are
deleted, and one result file per (workload, seed, trace) with the
environment, every metric, the failing operations and the sha256 of every
output file.  ``perfbench/compare.py`` diffs two result files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One worker keeps the sweep pool serial: run-to-run spread on a shared
# two-CPU box stays low, and spans from the worker nest under the
# submitting thread's open span (see tracing.py).
NLCLAW_THREADS = "1"
SETUP_PROBES = 5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _work_root() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def _prepare_imports() -> None:
    if not (SRC / "nlclaw" / "__init__.py").is_file():
        _fail(f"no nlclaw package under {SRC}; run from a source checkout")
    os.environ["NLCLAW_THREADS"] = NLCLAW_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def _setup(workload: str, seed: int, workdir: Path, tiny: bool = False):
    """Imports and workload generation: everything before the first
    operation.  Returns the operation list."""
    import workloads

    if workload == "selftest_subset":
        import nlclaw.acceptance  # noqa: F401
    else:
        import nlclaw.runner  # noqa: F401
    ops = workloads.generate(workload, seed, tiny=tiny)
    workloads.write_scenarios(ops, workdir / "scenarios")
    return ops


def _probe_setup_times(workload: str, seed: int, workdir: Path) -> tuple:
    """Raw set-up times of SETUP_PROBES fresh interpreters, and speed
    samples taken around them."""
    import calibration

    times = []
    samples = calibration.samples(0.0)
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--probe-setup", str(probe_dir),
        ]
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        samples += calibration.samples(times[-1])
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times, samples


def _run_op(op, outdir: Path, scen: Path, full: bool, tracer):
    """Run one operation, timing only the call into nlclaw, then check it.
    Returns the OpResult and, for a criterion, its CriterionResult."""
    import tracing
    import workloads
    from nlclaw import acceptance, runner

    t0 = time.perf_counter()
    try:
        if op.kind == "criterion":
            if tracer is not None:
                with tracer.span(tracing.criterion_span(op.criterion)):
                    value = acceptance.run_criteria([op.criterion])[0]
            else:
                value = acceptance.run_criteria([op.criterion])[0]
        else:
            value = runner.run_file(scen / f"{op.name}.scn", outdir)
    except Exception as e:  # an operation failure, not a crash
        res = workloads.OpResult(op.name, seconds=time.perf_counter() - t0)
        res.fail(f"{type(e).__name__}: {e}")
        return res, None
    seconds = time.perf_counter() - t0
    try:
        if op.kind == "criterion":
            res = workloads.check_criterion(op, value)
        elif op.kind == "riemann":
            res = workloads.check_riemann(op, value, outdir, full)
        else:
            res = workloads.check_sweep(op, value, outdir, full)
    except Exception as e:  # malformed output counts against the operation
        res = workloads.OpResult(op.name)
        res.fail(f"output check: {type(e).__name__}: {e}")
    res.seconds = seconds
    return res, value if op.kind == "criterion" else None


def run_pass(ops, workdir: Path, full: bool, tracer=None) -> dict:
    """Run every operation once into a fresh output directory; return
    per-operation results, the raw and load-normalised pass times and
    every output digest.

    Only calls into nlclaw are timed; the output checks and the speed
    samples taken between operations are not.  Each operation's
    normalised time uses the mean of the speed samples taken just before
    and just after it (see calibration.py)."""
    import calibration
    import workloads
    from nlclaw import acceptance

    outdir = workdir / "out"
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    scen = workdir / "scenarios"
    results = []
    criteria = []
    gaps = [calibration.samples(0.0)]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        res, crit = _run_op(op, outdir, scen, full, tracer)
        gaps.append(calibration.samples(res.seconds))
        results.append(res)
        if crit is not None:
            criteria.append(crit)
    for i, r in enumerate(results):
        r.norm_seconds = calibration.normalise(r.seconds, gaps[i] + gaps[i + 1])
    wall = sum(r.seconds for r in results)
    norm_wall = sum(r.norm_seconds for r in results)
    problem = None
    digests = {}
    if ops[0].kind == "criterion":
        if tracer is not None:
            tracer.current_op = len(ops)
        t0 = time.perf_counter()
        acceptance.write_results(criteria, outdir)
        write_s = time.perf_counter() - t0
        gaps.append(calibration.samples(write_s))
        wall += write_s
        norm_wall += calibration.normalise(write_s, gaps[-2] + gaps[-1])
        files = [outdir / "selftest_results.txt",
                 outdir / "selftest_report.json"]
        if all(f.is_file() for f in files):
            digests = {f.name: workloads.sha256(f) for f in files}
        if not digests or not json.loads(files[1].read_text())["passed"]:
            problem = "selftest result files missing or report passed=false"
    else:
        for r in results:
            digests.update(r.digests)
    return {"results": results, "wall": wall, "norm_wall": norm_wall,
            "samples": gaps, "digests": digests, "problem": problem}


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(cache_root.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nlclaw_threads": NLCLAW_THREADS,
        "git_commit": _git_commit(),
        "shared_box": "measured on a machine shared with other workloads; "
                      "timings carry that noise",
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def accuracy(results) -> dict:
    """Accuracy figures of one pass, as the workloads produce them:
    front speeds on riemann_runs, eps sweeps on smooth_sweep and in
    criteria 9 and 11.  They are recorded and printed but carry no bound,
    because no figure exists on every workload."""
    fronts = [r.front_speed_relerr for r in results
              if r.front_speed_relerr is not None]
    errs = [r.sweep_err_l1 for r in results if r.sweep_err_l1 is not None]
    rates = [r.sweep_rate for r in results if r.sweep_rate is not None]
    return {
        "front_speed_relerr": max(fronts) if fronts else None,
        "sweep_err_l1": max(errs) if errs else None,
        "sweep_rate": min(rates) if rates else None,
    }


def measure(ops, workdir: Path, seconds: float) -> dict:
    """Untraced passes until the next one would end after `seconds`."""
    passes = []
    problems = []
    t_start = time.perf_counter()
    while True:
        p = run_pass(ops, workdir, full=not passes)
        passes.append(p)
        if p["problem"]:
            problems.append(p["problem"])
        if len(passes) > 1 and p["digests"] != passes[0]["digests"]:
            problems.append(f"pass {len(passes)} wrote different bytes "
                            "than pass 1")
        elapsed = time.perf_counter() - t_start
        if elapsed + p["wall"] > seconds:
            break
    return {"passes": passes, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="DIR",
                    help="internal: set up into DIR, print the ready time")
    args = ap.parse_args(argv)

    _prepare_imports()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r} "
              f"({', '.join(workloads.WORKLOADS)})")

    if args.probe_setup:
        _setup(args.workload, args.seed, Path(args.probe_setup))
        print(repr(time.monotonic()))
        return 0

    work_root = _work_root()
    workdir = work_root / "work" / f"{args.workload}-seed{args.seed}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        ops = _setup(args.workload, args.seed, workdir)
        if args.trace:
            summary = run_traced(args.workload, args.seed, ops, workdir)
        else:
            summary = run_untraced(args.workload, args.seed, args.seconds,
                                   ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result_dir = work_root / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    summary["environment"] = environment()
    if "spans" in summary:
        summary.pop("spans").write_spans(result_dir / f"{stem}_spans.npz")
        summary["spans_file"] = f"{stem}_spans.npz"
    (result_dir / f"{stem}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    _print_human(summary)
    line = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }
    print(json.dumps(line))
    return 0


def _op_table(results) -> list:
    return [
        {"name": r.name, "seconds": r.norm_seconds, "raw_seconds": r.seconds,
         "ok": r.ok, "reason": r.reason}
        for r in results
    ]


def run_untraced(workload: str, seed: int, seconds: float, ops,
                 workdir: Path) -> dict:
    import calibration

    setup_times, setup_samples = _probe_setup_times(workload, seed, workdir)
    m = measure(ops, workdir, seconds)
    passes = m["passes"]
    # A probe is another process, so the samples next to it track it
    # poorly; one factor from every sample of the run tracks the box.
    run_samples = setup_samples + [
        x for p in passes for gap in p["samples"] for x in gap
    ]
    speed = statistics.median(run_samples)
    all_results = [r for p in passes for r in p["results"]]
    attempted = len(all_results)
    failed = sum(1 for r in all_results if not r.ok)
    acc = accuracy(passes[0]["results"])
    metrics = {
        "wall_s": statistics.median(p["norm_wall"] for p in passes),
        "setup_s": calibration.normalise(
            statistics.median(setup_times), [speed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
        "op_p50_s": statistics.median(r.norm_seconds for r in all_results),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "ratio", "op_p50_s": "s"}
    problems = list(m["problems"])
    failing = [
        {"pass": i + 1, "name": r.name, "reason": r.reason}
        for i, p in enumerate(passes) for r in p["results"] if not r.ok
    ]
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "seconds": seconds,
        "samples": {"passes": len(passes), "operations": attempted,
                    "setups": len(setup_times)},
        "correct": not problems and failed == 0,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "accuracy": acc,
        "raw": {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(r.seconds for r in all_results),
            "pass_walls_s": [p["wall"] for p in passes],
            "op_seconds": [[r.seconds for r in p["results"]] for p in passes],
        },
        "raw_setup_times_s": setup_times,
        "pass_walls_s": [p["norm_wall"] for p in passes],
        "op_seconds": [[r.norm_seconds for r in p["results"]] for p in passes],
        "speed_samples_s": {"setup": setup_samples,
                            "passes": [p["samples"] for p in passes]},
        "operations_pass1": _op_table(passes[0]["results"]),
        "failing_operations": failing,
        "digests": passes[0]["digests"],
    }


def run_traced(workload: str, seed: int, ops, workdir: Path) -> dict:
    import tracing
    import workloads

    plain = run_pass(ops, workdir, full=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, workdir, full=False, tracer=tracer)
        tracer.wall_s = traced["wall"]
    finally:
        tracer.restore()
    problems = []
    for p in (plain, traced):
        if p["problem"]:
            problems.append(p["problem"])
    if traced["digests"] != plain["digests"]:
        changed = sorted(
            k for k in set(plain["digests"]) | set(traced["digests"])
            if plain["digests"].get(k) != traced["digests"].get(k)
        )
        problems.append("traced pass changed outputs: " + ", ".join(changed))
    left = tracer.unrestored()
    if left:
        problems.append("attributes not restored: " + ", ".join(left))
    values = tracer.metrics(workloads.SELFTEST_CRITERIA)
    values["trace.overhead_s"] = traced["norm_wall"] - plain["norm_wall"]
    if values["trace.unattributed_s"] < -1e-6:
        problems.append("self times exceed the traced wall time")
    results = plain["results"] + traced["results"]
    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    return {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "correct": not problems and failed == 0,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "untraced_wall_s": plain["wall"],
        "normalised_walls_s": {"untraced": plain["norm_wall"],
                               "traced": traced["norm_wall"]},
        "span_summary": tracer.summary(),
        "spans": tracer,
        "operations_pass1": _op_table(plain["results"]),
        "digests": plain["digests"],
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "runner.bytes_out":
        return "B"
    if name in ("solver.picard_per_step", "solver.active_share"):
        return "ratio"
    return "count"


def _print_human(summary: dict) -> None:
    s = summary
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}")
    if s["trace"]:
        print(f"samples: 1 untraced and 1 traced pass of "
              f"{s['attempted'] // 2} operations")
    else:
        n = s["samples"]
        print(f"samples: {n['passes']} passes, {n['operations']} operations, "
              f"{n['setups']} set-ups; times are medians over them")
    for name, m in s["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not s["trace"]:
        print(f"  {'failed_frac':40s} {s['failed_frac']:.6g} ratio")
        for name, value in s["accuracy"].items():
            if value is not None:
                print(f"  {name:40s} {value:.6g}")
    for f in s.get("failing_operations", []):
        print(f"  FAILED pass {f['pass']} {f['name']}: {f['reason']}")
    for p in s["problems"]:
        print(f"  PROBLEM {p}")


if __name__ == "__main__":
    sys.exit(main())
