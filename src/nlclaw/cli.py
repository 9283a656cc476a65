"""Command line surface.

Subcommands:

    nlclaw run <scenario>       solve one scenario file
    nlclaw sweep <scenario>     epsilon sweep (file must set epsilon_list)
    nlclaw riemann --uL --uR    Riemann problem straight from flags
    nlclaw euler <scenario>     isentropic Euler scenario (mode = euler)
    nlclaw verify <scenario>    diagnostics only, no snapshot files
    nlclaw selftest             acceptance battery (subset via --criteria)

Exit status everywhere: 0 success, 1 input error, 2 check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .runner import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    _flux_spec,
    read_scenario,
    run,
    run_file,
)
from .scenario import ScenarioError, ScenarioSpec, spec_from_fields
from .solver import FLUX_MODES, speed_bound

__all__ = ["main"]


def _add_outdir(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--outdir", default=".", help="directory for result files"
    )


def _cmd_run(args) -> int:
    return run_file(args.scenario, args.outdir)


def _cmd_sweep(args) -> int:
    spec = read_scenario(args.scenario)
    if spec is None:
        return EXIT_INPUT_ERROR
    if spec.epsilon_list is None:
        print(
            f"{args.scenario}: sweep needs epsilon_list in the scenario",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    return run(spec, args.outdir)


def _cmd_verify(args) -> int:
    return run_file(args.scenario, args.outdir, verify_only=True)


def _cmd_euler(args) -> int:
    spec = read_scenario(args.scenario)
    if spec is None:
        return EXIT_INPUT_ERROR
    if spec.mode != "euler":
        print(
            f"{args.scenario}: euler subcommand needs mode = euler",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    return run(spec, args.outdir)


def _riemann_domain(spec: ScenarioSpec) -> tuple:
    """[-reach, reach] with reach = 1 + max(S, 1) T, S the mode's
    solver.speed_bound on uL and uR: the fronts stay inside until T."""
    states = (spec.initial.uL, spec.initial.uR)
    reads_flux = spec.mode in FLUX_MODES
    flux = _flux_spec(spec, max(map(abs, states))) if reads_flux else None
    reach = 1.0 + max(speed_bound(spec.mode, flux, states), 1.0) * spec.T
    return (-reach, reach)


def _cmd_riemann(args) -> int:
    flags = ("name", "mode", "flux", "epsilon", "T", "dx", "stride")
    fields = {key: (f"--{key}", getattr(args, key)) for key in flags}
    fields["initial"] = ("--uL/--uR", f"riemann {args.uL} {args.uR}")
    if args.domain is not None:
        fields["domain"] = ("--domain", " ".join(args.domain))
    try:
        spec = spec_from_fields(fields, default_domain=_riemann_domain)
    except ScenarioError as e:
        for msg in e.errors:
            print(msg, file=sys.stderr)
        return EXIT_INPUT_ERROR
    return run(spec, args.outdir)


def _cmd_selftest(args) -> int:
    from .acceptance import parse_criteria_arg, run_criteria, write_results

    try:
        numbers = parse_criteria_arg(args.criteria)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT_ERROR
    outdir = Path(args.outdir)
    try:  # an unusable outdir fails before any criterion runs
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"outdir: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    results = run_criteria(numbers)
    for r in results:
        print(r.line())
    try:
        write_results(results, outdir)
    except OSError as e:  # outdir cannot take the files
        print(f"outdir: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="nlclaw",
        description="nonlocal transport regularisations of scalar "
        "conservation laws: solvers, references, and checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve one scenario file")
    p.add_argument("scenario", help="scenario file path")
    _add_outdir(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="epsilon sweep of a scenario file")
    p.add_argument("scenario", help="scenario file with epsilon_list")
    _add_outdir(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("riemann", help="Riemann problem from flags")
    # number flags stay text: the scenario validator parses them
    p.add_argument("--uL", required=True)
    p.add_argument("--uR", required=True)
    p.add_argument(
        "--flux", choices=("burgers", "cubic"), default="burgers"
    )
    p.add_argument(
        "--mode",
        choices=("nn", "velocity_reg", "flux_reg", "conservative"),
        default="nn",
    )
    p.add_argument("--epsilon", default="0.1")
    p.add_argument("--T", default="1.0")
    p.add_argument("--dx", default="1e-3")
    p.add_argument("--domain", nargs=2, metavar=("A", "B"), default=None)
    p.add_argument("--stride", default="25")
    p.add_argument("--name", default="riemann")
    _add_outdir(p)
    p.set_defaults(fn=_cmd_riemann)

    p = sub.add_parser("euler", help="isentropic Euler scenario")
    p.add_argument("scenario", help="scenario file with mode = euler")
    _add_outdir(p)
    p.set_defaults(fn=_cmd_euler)

    p = sub.add_parser("verify", help="diagnostics only, no snapshots")
    p.add_argument("scenario", help="scenario file path")
    _add_outdir(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument(
        "--criteria",
        default=None,
        help="comma-separated criterion numbers (default: all); the "
        "criteria whose solves a selected one reads also run, but only "
        "the selected ones are printed and written",
    )
    _add_outdir(p)
    p.set_defaults(fn=_cmd_selftest)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
