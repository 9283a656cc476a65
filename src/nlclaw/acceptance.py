"""Acceptance battery: the numbered claims this artifact stands behind.

Each criterion is one function returning its pass/fail verdict and the
measured numbers behind it; run_criteria wraps them, with the title from
the one criterion table, into a CriterionResult.  The table also names
the criteria whose registered solves a criterion reads; those run first,
so a verdict means the same whatever subset was requested.  The same
battery backs the pytest acceptance suite and the ``nlclaw selftest``
subcommand, so the shipped checks and the tested checks cannot drift
apart.  Results carry no wall-clock or machine identity: the written
files are byte-identical across repeated runs.

Criterion list:

     1  Riemann shock front speed (NN, two eps, mutual agreement)
     2  rarefaction non-convergence plateau
     3  smooth-regime convergence rate and error bound
     4  catastrophe time formula
     5  structural invariants on the runs of criteria 1, 6, 7 and 10
     6  general-flux Riemann speeds differ from Rankine-Hugoniot
     7  Burgers-mode equivalence of the three regularisations
     8  oracle triangulation (Godunov, Lax-Oleinik, front tracking)
     9  piecewise-Lipschitz-increasing datum: convergence and Oleinik
    10  L1 stability envelope under a datum shift
    11  first-order counterexample datum: NN converges, conservative not
    12  Euler residual refinement, round trip, mutation detection
    13  2D dimensional reduction and max principle
    14  selftest determinism (byte-identical result files)
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .diagnostics import (
    ENVELOPE_SLACK,
    FRONT_SPEED_TOL,
    StudyScenario,
    catastrophe_time,
    check_invariants,
    convergence_study,
    front_speed_check,
    oleinik_check,
    stability_envelope,
)
from .euler import (
    conservative_residual,
    from_invariants,
    recombine,
    solve_isentropic,
    to_invariants,
)
from .fluxes import burgers_flux, cubic_flux, zero_flux
from .grids import (
    GridFunction1D,
    PiecewiseInitialData,
    RiemannData,
    l1_distance,
    sample,
)
from .kernel import build_mollifier
from .reference import front_tracking_solve, godunov_solve, lax_oleinik_solve
from .solver import (
    SolverConfig,
    solve_conservative_nonlocal,
    solve_general,
    solve_nn,
)
from .twodim import sample_2d, solve_velocity_reg_2d

__all__ = [
    "CriterionResult",
    "parse_criteria_arg",
    "run_criteria",
    "write_results",
]

@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: dict

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{verdict}] {self.title}"

    def as_dict(self) -> dict:
        return {
            "number": self.number,
            "title": self.title,
            "passed": bool(self.passed),
            "details": self.details,
        }


def _neg_tanh(x):
    return -np.tanh(x)


def _criterion_1(reg: dict) -> tuple[bool, dict]:
    # decreasing Riemann datum (1, 0): the regularised front travels at
    # the mean of the two states, for every eps
    data = RiemannData(1.0, 0.0)
    dx = 1e-3
    u0 = sample(data, -2.2, 2.8, dx)
    cfg = SolverConfig(store_stride=25)
    T = 1.0
    speeds, each_ok = {}, True
    for eps in (0.1, 0.05):
        traj = solve_nn(u0, eps, T, cfg, data=data)
        reg[f"c1_nn_eps{eps}"] = traj
        fit, target, check = front_speed_check(traj, None, data, T)
        speeds[eps] = fit.speed
        each_ok = each_ok and check.passed
    agreement = abs(speeds[0.1] - speeds[0.05])
    agree_ok = agreement <= 2.0 * dx / T
    return each_ok and agree_ok, {
        "speeds": {str(k): float(v) for k, v in speeds.items()},
        "target": target,
        "tolerance_rel": FRONT_SPEED_TOL,
        "agreement": float(agreement),
        "agreement_bound": 2.0 * dx / T,
    }


def _criterion_2(reg: dict) -> tuple[bool, dict]:
    scenario = StudyScenario(
        RiemannData(-1.0, 1.0), T=1.0, window=(-2.0, 2.0), mode="nn"
    )
    table = convergence_study(
        scenario, (0.2, 0.1, 0.05, 0.025, 0.0125), reference="fan"
    )
    errs = table.errors("l1")
    plateau_ok = bool(np.all(np.abs(errs - 1.0) <= 0.1))
    slope = table.fit_rate("l1", n_points=None)
    slope_ok = abs(slope) <= 0.1
    return plateau_ok and slope_ok, {
        "l1_errors": [float(e) for e in errs],
        "plateau_target": 1.0,
        "plateau_tolerance": 0.1,
        "slope_all_rows": float(slope),
        "slope_bound": 0.1,
    }


def _criterion_3(reg: dict) -> tuple[bool, dict]:
    # T = 0.5 is before the catastrophe time 1 of -tanh; the error bound
    # eps * L^2 M T * exp(L M T) has L = 2, M = 1, plus 10% allowance
    scenario = StudyScenario(_neg_tanh, T=0.5, window=(-3.0, 3.0), mode="nn")
    epsilons = (0.2, 0.1, 0.05, 0.025)
    table = convergence_study(scenario, epsilons, reference="lax_oleinik")
    rate = table.fit_rate("sup", n_points=3)
    rate_ok = rate >= 0.8
    bound_factor = 2.0 * np.e * 1.1  # L^2 M T e^{LMT} * 1.1 at T = 0.5
    bounds_ok = all(
        row.error_sup <= eps * bound_factor
        for row, eps in zip(table.rows, sorted(epsilons, reverse=True))
    )
    return rate_ok and bounds_ok, {
        "sup_errors": [float(r.error_sup) for r in table.rows],
        "epsilons": [float(r.epsilon) for r in table.rows],
        "fitted_rate_3_smallest": float(rate),
        "rate_bound": 0.8,
        "error_bound_factor": float(bound_factor),
        "bounds_hold": bool(bounds_ok),
    }


def _criterion_4(reg: dict) -> tuple[bool, dict]:
    u0 = sample(_neg_tanh, -5.0, 5.0, 1e-3)
    t_star = catastrophe_time(u0)
    first_ok = abs(t_star - 1.0) <= 1e-3
    mono = sample(np.tanh, -5.0, 5.0, 1e-3)
    t_mono = catastrophe_time(mono)
    second_ok = np.isinf(t_mono)
    return first_ok and second_ok, {
        "neg_tanh_time": float(t_star),
        "target": 1.0,
        "tolerance": 1e-3,
        "monotone_time_infinite": bool(second_ok),
    }


def _criterion_5(reg: dict) -> tuple[bool, dict]:
    per_run = {}
    all_ok = True
    for label, traj in reg.items():
        rep = check_invariants(traj)
        per_run[label] = {
            "passed": bool(rep.passed),
            "checks": {
                c.name: {"value": float(c.value), "threshold": float(c.threshold)}
                for c in rep.checks
            },
        }
        all_ok = all_ok and rep.passed
    return all_ok, {"runs": per_run, "run_count": len(reg)}


def _criterion_6(reg: dict) -> tuple[bool, dict]:
    flux = cubic_flux(radius=2.0)
    data = RiemannData(2.0, 0.0)
    u0 = sample(data, -3.2, 5.4, 1e-3)
    cfg = SolverConfig(store_stride=50)
    rh = (flux.f(np.array(2.0)) - flux.f(np.array(0.0))) / 2.0  # = 4/3
    out = {}
    ok = True
    for mode in ("velocity_reg", "flux_reg"):
        traj = solve_general(u0, flux, 0.1, 1.0, cfg, mode, data=data)
        reg[f"c6_{mode}_cubic"] = traj
        fit, predicted, check = front_speed_check(traj, flux, data, 1.0)
        width = max(fit.stderr, 1e-15)
        distinct = abs(fit.speed - rh) / width
        mode_ok = check.passed and distinct > 10.0
        out[mode] = {
            "speed": float(fit.speed),
            "stderr": float(fit.stderr),
            "predicted": predicted,
            "rankine_hugoniot": float(rh),
            "distinct_sigmas": float(distinct),
        }
        ok = ok and mode_ok
    return ok, out


def _criterion_7(reg: dict) -> tuple[bool, dict]:
    data = RiemannData(1.0, 0.0)
    u0 = sample(data, -2.2, 2.8, 1e-3)
    flux = burgers_flux(radius=1.5)
    cfg = SolverConfig(store_stride=25)
    eps, T = 0.1, 1.0
    # criterion 1 solved nn on this very u0, eps, T, cfg and data
    trajs = {
        "nn": reg["c1_nn_eps0.1"],
        "velocity_reg": solve_general(
            u0, flux, eps, T, cfg, "velocity_reg", data=data
        ),
        "flux_reg": solve_general(
            u0, flux, eps, T, cfg, "flux_reg", data=data
        ),
    }
    for label, traj in trajs.items():
        reg[f"c7_{label}_burgers"] = traj
    worst = max(
        float(np.max(np.abs(a.values - b.values)))
        for a, b in combinations(trajs.values(), 2)
    )
    return worst <= 1e-12, {"worst_pointwise_gap": worst, "bound": 1e-12}


def _criterion_8(reg: dict) -> tuple[bool, dict]:
    # sample past the domain of dependence and compare on the window, so
    # grid-boundary effects cannot leak in; the pad 1.0 * T + 0.5 is the
    # speed bound times T plus a margin, written as a literal: both data
    # are Burgers data with sup|u0| <= 1, so solver.speed_bound is <= 1
    flux = burgers_flux(radius=1.5)
    out = {}
    ok = True
    cases = (
        ("riemann_shock", RiemannData(1.0, 0.0), (-2.2, 2.8), 1.0),
        ("neg_tanh_post_shock", _neg_tanh, (-4.0, 4.0), 2.0),
    )
    for label, datum, window, T in cases:
        pad = 1.0 * T + 0.5
        u0 = sample(datum, window[0] - pad, window[1] + pad, 1e-3)
        god = godunov_solve(u0, flux, T)
        lax = lax_oleinik_solve(u0, T)
        ft = front_tracking_solve(u0, T).sample_on(u0, T)
        gaps = {
            "godunov_vs_lax": l1_distance(god, lax, window=window),
            "godunov_vs_front_tracking": l1_distance(god, ft, window=window),
            "lax_vs_front_tracking": l1_distance(lax, ft, window=window),
        }
        out[label] = {k: float(v) for k, v in gaps.items()}
        ok = ok and all(v <= 5e-3 for v in gaps.values())
    out["bound"] = 5e-3
    return ok, out


def _pwise_increasing_datum() -> PiecewiseInitialData:
    """Two entropic down-jumps joined by Lipschitz-increasing pieces,
    one-sided slope constant C = 0.15."""
    return PiecewiseInitialData(
        (-1.0, 1.0),
        (
            lambda x: 0.8 + 0.1 * (x + 1.0),
            lambda x: -0.2 + 0.15 * (x + 1.0),
            lambda x: -0.9 + 0.1 * (x - 1.0),
        ),
        lipschitz_C=0.15,
    )


def _drop_tubes(ref: GridFunction1D, window, eps: float) -> list:
    """Exclusion tubes: 4 eps around each cluster of reference drops."""
    sl = ref.window_slice(*window)
    x = ref.x[sl]
    idx = np.nonzero(np.diff(ref.values[sl]) < -0.05)[0]
    tubes = []
    # a cluster ends where the next drop is more than 10 cells on
    for run in np.split(idx, np.nonzero(np.diff(idx) > 10)[0] + 1):
        if run.size:
            center = 0.5 * (x[run[0]] + x[run[-1] + 1])
            tubes.append((center - 4.0 * eps, center + 4.0 * eps))
    return tubes


def _criterion_9(reg: dict) -> tuple[bool, dict]:
    datum = _pwise_increasing_datum()
    sup0 = 0.9
    D = 2.0  # minimum breakpoint gap
    horizon = D / (2.0 * sup0)
    T = 0.9 * horizon
    window = (-3.0, 3.0)
    epsilons = (0.2, 0.1, 0.05, 0.025)
    scenario = StudyScenario(datum, T=T, window=window)
    table = convergence_study(scenario, epsilons)
    oleinik_all = True
    oleinik_detail = {}
    for row in table.rows:
        tubes = _drop_tubes(row.reference, window, row.epsilon)
        rep = oleinik_check(
            row.trajectory.final, datum.lipschitz_C, excluded=tubes
        )
        oleinik_detail[str(row.epsilon)] = {
            "tubes": [[float(a_), float(b_)] for a_, b_ in tubes],
            "passed": bool(rep.passed),
        }
        oleinik_all = oleinik_all and rep.passed
    slope = table.fit_rate("l1", n_points=3)
    return slope >= 0.5 and oleinik_all, {
        "T": float(T),
        "l1_errors": [row.error_L1 for row in table.rows],
        "epsilons": [float(e) for e in epsilons],
        "slope_3_smallest": slope,
        "slope_bound": 0.5,
        "oleinik": oleinik_detail,
    }


def _criterion_10(reg: dict) -> tuple[bool, dict]:
    dx = 1e-3
    u0 = sample(_neg_tanh, -5.0, 5.0, dx)
    shifted = u0.with_values(
        np.concatenate([[u0.values[0]], u0.values[:-1]])
    )
    cfg = SolverConfig(store_stride=50)
    eps, T = 0.1, 1.0
    tu = solve_nn(u0, eps, T, cfg)
    tv = solve_nn(shifted, eps, T, cfg)
    reg["c10_nn_neg_tanh"] = tu
    reg["c10_nn_neg_tanh_shifted"] = tv
    m = build_mollifier(eps, dx)
    rep = stability_envelope(tu, tv, m)
    worst = max((c.value for c in rep.checks), default=0.0)
    return rep.passed, {
        "initial_l1_distance": float(l1_distance(u0, shifted)),
        "worst_envelope_excess": float(worst),
        "slack": ENVELOPE_SLACK,
    }


def _counterexample_datum() -> PiecewiseInitialData:
    """Lipschitz datum whose conservative solve converges to the wrong
    limit: trapezoid up to 1 then down-jump to a mirrored trapezoid."""
    return PiecewiseInitialData(
        (-2.0, -1.0, 0.0, 1.0, 2.0),
        (
            lambda x: 0.0 * x,
            lambda x: x + 2.0,
            lambda x: 1.0 + 0.0 * x,
            lambda x: -1.0 + 0.0 * x,
            lambda x: x - 2.0,
            lambda x: 0.0 * x,
        ),
        lipschitz_C=1.0,
    )


def _criterion_11(reg: dict) -> tuple[bool, dict]:
    datum = _counterexample_datum()
    T = 1.0
    window = (-3.0, 3.0)
    epsilons = (0.2, 0.1, 0.05)
    scenario = StudyScenario(datum, T=T, window=window)
    table = convergence_study(scenario, epsilons)
    gaps = [row.error_L1 for row in table.rows]
    slope = table.fit_rate("l1", n_points=None)
    # the conservative solve reuses the finest row's grid and reference
    finest = table.rows[-1]
    u0 = finest.trajectory.grid
    cons = solve_conservative_nonlocal(
        u0, finest.epsilon, T, SolverConfig(store_stride=10**9)
    )
    sl = u0.window_slice(*window)
    gap_cons = float(
        np.sum(np.abs(cons.final.values - finest.reference.values)[sl])
        * finest.dx
    )
    ratio = gap_cons / gaps[-1]
    return slope >= 0.5 and ratio > 10.0, {
        "nn_gaps": gaps,
        "epsilons": [float(e) for e in epsilons],
        "slope": slope,
        "slope_bound": 0.5,
        "conservative_gap": gap_cons,
        "gap_ratio": float(ratio),
        "ratio_bound": 10.0,
    }


def _criterion_12(reg: dict) -> tuple[bool, dict]:
    # refinement: residual of the smooth-pulse run drops >= 1.8x when
    # dx, dt, eps are all halved (dt follows dx through the fixed cfl)
    residuals = {}
    cfg = SolverConfig(store_stride=1)
    for eps in (0.1, 0.05):
        dx = eps / 8.0
        rho0 = sample(lambda x: 1.0 + 0.1 * np.exp(-x * x), -6.0, 6.0, dx)
        vel0 = rho0.with_values(np.zeros(rho0.n))
        mu, lam = solve_isentropic(rho0, vel0, eps, 0.3, cfg)
        residuals[eps] = conservative_residual(
            rho0, mu.times, *recombine(mu, lam)
        )
    ratio1 = residuals[0.1][0] / residuals[0.05][0]
    ratio2 = residuals[0.1][1] / residuals[0.05][1]
    refine_ok = ratio1 >= 1.8 and ratio2 >= 1.8

    rng = np.random.default_rng(12)
    rho = GridFunction1D(-1.0, 0.02, 1.0 + 0.5 * rng.random(101))
    vel = rho.with_values(0.3 * rng.standard_normal(101))
    r2, v2 = from_invariants(*to_invariants(rho, vel))
    round_trip_dev = max(
        float(np.max(np.abs(r2.values - rho.values))),
        float(np.max(np.abs(v2.values - vel.values))),
    )
    round_ok = round_trip_dev <= 1e-14

    # mutation: evolve lam with the sign error (no x -> -x conjugation)
    eps, dx = 0.1, 0.1 / 8.0
    rho0 = sample(lambda x: 1.0 + 0.1 * np.exp(-x * x), -6.0, 6.0, dx)
    vel0 = rho0.with_values(0.2 * np.tanh(rho0.x))
    mu, lam = solve_isentropic(rho0, vel0, eps, 0.3, cfg)
    r_ok = conservative_residual(rho0, mu.times, *recombine(mu, lam))
    wrong = solve_nn(to_invariants(rho0, vel0)[1], eps, 0.3, cfg, dt=mu.dt)
    r_bad = conservative_residual(rho0, mu.times, *recombine(mu, wrong))
    inflation = min(r_bad[0] / r_ok[0], r_bad[1] / r_ok[1])
    mutation_ok = inflation >= 10.0

    return refine_ok and round_ok and mutation_ok, {
        "residuals": {
            str(k): [float(v[0]), float(v[1])]
            for k, v in residuals.items()
        },
        "refinement_ratios": [float(ratio1), float(ratio2)],
        "refinement_bound": 1.8,
        "round_trip_deviation": round_trip_dev,
        "mutation_inflation": float(inflation),
        "mutation_bound": 10.0,
    }


def _criterion_13(reg: dict) -> tuple[bool, dict]:
    dx = 1e-2
    eps, T = 0.1, 0.3
    u0 = sample(_neg_tanh, -3.0, 3.0, dx)
    cfg = SolverConfig(store_stride=10**9)
    traj1 = solve_nn(u0, eps, T, cfg)
    u0_2d = sample_2d(
        lambda X, Y: -np.tanh(X) + 0.0 * Y, -3.0, 3.0, 0.0, 0.2, dx, dx
    )
    tr2 = solve_velocity_reg_2d(
        u0_2d, (burgers_flux(radius=1.5), zero_flux(radius=1.5)),
        eps, T, cfg,
    )
    fin = tr2.final
    row_dev = float(
        np.max(np.abs(fin.values - traj1.final.values[None, :]))
    )
    lo0, hi0 = float(np.min(u0_2d.values)), float(np.max(u0_2d.values))
    lo, hi = float(np.min(fin.values)), float(np.max(fin.values))
    max_principle = lo >= lo0 and hi <= hi0
    return row_dev <= 1e-10 and max_principle, {
        "worst_row_deviation": row_dev,
        "bound": 1e-10,
        "max_principle_exact": bool(max_principle),
    }


def _criterion_14(reg: dict) -> tuple[bool, dict]:
    """Run a fast selftest subset twice in subprocesses and require the
    result files to be byte-identical."""
    subset = "4,13"
    digests = []
    listings = []
    rcs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "nlclaw.cli", "selftest",
                    "--criteria", subset, "--outdir", tmp,
                ],
                capture_output=True,
            )
            rcs.append(proc.returncode)
            files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
            listings.append([p.name for p in files])
            digests.append(
                {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in files
                }
            )
    identical = digests[0] == digests[1] and listings[0] == listings[1]
    ok = identical and rcs[0] == 0 and rcs[1] == 0
    return ok, {
        "subset": subset,
        "exit_codes": rcs,
        "files": listings[0],
        "byte_identical": bool(identical),
        "sha256": digests[0],
    }


# n: (title, function, reads), where reads names the criteria whose
# registered runs the function uses; run_criteria runs those first
_CRITERIA = {
    1: ("Riemann shock front speed", _criterion_1, ()),
    2: ("rarefaction non-convergence plateau", _criterion_2, ()),
    3: ("smooth-regime convergence", _criterion_3, ()),
    4: ("catastrophe time", _criterion_4, ()),
    5: ("structural invariants on all registered runs", _criterion_5,
        (1, 6, 7, 10)),
    6: ("general-flux Riemann speeds vs Rankine-Hugoniot", _criterion_6, ()),
    7: ("Burgers-mode equivalence", _criterion_7, (1,)),
    8: ("oracle triangulation", _criterion_8, ()),
    9: ("piecewise-Lipschitz-increasing datum", _criterion_9, ()),
    10: ("L1 stability envelope", _criterion_10, ()),
    11: ("counterexample datum: NN vs conservative", _criterion_11, ()),
    12: ("Euler refinement, round trip, mutation", _criterion_12, ()),
    13: ("2D dimensional reduction", _criterion_13, ()),
    14: ("selftest determinism", _criterion_14, ()),
}


def parse_criteria_arg(arg: str | None) -> list[int]:
    if arg is None:
        return sorted(_CRITERIA)
    numbers = []
    for tok in arg.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            n = int(tok)
        except ValueError:
            raise ValueError(f"criterion {tok!r} is not a number") from None
        if n not in _CRITERIA:
            raise ValueError(
                f"no criterion {n} (have {min(_CRITERIA)}..{max(_CRITERIA)})"
            )
        numbers.append(n)
    if not numbers:
        raise ValueError("empty criteria list")
    return sorted(set(numbers))


def run_criteria(numbers=None) -> list:
    """Execute the requested criteria and return their results, and only
    theirs, in numeric order.  Each criterion adds its non-conservative
    runs to one registry, a dict from label to trajectory, and runs after
    the criteria its table entry says it reads, so its verdict covers the
    same runs whatever else was requested.  Every criterion runs at most
    once.  A crash inside one criterion becomes a FAIL for that
    criterion, not an abort of the battery."""
    requested = sorted(set(_CRITERIA if numbers is None else numbers))
    registry = {}
    results = {}

    def run(n: int) -> None:
        if n in results:
            return
        title, criterion, reads = _CRITERIA[n]
        for m in reads:
            run(m)
        try:
            passed, details = criterion(registry)
        except Exception as e:  # honest red instead of a crashed battery
            passed, details = False, {"error": f"{type(e).__name__}: {e}"}
        results[n] = CriterionResult(n, title, passed, details)

    for n in requested:
        run(n)
    return [results[n] for n in requested]


def write_results(results, outdir: Path) -> list:
    """selftest_results.txt (one verdict line per criterion) and
    selftest_report.json (full details), both deterministic."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines_path = outdir / "selftest_results.txt"
    lines_path.write_text("".join(r.line() + "\n" for r in results))
    report_path = outdir / "selftest_report.json"
    body = {
        "criteria": [r.as_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    report_path.write_text(json.dumps(body, indent=2) + "\n")
    return [lines_path, report_path]
