"""Nonlocal transport regularisation laboratory for scalar conservation laws.

The package solves the non-conservative nonlocal equation

    du/dt + (eta_eps * u) du/dx = 0

and its general-flux and conservative variants with a self-consistent
semi-Lagrangian scheme, provides independent entropy references for the
local limit (Lax-Oleinik, Godunov, front tracking), and turns the
structural properties of the continuum problem (maximum principle, total
variation preservation, L1 time-Lipschitz bounds, Riemann front speeds,
convergence and non-convergence as eps -> 0) into executable checks.

Module map:

    grids        1D grid functions, initial data, norms
    kernel       mollifier construction and direct convolution
    fluxes       flux specifications (Burgers, cubic, custom)
    solver       the semi-Lagrangian transport solver, all 1D modes
    reference    entropy-solution oracles for the local limit
    diagnostics  checks, front-speed fits, convergence studies
    twodim       the two-dimensional velocity_reg solver
    euler        isentropic Euler system via Riemann invariants
    expressions  the tiny formula grammar used by scenario files
    scenario     scenario file schema and parser
    runner       scenario execution and deterministic result files
    acceptance   the numbered claim battery behind `nlclaw selftest`
    cli          the `nlclaw` command line interface
"""

from .diagnostics import (
    CheckResult,
    ConvergenceTable,
    DiagnosticsReport,
    MultipleCrossingsError,
    NoCrossingError,
    StudyScenario,
    catastrophe_time,
    check_invariants,
    convergence_study,
    measure_front_speed_fit,
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
from .expressions import Expression, ExpressionError, parse_expression
from .fluxes import FluxSpec, burgers_flux, cubic_flux, zero_flux
from .grids import (
    GridFunction1D,
    GridMismatchError,
    PiecewiseInitialData,
    RiemannData,
    l1_distance,
    sample,
    sup_norm,
    total_variation,
)
from .kernel import Mollifier, ResolutionError, build_mollifier
from .reference import (
    FrontTrackingSolution,
    burgers_riemann_exact,
    front_tracking_solve,
    godunov_solve,
    lax_oleinik_solve,
)
from .scenario import ScenarioError, ScenarioSpec, parse_scenario
from .solver import (
    PicardDivergenceError,
    SolverConfig,
    Trajectory,
    solve,
    solve_conservative_nonlocal,
    solve_general,
    solve_nn,
)
from .twodim import GridFunction2D, sample_2d, solve_velocity_reg_2d

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConvergenceTable",
    "DiagnosticsReport",
    "Expression",
    "ExpressionError",
    "FluxSpec",
    "FrontTrackingSolution",
    "GridFunction1D",
    "GridFunction2D",
    "GridMismatchError",
    "Mollifier",
    "MultipleCrossingsError",
    "NoCrossingError",
    "PicardDivergenceError",
    "PiecewiseInitialData",
    "ResolutionError",
    "RiemannData",
    "ScenarioError",
    "ScenarioSpec",
    "SolverConfig",
    "StudyScenario",
    "Trajectory",
    "burgers_flux",
    "burgers_riemann_exact",
    "catastrophe_time",
    "check_invariants",
    "conservative_residual",
    "convergence_study",
    "cubic_flux",
    "build_mollifier",
    "from_invariants",
    "front_tracking_solve",
    "godunov_solve",
    "l1_distance",
    "lax_oleinik_solve",
    "measure_front_speed_fit",
    "oleinik_check",
    "parse_expression",
    "parse_scenario",
    "recombine",
    "sample",
    "sample_2d",
    "solve",
    "solve_conservative_nonlocal",
    "solve_general",
    "solve_isentropic",
    "solve_nn",
    "solve_velocity_reg_2d",
    "stability_envelope",
    "sup_norm",
    "to_invariants",
    "total_variation",
    "zero_flux",
    "__version__",
]
