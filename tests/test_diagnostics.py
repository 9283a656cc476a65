import numpy as np
import pytest

from nlclaw import diagnostics
from nlclaw.diagnostics import (
    ConvergenceRow,
    ConvergenceTable,
    MultipleCrossingsError,
    NoCrossingError,
    StudyScenario,
    catastrophe_time,
    check_invariants,
    convergence_study,
    front_speed_check,
    measure_front_speed_fit,
    oleinik_check,
    stability_envelope,
)
from nlclaw.grids import GridFunction1D, RiemannData, sample
from nlclaw.kernel import build_mollifier
from nlclaw.solver import (
    SolverConfig,
    Trajectory,
    solve_conservative_nonlocal,
    solve_nn,
    speed_bound,
    time_step,
)


def grid_fn(f, a, b, dx):
    return sample(f, a, b, dx)


# ---------------------------------------------------------------- blow-up time


def test_catastrophe_time_tanh():
    u0 = grid_fn(lambda x: -np.tanh(x), -5.0, 5.0, 1e-3)
    assert abs(catastrophe_time(u0) - 1.0) <= 1e-3


def test_catastrophe_time_monotone_is_infinite():
    u0 = grid_fn(np.tanh, -5.0, 5.0, 1e-2)
    assert catastrophe_time(u0) == np.inf


def test_catastrophe_time_linear_slope():
    # steepest descent -2 on a piecewise-linear profile: t* = 0.5 exactly
    u0 = grid_fn(lambda x: np.clip(-2.0 * x, -1.0, 1.0), -3.0, 3.0, 1e-2)
    assert abs(catastrophe_time(u0) - 0.5) <= 1e-12


# ---------------------------------------------------------------- front speed


def translated_ramp_trajectory(speed, times, dx=1e-2):
    # continuous ramp so the linear-interpolation crossing is exact
    u0 = grid_fn(lambda x: np.clip(-x, -1.0, 1.0), -4.0, 4.0, dx)
    t = np.asarray(times, dtype=float)[:, None]
    values = np.clip(-(u0.x - speed * t), -1.0, 1.0)
    return Trajectory(
        u0, times, values, 0.1, "nn", speed_bound("nn", None, u0.values)
    )


def test_front_speed_exact_on_translated_ramp():
    times = np.linspace(0.0, 1.0, 11)
    traj = translated_ramp_trajectory(0.3, times)
    fit = measure_front_speed_fit(traj, 0.0, (0.0, 1.0))
    assert abs(fit.speed - 0.3) <= 1e-6
    assert fit.stderr <= 1e-6
    assert fit.positions.size == 11


def test_front_speed_window_restricts_states():
    times = np.linspace(0.0, 1.0, 11)
    traj = translated_ramp_trajectory(0.5, times)
    fit = measure_front_speed_fit(traj, 0.0, (0.5, 1.0))
    assert fit.times.size == 6
    assert abs(fit.speed - 0.5) <= 1e-6


def test_front_speed_no_crossing():
    times = np.linspace(0.0, 1.0, 5)
    traj = translated_ramp_trajectory(0.0, times)
    with pytest.raises(NoCrossingError):
        measure_front_speed_fit(traj, 5.0, (0.0, 1.0)).speed


def test_front_speed_multiple_crossings():
    times = np.array([0.0, 0.5])
    u0 = grid_fn(np.sin, -7.0, 7.0, 1e-2)
    traj = Trajectory(
        u0, times, np.stack([u0.values, u0.values]), 0.1, "nn",
        speed_bound("nn", None, u0.values),
    )
    with pytest.raises(MultipleCrossingsError):
        measure_front_speed_fit(traj, 0.0, (0.0, 0.5)).speed


def test_front_speed_needs_two_states():
    times = np.linspace(0.0, 1.0, 11)
    traj = translated_ramp_trajectory(0.3, times)
    with pytest.raises(ValueError):
        measure_front_speed_fit(traj, 0.0, (0.95, 1.0)).speed


def riemann_ramp_trajectory(data, speed, mode="nn"):
    # a ramp from uL to uR whose crossing of (uL + uR)/2 moves at speed
    mid, half = 0.5 * (data.uL + data.uR), 0.5 * (data.uL - data.uR)
    u0 = grid_fn(lambda x: mid + np.clip(-x, -half, half), -4.0, 4.0, 1e-2)
    times = np.linspace(0.0, 1.0, 11)
    values = mid + np.clip(-(u0.x - speed * times[:, None]), -half, half)
    return Trajectory(
        u0, times, values, 0.1, mode, speed_bound(mode, None, u0.values)
    )


@pytest.mark.parametrize(
    "speed, passed", [(-0.5, True), (-0.495, True), (-0.52, False)]
)
def test_front_speed_check_holds_a_negative_speed_to_abs_predicted(
    speed, passed
):
    # nn on (0, -1) predicts -0.5: the 2 % tolerance is 0.01 either way
    data = RiemannData(0.0, -1.0)
    traj = riemann_ramp_trajectory(data, speed)
    fit, predicted, check = front_speed_check(traj, None, data, 1.0)
    assert predicted == -0.5
    assert fit.times.size == 6 and abs(fit.speed - speed) <= 1e-6
    ref = measure_front_speed_fit(traj, -0.5, (0.5, 1.0))
    assert (fit.speed, fit.stderr) == (ref.speed, ref.stderr)
    assert (check.name, check.passed, check.value, check.threshold) == (
        "front_speed", passed, fit.speed, predicted
    )


@pytest.mark.parametrize(
    "data, mode, predicted",
    [(RiemannData(1.0, -1.0), "nn", 0.0),
     (RiemannData(1.0, 0.0), "conservative", None)],
)
def test_front_speed_check_needs_a_nonzero_prediction(data, mode, predicted):
    traj = riemann_ramp_trajectory(data, 0.3, mode)
    fit, got, check = front_speed_check(traj, None, data, 1.0)
    assert (got, check) == (predicted, None)
    assert abs(fit.speed - 0.3) <= 1e-6


# ---------------------------------------------------------- invariant checks


def test_check_invariants_constant_trajectory():
    cfg = SolverConfig()
    u0 = grid_fn(lambda x: np.full_like(x, 0.7), -2.0, 2.0, 1e-2)
    traj = solve_nn(u0, 0.1, 0.2, cfg)
    rep = check_invariants(traj)
    assert rep.passed
    assert rep["max principle"].value == 0.0
    assert rep["tv bounded by initial"].value == 0.0
    assert rep["l1 time lipschitz"].value == 0.0


def test_check_invariants_nn_tanh():
    cfg = SolverConfig(store_stride=20)
    u0 = grid_fn(lambda x: -np.tanh(x), -4.0, 4.0, 2e-3)
    traj = solve_nn(u0, 0.1, 0.5, cfg)
    rep = check_invariants(traj)
    assert rep.passed, [c.as_dict() for c in rep.checks if not c.passed]
    names = [c.name for c in rep.checks]
    assert "max principle" in names
    assert "mass conservation" not in names


def test_check_invariants_conservative_mode_aware():
    def datum(x):
        ramp_up = np.clip(x + 2.0, 0.0, 1.0)
        ramp_dn = np.clip(2.0 - x, 0.0, 1.0)
        return np.where(x < 0.0, ramp_up, -ramp_dn)

    cfg = SolverConfig(store_stride=50)
    u0 = grid_fn(datum, -4.0, 4.0, 4e-3)
    traj = solve_conservative_nonlocal(u0, 0.05, 0.3, cfg)
    rep = check_invariants(traj)
    names = [c.name for c in rep.checks]
    # conservative contract: mass required, range bound waived
    assert "mass conservation" in names
    assert "max principle" not in names
    assert rep["mass conservation"].passed


def test_check_invariants_flags_violation():
    times = np.array([0.0, 0.1])
    base = grid_fn(lambda x: np.tanh(x), -2.0, 2.0, 1e-2)
    values = np.stack([base.values, base.values * 1.5])
    traj = Trajectory(
        base, times, values, 0.1, "nn", speed_bound("nn", None, base.values)
    )
    rep = check_invariants(traj)
    assert not rep["max principle"].passed
    assert rep["max principle"].value > 0.4


# ---------------------------------------------------------- stability envelope


def test_stability_envelope_identical_runs():
    cfg = SolverConfig(store_stride=10)
    u0 = grid_fn(lambda x: -np.tanh(x), -3.0, 3.0, 5e-3)
    m = build_mollifier(0.1, 5e-3)
    t1 = solve_nn(u0, 0.1, 0.2, cfg)
    t2 = solve_nn(u0, 0.1, 0.2, cfg)
    rep = stability_envelope(t1, t2, m)
    assert rep.passed
    assert rep["stability envelope"].value <= 1e-12


def test_stability_envelope_shifted_datum():
    # one-node shift with constant inflow extension keeps the sampled sup
    # (hence dt and the stored times) identical between the two runs
    dx = 5e-3
    cfg = SolverConfig(store_stride=10)
    u0 = grid_fn(lambda x: -np.tanh(x), -3.0, 3.0, dx)
    shifted = np.concatenate([[u0.values[0]], u0.values[:-1]])
    u0s = u0.with_values(shifted)
    m = build_mollifier(0.1, dx)
    t1 = solve_nn(u0, 0.1, 0.2, cfg)
    t2 = solve_nn(u0s, 0.1, 0.2, cfg)
    rep = stability_envelope(t1, t2, m)
    assert rep.passed, rep["stability envelope"].as_dict()


def test_stability_envelope_requires_shared_times():
    cfg = SolverConfig(store_stride=10)
    u0 = grid_fn(lambda x: -np.tanh(x), -3.0, 3.0, 5e-3)
    m = build_mollifier(0.1, 5e-3)
    t1 = solve_nn(u0, 0.1, 0.2, cfg)
    t2 = solve_nn(u0, 0.1, 0.1, cfg)
    with pytest.raises(ValueError):
        stability_envelope(t1, t2, m)


# ------------------------------------------------------------- Oleinik bound


def test_oleinik_rarefaction_profile_passes():
    # entropy fan at t = 1 has slope exactly 1 inside the fan
    u = grid_fn(lambda x: np.clip(x, -1.0, 1.0), -3.0, 3.0, 1e-2)
    rep = oleinik_check(u, 1.0)
    assert rep.passed
    assert abs(rep["oleinik one-sided bound"].value - 1.0) <= 1e-9


def test_oleinik_decreasing_step_passes():
    # one-sided bound: downward jumps (entropic shocks) are admissible
    u = grid_fn(lambda x: np.where(x < 0.0, 1.0, -1.0), -2.0, 2.0, 1e-2)
    assert oleinik_check(u, 1.0).passed
    assert oleinik_check(u, 1.0, excluded=[(-0.1, 0.1)]).passed


def test_oleinik_excluding_tube_hides_increasing_jump():
    u = grid_fn(lambda x: np.where(x < 0.0, -1.0, 1.0), -2.0, 2.0, 1e-2)
    assert not oleinik_check(u, 1.0).passed
    assert oleinik_check(u, 1.0, excluded=[(-0.1, 0.1)]).passed


def test_oleinik_upward_jump_fails_outside_tubes():
    u = grid_fn(lambda x: np.where(x < 0.0, -1.0, 1.0), -2.0, 2.0, 1e-2)
    rep = oleinik_check(u, 1.0)
    assert not rep.passed
    # jump of 2 over one cell
    assert rep["oleinik one-sided bound"].value > 100.0


def test_oleinik_everything_excluded():
    u = grid_fn(lambda x: np.where(x < 0.0, -1.0, 1.0), -2.0, 2.0, 1e-2)
    rep = oleinik_check(u, 0.0, excluded=[(-3.0, 3.0)])
    assert rep.passed


# -------------------------------------------------------- convergence tables


def synthetic_table(eps, errs):
    rows = [
        ConvergenceRow(e, e / 8.0, e / 16.0, err, err, False)
        for e, err in zip(eps, errs)
    ]
    return ConvergenceTable(rows, "lax_oleinik")


def test_table_requires_decreasing_epsilon():
    with pytest.raises(ValueError):
        synthetic_table([0.1, 0.2], [1.0, 2.0])


def test_table_rejects_negative_errors():
    with pytest.raises(ValueError):
        ConvergenceTable(
            [ConvergenceRow(0.1, 0.0125, 0.006, -1.0, 0.1, False)],
            "fan",
        )


def test_table_fit_rate_linear_in_eps():
    eps = [0.2, 0.1, 0.05, 0.025]
    tab = synthetic_table(eps, [0.7 * e for e in eps])
    assert abs(tab.fit_rate("sup") - 1.0) <= 1e-12
    tab2 = synthetic_table(eps, [0.7 * e * e for e in eps])
    assert abs(tab2.fit_rate("sup", n_points=None) - 2.0) <= 1e-12


def test_table_fit_rate_needs_two_points():
    tab = synthetic_table([0.2, 0.1], [0.14, 0.07])
    with pytest.raises(ValueError):
        tab.fit_rate("sup", n_points=1)
    with pytest.raises(ValueError):
        synthetic_table([0.2], [0.14]).fit_rate("sup", n_points=None)


def test_table_unknown_norm():
    tab = synthetic_table([0.2, 0.1], [0.1, 0.05])
    with pytest.raises(ValueError):
        tab.errors("linf")


def test_study_shock_errors_at_grid_floor():
    sc = StudyScenario(RiemannData(1.0, 0.0), 1.0, (-2.0, 2.0))
    tab = convergence_study(sc, [0.2, 0.1], "fan")
    for row in tab.rows:
        assert row.error_L1 <= 10.0 * row.dx
        assert row.floor_dominated


def test_study_rarefaction_plateau():
    sc = StudyScenario(RiemannData(-1.0, 1.0), 1.0, (-2.0, 2.0))
    tab = convergence_study(sc, [0.2, 0.1], "fan")
    for row in tab.rows:
        assert abs(row.error_L1 - 1.0) <= 0.1
        assert not row.floor_dominated


def test_study_tanh_rate_cheap_screen():
    sc = StudyScenario(lambda x: -np.tanh(x), 0.5, (-2.0, 2.0))
    tab = convergence_study(sc, [0.2, 0.1, 0.05], "lax_oleinik")
    assert tab.fit_rate("sup") >= 0.8


def test_study_dx_coupling_and_cap():
    sc = StudyScenario(RiemannData(1.0, 0.0), 0.2, (-1.0, 1.0), dx_max=0.02)
    tab = convergence_study(sc, [0.4, 0.1], "fan")
    assert abs(tab.rows[0].dx - 0.02) <= 1e-15       # cap binds at eps = 0.4
    assert abs(tab.rows[1].dx - 0.0125) <= 1e-15     # eps/8 binds at eps = 0.1


@pytest.mark.parametrize("reference", ["exact", "riemann_exact"])
def test_study_unknown_reference(reference):
    sc = StudyScenario(RiemannData(1.0, 0.0), 1.0, (-2.0, 2.0))
    with pytest.raises(ValueError, match="unknown reference"):
        convergence_study(sc, [0.2], reference)


def test_study_budget_precheck_is_a_lower_bound(monkeypatch):
    # the pre-check sizes dt on the window's samples (sup 0.5), the solve
    # on the padded grid (-2.7, 2.7) (sup 1.35): the solve takes more
    # steps than the pre-check counted, and checks its own count
    checked = []
    check = diagnostics.check_node_steps

    def recording(nodes, T, dt):
        checked.append((nodes, dt))
        return check(nodes, T, dt)

    monkeypatch.setattr(diagnostics, "check_node_steps", recording)
    sc = StudyScenario(lambda x: 0.5 * x, 1.0, (-1.0, 1.0), dx_max=0.01)
    (row,) = convergence_study(sc, [0.2]).rows
    ((nodes, pre_dt),) = checked
    traj = row.trajectory
    assert nodes == traj.grid.n
    assert pre_dt == 0.01
    assert traj.dt == row.dt == time_step(SolverConfig(), 0.01, 1.35)
    assert traj.dt == pytest.approx(0.0037, abs=1e-4)
