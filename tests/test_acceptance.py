"""Acceptance gate: one test per numbered criterion.

The full battery runs once per session; each test then asserts its
criterion's verdict so the report shows one pass/fail line per claim.
"""

import hashlib
import json

import pytest

from nlclaw import acceptance
from nlclaw.acceptance import parse_criteria_arg, run_criteria, write_results


@pytest.fixture(scope="session")
def battery():
    results = run_criteria()
    return {r.number: r for r in results}


def _assert(battery, number):
    r = battery[number]
    assert r.passed, f"{r.line()}\n{json.dumps(r.details, indent=2)}"


def test_criterion_01_riemann_shock_speed(battery):
    _assert(battery, 1)


def test_criterion_02_rarefaction_nonconvergence(battery):
    _assert(battery, 2)


def test_criterion_03_smooth_regime_convergence(battery):
    _assert(battery, 3)


def test_criterion_04_catastrophe_time(battery):
    _assert(battery, 4)


def test_criterion_05_structural_invariants(battery):
    _assert(battery, 5)


def test_criterion_06_general_flux_speeds(battery):
    _assert(battery, 6)


def test_criterion_07_burgers_mode_equivalence(battery):
    _assert(battery, 7)


def test_criterion_08_oracle_triangulation(battery):
    _assert(battery, 8)


def test_criterion_09_piecewise_lipschitz_increasing(battery):
    _assert(battery, 9)


def test_criterion_10_stability_envelope(battery):
    _assert(battery, 10)


def test_criterion_11_counterexample_gap(battery):
    _assert(battery, 11)


def test_criterion_12_euler_residual(battery):
    _assert(battery, 12)


def test_criterion_13_two_dim_reduction(battery):
    _assert(battery, 13)


def test_criterion_14_selftest_determinism(battery):
    _assert(battery, 14)


# sha256 of the full battery's result files; a change that keeps every
# criterion's algorithm and data must keep them
BATTERY_SHA256 = {
    "selftest_report.json":
        "8fb3cc821b1296cf0b21f2b867455553ed4413f974a0939ebf31d8ddb1b77066",
    "selftest_results.txt":
        "788c861f4fe1c27133f4955c692bba7100f632c9cf813f019c00c25adc308416",
}


def test_battery_result_files_are_pinned(battery, tmp_path):
    write_results([battery[n] for n in sorted(battery)], tmp_path)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in BATTERY_SHA256
    }
    assert got == BATTERY_SHA256


def test_criterion_5_reads_exactly_the_runs_of_its_inputs(battery):
    reads = acceptance._CRITERIA[5][2]
    prefixes = {label.split("_")[0] for label in battery[5].details["runs"]}
    assert prefixes == {f"c{m}" for m in reads}


def test_criterion_7_alone_matches_the_battery(battery):
    (alone,) = run_criteria([7])
    assert alone.number == 7
    assert alone.details == battery[7].details


def _stub(n, calls):
    def criterion(registry):
        calls.append(n)
        seen = sorted(registry)
        registry[f"c{n}_run"] = n
        return True, {"seen": seen}
    return criterion


def test_inputs_run_first_once_each_and_are_not_reported(monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "_CRITERIA", {
        1: ("one", _stub(1, calls), ()),
        2: ("two", _stub(2, calls), (1,)),
        3: ("three", _stub(3, calls), (1, 2)),
        4: ("four", _stub(4, calls), ()),
    })
    (r,) = run_criteria([3])
    assert calls == [1, 2, 3]
    assert (r.number, r.title) == (3, "three")
    assert r.details == {"seen": ["c1_run", "c2_run"]}

    calls.clear()
    results = run_criteria([4, 3, 2, 3])
    assert calls == [1, 2, 3, 4]
    assert [r.number for r in results] == [2, 3, 4]
    assert parse_criteria_arg(None) == [1, 2, 3, 4]
    with pytest.raises(ValueError, match=r"^no criterion 5 \(have 1\.\.4\)$"):
        parse_criteria_arg("5")
