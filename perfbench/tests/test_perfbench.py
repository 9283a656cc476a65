"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

They use the tiny variant of each workload, so the whole file runs in
well under a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_ops(workload, seed, workdir):
    return run._setup(workload, seed, workdir, tiny=True)


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 7)
        b = workloads.generate(workload, 7)
        assert a == b


def test_generator_differs_across_seeds():
    for workload in ("riemann_runs", "smooth_sweep"):
        a = [op.text for op in workloads.generate(workload, 1)]
        b = [op.text for op in workloads.generate(workload, 2)]
        assert a != b
        assert len(a) == len(b)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_and_emits_every_end_to_end_metric(workload, tmp_path):
    ops = _tiny_ops(workload, 3, tmp_path)
    summary = run.run_untraced(workload, 3, 0.1, ops, tmp_path)
    assert summary["failed_frac"] == 0, summary["failing_operations"]
    assert summary["correct"], summary["problems"]
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(summary["metrics"]) == names
    for name, m in summary["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_restores(workload, tmp_path):
    import nlclaw

    modules = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "nlclaw" or name.startswith("nlclaw.")
    }
    call_before = nlclaw.Expression.__call__
    ops = _tiny_ops(workload, 3, tmp_path)
    summary = run.run_traced(workload, 3, ops, tmp_path)
    assert summary["correct"], summary["problems"]
    assert summary["failed_frac"] == 0
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(summary["metrics"]) == names
    for name, attrs in modules.items():
        mod = sys.modules[name]
        for attr, value in attrs.items():
            assert getattr(mod, attr) is value, f"{name}.{attr}"
    assert nlclaw.Expression.__call__ is call_before


def test_self_times_add_up_to_traced_wall(tmp_path):
    ops = _tiny_ops("smooth_sweep", 5, tmp_path)
    summary = run.run_traced("smooth_sweep", 5, ops, tmp_path)
    m = {k: v["value"] for k, v in summary["metrics"].items()}
    self_total = sum(
        v for k, v in m.items()
        if k.endswith("_s") and not k.startswith("trace.")
    ) + m["trace.counters_s"]
    assert m["trace.unattributed_s"] >= 0.0
    assert self_total + m["trace.unattributed_s"] == pytest.approx(
        m["trace.wall_s"], rel=1e-9
    )
    assert m["expressions.eval_calls"] > 0
    assert m["kernel.convolve_calls"] > 0


def test_compare_lists_changed_outputs(tmp_path, capsys):
    import compare

    old = {"workload": "w", "seed": 1, "metrics": {},
           "digests": {"a": "1", "b": "2", "c": "3"}}
    new = {"workload": "w", "seed": 1, "metrics": {},
           "digests": {"a": "1", "b": "9", "d": "4"}}
    assert compare.output_changes(old, new) == [
        "changed  b", "removed  c", "added    d",
    ]
    paths = []
    for i, body in enumerate((old, old)):
        p = tmp_path / f"{i}.json"
        p.write_text(json.dumps(body))
        paths.append(str(p))
    assert compare.main(paths) == 0
    (tmp_path / "1.json").write_text(json.dumps(new))
    assert compare.main(paths) == 1
