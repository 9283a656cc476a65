"""Per-layer tracing from outside the package.

The traced run rebinds the public functions of each nlclaw module to
wrappers that record a span and the work counts at the same boundary.  A
module that imported a function by name (``from .grids import
interpolate_values``) holds its own reference, so every ``nlclaw`` module
whose attribute *is* the original function gets the wrapper, and
``Tracer.restore`` puts every original back.

Each span records its name, start, end, parent span and the index of the
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  A layer's ``_s`` metric is self time: the duration of its
spans minus the part covered by child spans.  Spans are kept on one stack.  That is only
valid while traced code runs on one thread at a time, which holds because
the benchmark fixes ``NLCLAW_THREADS=1``: the sweep pool's single worker
runs while the submitting thread waits.  ``unattributed_s`` (traced wall
time minus every self time) going negative would expose a violation.

Counter bookkeeping that inspects results (for example the active share
of a trajectory) runs inside a ``trace.counters`` span, so its cost is
charged to tracing and not to the caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

# (defining module, attribute, span name)
TRACED_FUNCTIONS = (
    ("nlclaw.solver", "solve_nn", "solver.solve_nn"),
    ("nlclaw.solver", "solve_general", "solver.solve_general"),
    ("nlclaw.solver", "solve_conservative_nonlocal",
     "solver.solve_conservative_nonlocal"),
    ("nlclaw.kernel", "convolve_values", "kernel.convolve_values"),
    ("nlclaw.grids", "interpolate_values", "grids.interpolate_values"),
    ("nlclaw.grids", "sample", "grids.sample"),
    ("nlclaw.runner", "execute", "runner.execute"),
    ("nlclaw.runner", "write_outputs", "runner.write_outputs"),
    ("nlclaw.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("nlclaw.diagnostics", "check_invariants", "diagnostics.check_invariants"),
    ("nlclaw.diagnostics", "measure_front_speed_fit",
     "diagnostics.measure_front_speed_fit"),
    ("nlclaw.diagnostics", "convergence_study",
     "diagnostics.convergence_study"),
    ("nlclaw.diagnostics", "stability_envelope",
     "diagnostics.stability_envelope"),
    ("nlclaw.diagnostics", "oleinik_check", "diagnostics.oleinik_check"),
    ("nlclaw.reference", "lax_oleinik_solve", "reference.lax_oleinik_solve"),
    ("nlclaw.reference", "godunov_solve", "reference.godunov_solve"),
    ("nlclaw.reference", "front_tracking_solve",
     "reference.front_tracking_solve"),
    ("nlclaw.reference", "burgers_riemann_exact",
     "reference.burgers_riemann_exact"),
    ("nlclaw.euler", "solve_isentropic", "euler.solve_isentropic"),
    ("nlclaw.euler", "conservative_residual", "euler.conservative_residual"),
    ("nlclaw.twodim", "solve_velocity_reg_2d", "twodim.solve_velocity_reg_2d"),
    ("nlclaw.acceptance", "write_results", "acceptance.write_results"),
)

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "solver.solve_nn": "solver.self_s",
    "solver.solve_general": "solver.self_s",
    "solver.solve_conservative_nonlocal": "solver.self_s",
    "kernel.convolve_values": "kernel.convolve_s",
    "grids.interpolate_values": "grids.interp_s",
    "grids.sample": "grids.sample_s",
    "expressions.eval": "expressions.eval_s",
    "runner.execute": "runner.execute_s",
    "runner.write_outputs": "runner.write_s",
    "scenario.parse_scenario": "scenario.parse_s",
    "diagnostics.check_invariants": "diagnostics.check_invariants_s",
    "diagnostics.measure_front_speed_fit":
        "diagnostics.measure_front_speed_fit_s",
    "diagnostics.convergence_study": "diagnostics.convergence_study_s",
    "diagnostics.stability_envelope": "diagnostics.stability_envelope_s",
    "diagnostics.oleinik_check": "diagnostics.oleinik_check_s",
    "reference.lax_oleinik_solve": "reference.lax_oleinik_solve_s",
    "reference.godunov_solve": "reference.godunov_solve_s",
    "reference.front_tracking_solve": "reference.front_tracking_solve_s",
    "reference.burgers_riemann_exact": "reference.burgers_riemann_exact_s",
    "euler.solve_isentropic": "euler.solve_s",
    "euler.conservative_residual": "euler.residual_s",
    "twodim.solve_velocity_reg_2d": "twodim.solve_s",
    "acceptance.write_results": "acceptance.write_s",
    "trace.counters": "trace.counters_s",
}

COUNT_METRICS = (
    "solver.solves", "solver.steps", "solver.picard_iters",
    "solver.node_steps", "solver.levels_stored", "solver.divergences",
    "kernel.convolve_calls", "kernel.convolve_macs",
    "grids.interp_calls", "grids.interp_points",
    "expressions.eval_calls",
    "runner.bytes_out", "runner.rows_out",
    "scenario.parse_calls",
    "diagnostics.states_checked",
    "reference.calls",
)


def criterion_span(number: int) -> str:
    return f"acceptance.c{number}"


def criterion_metric(number: int) -> str:
    return f"acceptance.c{number}_s"


def active_nodes(states, radius: int) -> int:
    """Node-levels where the mollified velocity is not constant, i.e. the
    state is not constant over the kernel window around the node."""
    total = 0
    for st in states:
        v = st.values
        size = 2 * radius + 1
        hi = maximum_filter1d(v, size, mode="nearest")
        lo = minimum_filter1d(v, size, mode="nearest")
        total += int(np.count_nonzero(hi != lo))
    return total


class Tracer:
    """Spans and counters for one traced pass; install, run, restore."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")  # index of the operation in its pass
        self.current_op = -1
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.active_node_levels = 0
        self.node_levels = 0
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []
        self.wall_s = 0.0

    # spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = len(self.names)
            self.names.append(name)
            self._name_ids[name] = i
        return i

    def _open(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.current_op)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        t1 = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - self.span_start[idx]
        self.self_time[self.names[self.span_name[idx]]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close()
                if on_return is not None:
                    with tracer.span("trace.counters"):
                        on_return(args, kwargs, None, e)
                raise
            tracer._close()
            if on_return is not None:
                with tracer.span("trace.counters"):
                    on_return(args, kwargs, out, None)
            return out

        traced.__wrapped__ = fn
        return traced

    # counters ----------------------------------------------------------
    def _count_kernel(self, args, kwargs):
        m, values = args[0], args[1]
        self.counts["kernel.convolve_calls"] += 1
        self.counts["kernel.convolve_macs"] += int(
            np.size(values) * m.weights.size
        )

    def _count_interp(self, args, kwargs):
        self.counts["grids.interp_calls"] += 1
        self.counts["grids.interp_points"] += int(np.size(args[3]))

    def _count_expr(self, args, kwargs):
        self.counts["expressions.eval_calls"] += 1

    def _count_parse(self, args, kwargs):
        self.counts["scenario.parse_calls"] += 1

    def _count_reference(self, args, kwargs):
        self.counts["reference.calls"] += 1

    def _after_solve(self, args, kwargs, traj, exc):
        from nlclaw.solver import PicardDivergenceError

        if exc is not None:
            if isinstance(exc, PicardDivergenceError):
                self.counts["solver.divergences"] += 1
            return
        self.counts["solver.solves"] += 1
        n = traj.grid.n
        levels = len(traj.states)
        self.counts["solver.levels_stored"] += levels
        if traj.picard_counts is not None:
            steps = int(traj.picard_counts.size)
            self.counts["solver.steps"] += steps
            self.counts["solver.picard_iters"] += int(traj.picard_counts.sum())
            self.counts["solver.node_steps"] += steps * n
        radius = int(np.ceil(traj.epsilon / traj.grid.dx))
        self.active_node_levels += active_nodes(traj.states, radius)
        self.node_levels += levels * n

    def _after_states(self, args, kwargs, out, exc):
        for a in args:
            states = getattr(a, "states", None)
            if states is not None:
                self.counts["diagnostics.states_checked"] += len(states)

    def _after_write(self, args, kwargs, written, exc):
        if exc is not None:
            return
        res = args[1]
        rows = len(res.snapshot_rows) if res.snapshot_rows is not None else 0
        rows += sum(len(extra[3]) for extra in res.extra_snapshots)
        self.counts["runner.rows_out"] += rows
        self.counts["runner.bytes_out"] += sum(
            Path(p).stat().st_size for p in written
        )

    # install / restore -------------------------------------------------
    def install(self) -> None:
        import nlclaw  # noqa: F401  (load every module before scanning)
        import nlclaw.acceptance  # noqa: F401
        import nlclaw.runner  # noqa: F401
        from nlclaw.expressions import Expression

        hooks = {
            "kernel.convolve_values": (self._count_kernel, None),
            "grids.interpolate_values": (self._count_interp, None),
            "scenario.parse_scenario": (self._count_parse, None),
            "runner.write_outputs": (None, self._after_write),
            "diagnostics.check_invariants": (None, self._after_states),
            "diagnostics.stability_envelope": (None, self._after_states),
        }
        for span in SELF_TIME_METRIC:
            if span.startswith("solver."):
                hooks[span] = (None, self._after_solve)
            elif span.startswith("reference."):
                hooks[span] = (self._count_reference, None)

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nlclaw" or name.startswith("nlclaw."))
        ]
        for mod_name, attr, span in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            on_call, on_return = hooks.get(span, (None, None))
            wrapper = self.wrap(original, span, on_call, on_return)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

        original_call = Expression.__call__
        self._saved.append((Expression, "__call__", original_call))
        Expression.__call__ = self.wrap(
            original_call, "expressions.eval", self._count_expr
        )

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Rebound attributes that do not hold their original again."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if getattr(owner, attr) is not original
        ]

    # results -----------------------------------------------------------
    def metrics(self, criteria) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs the
        untraced pass."""
        out = {}
        for metric in sorted(set(SELF_TIME_METRIC.values())):
            out[metric] = 0.0
        for n in criteria:
            out[criterion_metric(n)] = self.self_time.get(criterion_span(n), 0.0)
        for span, metric in SELF_TIME_METRIC.items():
            out[metric] += self.self_time.get(span, 0.0)
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0)
        iters = self.counts.get("solver.picard_iters", 0)
        out["solver.picard_per_step"] = (
            self.counts.get("solver.steps", 0) / iters if iters else 0.0
        )
        out["solver.active_share"] = (
            self.active_node_levels / self.node_levels
            if self.node_levels else 0.0
        )
        attributed = sum(self.self_time.values())
        out["trace.wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.wall_s - attributed
        return out

    def summary(self) -> dict:
        """Inclusive and self time and call count per span name."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=dur, minlength=k)
        return {
            n: {"calls": int(calls[i]), "inclusive_s": float(inclusive[i]),
                "self_s": self.self_time[n]}
            for i, n in sorted(enumerate(self.names), key=lambda t: t[1])
        }

    def write_spans(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
