"""In-memory spans around the calls into each engine module.

Each wrapper replaces a function under the name its caller looks it up by,
so the engine is traced without being edited. A span is
``[name, start, end, parent, op, child_time]``; spans are kept in memory and
written out once, when the run ends. A span's self time is its duration
minus the time its children cover (children of one span never overlap,
because the traced operations run in one thread).
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from time import perf_counter

from macrostress import cli, dynamics, intermediation, monetary, policy, stochastics, svg


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rk4_steps(result, args, kwargs):
    return round(_arg(args, kwargs, 2, "horizon") / _arg(args, kwargs, 3, "dt"))


# (owner, attribute, span name, (counter name, measure(result, args, kwargs)) or None)
_PATCHES = [
    (dynamics, "integrate_labor_share", "dynamics.integrate_labor_share",
     ("dynamics.integrate_labor_share.rk4_steps", _rk4_steps)),
    (dynamics, "simulate_path", "dynamics.simulate_path",
     ("dynamics.simulate_path.rows", lambda r, a, k: len(r.points))),
    (cli, "simulate_path", "dynamics.simulate_path",
     ("dynamics.simulate_path.rows", lambda r, a, k: len(r.points))),
    (dynamics.Trajectory, "to_csv", "dynamics.Trajectory.to_csv",
     ("dynamics.Trajectory.to_csv.bytes", lambda r, a, k: len(r.encode()))),
    (svg, "write_line_chart", "svg.write_line_chart",
     ("svg.write_line_chart.bytes", lambda r, a, k: os.path.getsize(a[0]))),
    (stochastics, "sample_calibration", "stochastics.sample_calibration", None),
    (dynamics, "validate", "params.validate", None),
    (stochastics, "validate", "params.validate", None),
    (stochastics, "with_updates", "params.with_updates", None),
    (stochastics, "monte_carlo", "stochastics.monte_carlo",
     ("stochastics.monte_carlo.failed_draws", lambda r, a, k: r.n_failures)),
    (cli, "monte_carlo", "stochastics.monte_carlo",
     ("stochastics.monte_carlo.failed_draws", lambda r, a, k: r.n_failures)),
    (policy, "policy_sweep", "policy.policy_sweep",
     ("policy.policy_sweep.cells", lambda r, a, k: len(r))),
    (cli, "policy_sweep", "policy.policy_sweep",
     ("policy.policy_sweep.cells", lambda r, a, k: len(r))),
    (policy, "crisis_depth", "policy.crisis_depth", None),
    (monetary, "cumulative_consumption_decline", "monetary.cumulative_consumption_decline", None),
    (monetary, "consumption_shock", "monetary.consumption_shock", None),
    (cli, "dscr_sensitivity", "credit.dscr_sensitivity", None),
    (intermediation, "sector_report", "intermediation.sector_report", None),
]
_DRAWS_PER_CALIBRATION = len(fields(stochastics.ParamRanges))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            if counter is not None:
                counts[self.op, counter[0]] += counter[1](result, args, kwargs)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counts[self.op, name] += amount

    @contextmanager
    def installed(self, op: int):
        """Trace operation ``op``: wrap every engine entry point, restore them on exit."""
        self.op = op
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _PATCHES
                 if attr in owner.__dict__]
        for owner, attr, name, counter in _PATCHES:
            if attr in owner.__dict__:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], counter))
        draw = stochastics.SampleSpec.draw

        def counted_draw(spec, rng):
            self.counts[self.op, "SampleSpec.draw"] += 1
            return draw(spec, rng)

        stochastics.SampleSpec.draw = counted_draw
        try:
            yield self
        finally:
            stochastics.SampleSpec.draw = draw
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def op_totals(self) -> dict[int, dict[str, list[float]]]:
        """Per operation, per span name: [calls, inclusive seconds, self seconds, top-level seconds]."""
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0.0]))
        for name, start, end, parent, op, child in self.spans:
            row = out[op][name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
            if parent < 0:
                row[3] += end - start
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, "self_s": end - start - child,
                }) + "\n")


# Per-layer metric -> (span name, field of op_totals) or counter name.
_SPAN_METRICS = {
    "dynamics.integrate_labor_share.calls": ("dynamics.integrate_labor_share", 0),
    "dynamics.integrate_labor_share.self_s": ("dynamics.integrate_labor_share", 2),
    "dynamics.simulate_path.calls": ("dynamics.simulate_path", 0),
    "dynamics.simulate_path.self_s": ("dynamics.simulate_path", 2),
    "dynamics.Trajectory.to_csv.s": ("dynamics.Trajectory.to_csv", 1),
    "svg.write_line_chart.calls": ("svg.write_line_chart", 0),
    "svg.write_line_chart.s": ("svg.write_line_chart", 1),
    "stochastics.sample_calibration.calls": ("stochastics.sample_calibration", 0),
    "stochastics.sample_calibration.self_s": ("stochastics.sample_calibration", 2),
    "params.validate.calls": ("params.validate", 0),
    "params.validate.s": ("params.validate", 1),
    "params.with_updates.calls": ("params.with_updates", 0),
    "params.with_updates.s": ("params.with_updates", 1),
    "stochastics.monte_carlo.s": ("stochastics.monte_carlo", 1),
    "policy.policy_sweep.s": ("policy.policy_sweep", 1),
    "policy.crisis_depth.s": ("policy.crisis_depth", 1),
    "monetary.cumulative_consumption_decline.s": ("monetary.cumulative_consumption_decline", 1),
    "cli.repro.self_s": ("cli.repro", 2),
    "credit.dscr_sensitivity.s": ("credit.dscr_sensitivity", 1),
    "intermediation.sector_report.s": ("intermediation.sector_report", 1),
    "monetary.consumption_shock.s": ("monetary.consumption_shock", 1),
}
_COUNTERS = (
    "dynamics.integrate_labor_share.rk4_steps", "dynamics.simulate_path.rows",
    "dynamics.Trajectory.to_csv.bytes", "svg.write_line_chart.bytes",
    "stochastics.monte_carlo.failed_draws", "policy.policy_sweep.cells", "cli.repro.bytes_written",
)


def layer_metrics(tracer: Tracer, traced_walls: dict[int, float]) -> tuple[dict, dict]:
    """Median over traced operations of each per-layer metric, plus each span's self-time share."""
    totals = tracer.op_totals()
    ops = sorted(traced_walls)
    per_op: dict[str, list[float]] = defaultdict(list)
    shares: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        t = totals[op]
        for metric, (span, field) in _SPAN_METRICS.items():
            per_op[metric].append(t[span][field] if span in t else 0.0)
        for name in _COUNTERS:
            per_op[name].append(tracer.counts.get((op, name), 0.0))
        steps = tracer.counts.get((op, "dynamics.integrate_labor_share.rk4_steps"), 0.0)
        rk4_self = t["dynamics.integrate_labor_share"][2] if "dynamics.integrate_labor_share" in t else 0.0
        per_op["dynamics.integrate_labor_share.ns_per_step"].append(1e9 * rk4_self / steps if steps else 0.0)
        draws = tracer.counts.get((op, "SampleSpec.draw"), 0.0)
        kept = t["stochastics.sample_calibration"][0] if "stochastics.sample_calibration" in t else 0
        per_op["stochastics.sample_calibration.accept_ratio"].append(
            kept / (draws / _DRAWS_PER_CALIBRATION) if draws else 0.0)
        per_op["trace.coverage"].append(sum(row[3] for row in t.values()) / traced_walls[op])
        for span, row in t.items():
            shares[span].append(row[2] / traced_walls[op])
    metrics = {name: statistics.median(values) for name, values in per_op.items()}
    return metrics, {span: statistics.median(v) for span, v in sorted(shares.items())}
