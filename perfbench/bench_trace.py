"""Tracing for the benchmark, kept entirely outside the ofonet package.

A traced pass runs each command of a workload through ``cli.main`` once
more, inside ``instrumented``.  That swaps the public functions of each
ofonet module, and ``numpy.linalg.svd``/``solve``/``eigvals``, for
wrappers that record a span per call (name, start, end, parent,
workload-run id) and attribute each linalg call to the innermost open
span.  Every call of the command into a layer thus gets a span, and the
spans cover what the program really calls.  The per-step functions of
``controller`` and ``objective`` are not wrapped, since a span per step
would swamp the loop; ``replay_steps`` times them afterwards on (u, y)
pairs recorded from the command's trajectories.  ``layer_metrics`` turns
one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

LINALG_OPS = ("svd", "solve", "eigvals")

# Calls replayed per recorded trajectory for the controller/objective timings.
MICRO_SAMPLES = 400

CERT_SPANS = ("analysis.coupling", "analysis.constants", "analysis.suboptimality", "analysis.xi")

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "cli.config_ms": "ms",
    "cli.self_ms": "ms",
    "plant.from_dict_ms": "ms",
    "plant.sensitivity_ms": "ms",
    "plant.eig_calls": "count",
    "powergrid.assemble_ms": "ms",
    "powergrid.sweep_row_ms": "ms",
    "powergrid.sweep_csv_ms": "ms",
    "objective.grad_us": "us",
    "controller.centralized_step_us": "us",
    "controller.decentralized_step_us": "us",
    "equilibria.global_optimum_ms": "ms",
    "equilibria.fixed_point_ms": "ms",
    "analysis.report_ms": "ms",
    "analysis.svd_calls": "count",
    "analysis.svd_ms": "ms",
    "analysis.sweep_certs_ms": "ms",
    "sim.algebraic_step_us": "us",
    "sim.lti_step_us": "us",
    "sim.iterations": "count",
    "sim.csv_ms": "ms",
    "sim.csv_bytes": "B",
    "sim.metrics_ms": "ms",
    "sim.traj_mb": "MB",
    "trace.overhead_ms": "ms",
}
PER_LAYER = tuple(UNITS)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    run: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)
    # (call arguments, result) of a closed-loop run, kept for replay_steps
    loop: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and linalg events of one workload run."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        # (op, innermost span id, seconds)
        self.linalg: list[tuple[str, Optional[int], float]] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def current(self) -> Optional[int]:
        return self._stack[-1].id if self._stack else None

    def write(self, fh) -> None:
        """Write the spans as JSON lines, each with its own linalg call counts."""
        calls: dict = {}
        for op, span_id, _ in self.linalg:
            counts = calls.setdefault(span_id, {})
            counts[op] = counts.get(op, 0) + 1
        for s in self.spans:
            record = {"id": s.id, "name": s.name, "parent": s.parent, "run": s.run,
                      "start": s.start, "end": s.end, "linalg": calls.get(s.id, {}), **s.attrs}
            fh.write(json.dumps(record) + "\n")


def _loop_note(span: Span, args: dict, traj) -> None:
    arrays = [traj.u_series, traj.y_series]
    if traj.x_series is not None:
        arrays.append(traj.x_series)
    span.attrs["iterations"] = traj.info.iterations
    span.attrs["traj_bytes"] = sum(math.prod(a.shape) * a.itemsize for a in arrays)
    span.loop = (args, traj)


def _csv_note(span: Span, args: dict, _) -> None:
    span.attrs["bytes"] = os.path.getsize(args["path"])


def _sweep_note(span: Span, _, rows) -> None:
    span.attrs["rows"] = len(rows)


# (module, function, span name, hook that annotates the span from the call)
LAYER_FUNCTIONS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "_load_config", "cli.config", None),
    ("plant", "plant_from_dict", "plant.from_dict", None),
    ("plant", "compute_sensitivity", "plant.sensitivity", None),
    ("powergrid", "spec_from_dict", "powergrid.spec", None),
    ("powergrid", "assemble_plant", "powergrid.assemble", None),
    ("powergrid", "sweep_g", "powergrid.sweep", _sweep_note),
    ("powergrid", "write_sweep_csv", "powergrid.sweep_csv", None),
    ("equilibria", "global_optimum", "equilibria.global_optimum", None),
    ("equilibria", "decentralized_fixed_point", "equilibria.fixed_point", None),
    ("analysis", "build_report", "analysis.report", None),
    ("analysis", "coupling_condition", "analysis.coupling", None),
    ("analysis", "monotonicity_constants", "analysis.constants", None),
    ("analysis", "suboptimality_bound", "analysis.suboptimality", None),
    ("analysis", "xi_matrix", "analysis.xi", None),
    ("sim", "run_algebraic", "sim.algebraic", _loop_note),
    ("sim", "run_lti", "sim.lti", _loop_note),
    ("sim", "metrics", "sim.metrics", None),
    ("sim", "write_trajectory_csv", "sim.csv", _csv_note),
)


def _span_wrapper(rec: Recorder, fn, name: str, note):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            result = fn(*args, **kwargs)
            if note is not None:
                note(span, signature.bind(*args, **kwargs).arguments, result)
            return result

    wrapper.__wrapped__ = fn
    return wrapper


def _linalg_wrapper(rec: Recorder, op: str, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.linalg.append((op, rec.current(), time.perf_counter() - start))

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrumented(rec: Recorder):
    """Route every reference to the traced functions through span wrappers.

    Each ofonet module that holds a reference to a traced function (by
    ``from x import f`` or as the defining module) gets the wrapper, so
    nested calls such as ``build_report -> global_optimum`` open nested
    spans.  Everything is restored on exit.
    """
    patches = []
    modules = [m for key, m in sys.modules.items() if key == "ofonet" or key.startswith("ofonet.")]
    try:
        for module_name, attr, span_name, note in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"ofonet.{module_name}"), attr)
            wrapper = _span_wrapper(rec, original, span_name, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for op in LINALG_OPS:
            original = getattr(np.linalg, op)
            patches.append((np.linalg, op, original))
            setattr(np.linalg, op, _linalg_wrapper(rec, op, original))
        yield
    finally:
        for target, key, original in reversed(patches):
            setattr(target, key, original)


def replay_steps(rec: Recorder, root: Span) -> None:
    """Time the controller step and objective gradients on recorded iterates.

    Uses the trajectories of the closed loops that ``root`` (one
    command) ran directly; loops nested deeper, such as sweep rows, are
    only counted.  Run it outside ``instrumented``.
    """
    from ofonet import objective as obj_mod
    from ofonet.controller import Mode, centralized_step, decentralized_step
    from ofonet.plant import compute_sensitivity

    for span in rec.spans[root.id + 1:]:
        if span.start > root.end:
            break
        if span.loop is None:
            continue
        args, traj = span.loop
        span.loop = None
        if span.parent != root.id:
            continue
        obj, cfg = args["obj"], args["cfg"]
        model = args["model"] if "model" in args else compute_sensitivity(args["plant"])
        rows = np.unique(np.linspace(0, len(traj) - 1, MICRO_SAMPLES).astype(int))
        pairs = [(traj.u_series[k], traj.y_series[k]) for k in rows]
        step = centralized_step if cfg.mode is Mode.CENTRALIZED else decentralized_step
        with rec.span(f"controller.{cfg.mode.value}_step", calls=len(pairs)):
            for u, y in pairs:
                step(cfg, obj, model, u, y)
        with rec.span("objective.grad", calls=len(pairs)):
            for u, y in pairs:
                obj_mod.grad_u(obj, u)
                obj_mod.grad_y(obj, y)


def _ancestors(spans: list[Span], span: Span):
    parent = span.parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(rec: Recorder, roots: list[Span], untraced: list[float]) -> dict:
    """Per-layer metrics of one traced pass.

    ``roots`` are the traced ``cli.main`` spans of the pass's commands and
    ``untraced`` the seconds the same commands took with tracing off.
    Times are summed over the pass; per-step and per-call times are
    pooled over every call of the pass.
    """
    spans = rec.spans
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total_ms(name: str) -> float:
        return 1e3 * sum(s.duration for s in by_name.get(name, ()))

    def self_time(s: Span) -> float:
        return s.duration - sum(c.duration for c in children.get(s.id, ()))

    def per_call_us(name: str) -> float:
        found = by_name.get(name, ())
        calls = sum(s.attrs["calls"] for s in found)
        return 1e6 * sum(s.duration for s in found) / calls if calls else 0.0

    def per_step_us(name: str) -> float:
        found = by_name.get(name, ())
        steps = sum(s.attrs["iterations"] for s in found)
        return 1e6 * sum(self_time(s) for s in found) / steps if steps else 0.0

    reports = by_name.get("analysis.report", ())
    report_ids = {s.id for s in reports}
    report_svds = sum(
        1
        for op, sid, _ in rec.linalg
        if op == "svd" and sid is not None
        and (sid in report_ids or any(a.id in report_ids for a in _ancestors(spans, spans[sid])))
    )
    svd_s = sum(
        dt for op, sid, dt in rec.linalg
        if op == "svd" and sid is not None and spans[sid].name.startswith("analysis.")
    )
    sweep_certs = sum(
        s.duration
        for name in CERT_SPANS
        for s in by_name.get(name, ())
        if any(a.name == "powergrid.sweep" for a in _ancestors(spans, s))
        and spans[s.parent].name not in CERT_SPANS
    )
    sweeps = by_name.get("powergrid.sweep", ())
    sweep_rows = sum(s.attrs["rows"] for s in sweeps)
    runs = by_name.get("sim.algebraic", []) + by_name.get("sim.lti", [])
    return {
        "cli.config_ms": total_ms("cli.config"),
        "cli.self_ms": 1e3 * sum(self_time(root) for root in roots),
        "plant.from_dict_ms": total_ms("plant.from_dict"),
        "plant.sensitivity_ms": total_ms("plant.sensitivity"),
        "plant.eig_calls": sum(1 for op, _, _ in rec.linalg if op == "eigvals"),
        "powergrid.assemble_ms": total_ms("powergrid.assemble"),
        "powergrid.sweep_row_ms": total_ms("powergrid.sweep") / sweep_rows if sweep_rows else 0.0,
        "powergrid.sweep_csv_ms": total_ms("powergrid.sweep_csv"),
        "objective.grad_us": per_call_us("objective.grad"),
        "controller.centralized_step_us": per_call_us("controller.centralized_step"),
        "controller.decentralized_step_us": per_call_us("controller.decentralized_step"),
        "equilibria.global_optimum_ms": total_ms("equilibria.global_optimum"),
        "equilibria.fixed_point_ms": total_ms("equilibria.fixed_point"),
        "analysis.report_ms": total_ms("analysis.report"),
        "analysis.svd_calls": report_svds // len(reports) if reports else 0,
        "analysis.svd_ms": 1e3 * svd_s,
        "analysis.sweep_certs_ms": 1e3 * sweep_certs,
        "sim.algebraic_step_us": per_step_us("sim.algebraic"),
        "sim.lti_step_us": per_step_us("sim.lti"),
        "sim.iterations": sum(s.attrs["iterations"] for s in runs),
        "sim.csv_ms": total_ms("sim.csv"),
        "sim.csv_bytes": sum(s.attrs.get("bytes", 0) for s in by_name.get("sim.csv", ())),
        "sim.metrics_ms": total_ms("sim.metrics"),
        "sim.traj_mb": max((s.attrs["traj_bytes"] for s in runs), default=0) / 1e6,
        "trace.overhead_ms": 1e3 * (sum(root.duration for root in roots) - sum(untraced)),
    }
