"""In-memory span tracer and the instrumentation of nlgeo's public callables.

The tracer wraps each callable at the name its caller looks up (for example
``nlgeo.cli.bd_grid``, which the CLI calls, and ``nlgeo.measures.bd_measure``,
which ``bd_grid`` calls), so nothing inside nlgeo changes. A span is (id, name,
start, end, parent); self time is the span's duration minus the time its
child spans cover, and is accounted exactly when the span closes. The hot
leaf callables (objective value and gradient, tetrahedron projection; about
a million calls a pass) are only counted and timed, with a lighter wrapper:
keeping each of their spans would take hundreds of megabytes and double the
tracing overhead.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

HOT = frozenset({"measures.obj_value", "measures.obj_grad", "solver.project_tetrahedron"})


class Tracer:
    """Stack of open spans, kept spans, per-name totals and event counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [span_id, name, start, child_seconds]
        self.open = Counter()
        self.spans = []  # (span_id, name, start, end, parent_id, self_seconds)
        self.totals = {}  # name -> [calls, inclusive_seconds, self_seconds]
        self.counts = Counter()
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, name, self.clock(), 0.0])
        self.open[name] += 1

    def exit(self) -> None:
        end = self.clock()
        span_id, name, start, child = self.stack.pop()
        self.open[name] -= 1
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        # a span nested in one of its own name is already inside that one's time
        if not self.open[name]:
            total[1] += duration
        total[2] += duration - child
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, duration - child))

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    enter, leave = tracer.enter, tracer.exit

    def traced(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if hook is not None:
            hook(result)
        return result

    return traced


def _wrap_hot(tracer: Tracer, name: str, fn):
    """Count and time a leaf callable, charging its time to the open span."""
    clock, stack = tracer.clock, tracer.stack
    total = tracer.totals.setdefault(name, [0, 0.0, 0.0])

    def traced(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - t0
            total[0] += 1
            total[1] += duration
            total[2] += duration
            if stack:
                stack[-1][3] += duration

    return traced


class _ByteCounter:
    """File proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, out):
        self._out = out
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self._out.write(text)


def _wrap_write_table(tracer: Tracer, fn):
    def traced(out, *args, **kwargs):
        counter = _ByteCounter(out)
        tracer.enter("cli.write_table")
        try:
            return fn(counter, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.counts["cli.write_table.bytes"] += counter.bytes

    return traced


def _hooks(tracer: Tracer) -> dict:
    counts, open_spans = tracer.counts, tracer.open

    def on_bd_measure(result) -> None:
        if not open_spans["measures.bd_measure"]:
            counts["measures.method." + getattr(result, "method", "unknown")] += 1
            if not getattr(result, "converged", True):
                counts["measures.unconverged"] += 1

    def on_hs(result) -> None:
        method = getattr(result, "method", None)
        if method == "numeric":
            counts["measures.hs_fallback.calls"] += 1
        elif method == "lagrange_case":
            counts["measures.hs_lagrange_case.calls"] += 1

    def on_minimize(report) -> None:
        counts["solver.iterations"] += getattr(report, "iterations", 0)

    return {
        "measures.bd_measure": on_bd_measure,
        "measures.bd_measure_hs": on_hs,
        "solver.minimize": on_minimize,
    }


# (module or class, attribute, span name): every place a caller looks a
# traced callable up. Attributes a later version of nlgeo no longer has are
# skipped and reported.
PATCHES = (
    ("nlgeo.cli", "bd_grid", "measures.bd_grid"),
    ("nlgeo.cli", "bd_sweep", "measures.bd_sweep"),
    ("nlgeo", "bd_measure", "measures.bd_measure"),
    ("nlgeo.cli", "bd_measure", "measures.bd_measure"),
    ("nlgeo.measures", "bd_measure", "measures.bd_measure"),
    ("nlgeo.measures", "bd_measure_hs", "measures.bd_measure_hs"),
    ("nlgeo.measures", "bd_measure_numeric", "measures.numeric"),
    ("nlgeo.solver", "minimize_over_local_set", "solver.minimize"),
    ("nlgeo.solver", "project_tetrahedron", "solver.project_tetrahedron"),
    ("nlgeo.solver", "polish_feasible", "solver.polish_feasible"),
    ("nlgeo.measures:BdObjective", "value_at", "measures.obj_value"),
    ("nlgeo.measures:BdObjective", "gradient_at", "measures.obj_grad"),
    ("nlgeo.cli", "werner_measure", "measures.werner_measure"),
    ("nlgeo.measures", "werner_measure", "measures.werner_measure"),
    ("nlgeo.measures", "isotropic_measure", "measures.isotropic_measure"),
    ("nlgeo.measures", "dist_hs", "metrics"),
    ("nlgeo.measures", "dist_hellinger_sq", "metrics"),
    ("nlgeo.measures", "dist_bures", "metrics"),
    ("nlgeo.measures", "dist_trace", "metrics"),
    ("nlgeo.measures", "rel_entropy", "metrics"),
    ("nlgeo.metrics", "fidelity", "metrics"),
    ("nlgeo.measures", "make_isotropic", "qstate.make_isotropic"),
    ("nlgeo.cli", "cglmp_threshold", "locality.cglmp_threshold"),
    ("nlgeo.measures", "cglmp_threshold", "locality.cglmp_threshold"),
    ("nlgeo.measures", "bd_is_chsh_local", "locality.bd_is_chsh_local"),
    ("nlgeo.cli", "write_table", "cli.write_table"),
)


def _target(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Patch every callable in PATCHES; returns (undo list, missing names)."""
    hooks = _hooks(tracer)
    undo, missing = [], []
    for path, attr, name in PATCHES:
        try:
            owner = _target(path)
        except (ImportError, AttributeError):
            missing.append(f"{path}.{attr}")
            continue
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            missing.append(f"{path}.{attr}")
            continue
        if name == "cli.write_table":
            wrapped = _wrap_write_table(tracer, original)
        elif name in HOT:
            wrapped = _wrap_hot(tracer, name, original)
        else:
            wrapped = _wrap(tracer, name, original, hooks.get(name))
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one traced pass (times in seconds)."""
    numeric = t.calls("measures.numeric")
    evals = t.calls("measures.obj_value") + t.calls("measures.obj_grad")
    exact = t.counts["measures.hs_lagrange_case.calls"]
    fallback = t.counts["measures.hs_fallback.calls"]
    out = {
        "solver.minimize.calls": t.calls("solver.minimize"),
        "solver.minimize.s": t.seconds("solver.minimize"),
        "solver.iterations": t.counts["solver.iterations"],
        "solver.project_tetrahedron.calls": t.calls("solver.project_tetrahedron"),
        "solver.project_tetrahedron.s": t.seconds("solver.project_tetrahedron"),
        "solver.polish_feasible.calls": t.calls("solver.polish_feasible"),
        "solver.polish_feasible.s": t.seconds("solver.polish_feasible"),
        "solver.starts_per_solve": t.calls("solver.minimize") / numeric if numeric else 0.0,
        "solver.evals_per_solve": evals / numeric if numeric else 0.0,
        "measures.obj_value.calls": t.calls("measures.obj_value"),
        "measures.obj_grad.calls": t.calls("measures.obj_grad"),
        "measures.obj.s": t.seconds("measures.obj_value") + t.seconds("measures.obj_grad"),
        "measures.bd_measure.calls": t.calls("measures.bd_measure"),
        "measures.bd_measure.s": t.seconds("measures.bd_measure"),
        "measures.numeric.calls": numeric,
        "measures.numeric.s": t.seconds("measures.numeric"),
        "measures.hs_fallback.calls": fallback,
        # exact HS answers over nonlocal HS solves; 0 when there were none
        "measures.hs_exact_ratio": exact / (exact + fallback) if exact + fallback else 0.0,
        "measures.unconverged": t.counts["measures.unconverged"],
        "measures.bd_grid.s": t.seconds("measures.bd_grid"),
        "measures.bd_sweep.s": t.seconds("measures.bd_sweep"),
        "measures.werner_measure.calls": t.calls("measures.werner_measure"),
        "measures.isotropic_measure.s": t.seconds("measures.isotropic_measure"),
        "metrics.s": t.seconds("metrics"),
        "qstate.make_isotropic.s": t.seconds("qstate.make_isotropic"),
        "locality.cglmp_threshold.s": t.seconds("locality.cglmp_threshold"),
        "locality.bd_is_chsh_local.calls": t.calls("locality.bd_is_chsh_local"),
        "cli.write_table.s": t.seconds("cli.write_table"),
        "cli.write_table.bytes": t.counts["cli.write_table.bytes"],
    }
    for method in ("closed_form", "lagrange_case", "numeric"):
        out["measures.method." + method] = t.counts["measures.method." + method]
    return out


def is_time(metric: str) -> bool:
    return metric.endswith(".s") or metric.endswith("_s")
