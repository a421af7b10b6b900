"""The names the benchmark in perfbench/ looks up in nlgeo must keep existing.

perfbench/worker.py wraps each (module, attribute) of SEGMENT_POINTS to time
long commands in segments, and skips any that is gone. So a rename there
would silently leave a command timed as one segment; this test fails instead.
perfbench/tracer.py likewise wraps each row of its PATCHES, and a name that is
gone would make its per-layer time read 0; TRACED_NAMES lists the rows that
must resolve. It leaves out the rows of names nlgeo has dropped on purpose,
such as the HS wrapper of nlgeo.measures: bd_measure computes the HS measure
itself, so the tracer reports that row as absent and its HS counters read 0.
perfbench/checks.py requires every check of workloads.VALIDATION_CHECKS in
the validate report, each with a positive time.
"""

import importlib
from pathlib import Path

import nlgeo
from nlgeo.validation import run_validation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (module or "module:Class", attribute), written as in perfbench/tracer.py
TRACED_NAMES = (
    ("nlgeo.cli", "bd_grid"),
    ("nlgeo.cli", "bd_sweep"),
    ("nlgeo.cli", "bd_measure"),
    ("nlgeo.cli", "write_table"),
    ("nlgeo.cli", "cglmp_threshold"),
    ("nlgeo.measures", "cglmp_threshold"),
    ("nlgeo.measures", "werner_measure"),
    ("nlgeo.measures", "isotropic_measure"),
    ("nlgeo.measures", "bd_measure_numeric"),
    ("nlgeo.measures", "bd_is_chsh_local"),
    ("nlgeo.solver", "minimize_over_local_set"),
)


def test_segment_points_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import SEGMENT_POINTS

    assert SEGMENT_POINTS
    for module, attr in SEGMENT_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import PATCHES

    rows = {(path, attr) for path, attr, _ in PATCHES}
    for path, attr in TRACED_NAMES:
        assert (path, attr) in rows, (path, attr)
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (path, attr)


def test_library_names_the_benchmark_calls():
    assert callable(nlgeo.bd_measure)
    assert nlgeo.DistanceKind("hs") is nlgeo.DistanceKind.HS


def test_validate_reports_every_check_the_benchmark_requires(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import VALIDATION_CHECKS

    checks = run_validation()
    names = [c.name for c in checks]
    for name in VALIDATION_CHECKS:
        assert names.count(name) == 1, name
    assert all(c.seconds > 0.0 for c in checks)
