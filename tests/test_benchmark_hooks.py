"""The names the benchmark in perfbench/ looks up in nlgeo must keep existing.

perfbench/worker.py wraps each (module, attribute) of SEGMENT_POINTS to time
long commands in segments, and skips any that is gone. So a rename there
would silently leave a command timed as one segment; this test fails instead.
perfbench/tracer.py likewise wraps TRACED_NAMES, and a name that is gone
would make its per-layer time read 0.
"""

import importlib
from pathlib import Path

import nlgeo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_NAMES = (
    ("nlgeo.cli", "write_table"),
    ("nlgeo.cli", "cglmp_threshold"),
    ("nlgeo.measures", "cglmp_threshold"),
)


def test_segment_points_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from worker import SEGMENT_POINTS

    assert SEGMENT_POINTS
    for module, attr in SEGMENT_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_names_resolve_to_callables():
    for module, attr in TRACED_NAMES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_library_names_the_benchmark_calls():
    assert callable(nlgeo.bd_measure)
    assert nlgeo.DistanceKind("hs") is nlgeo.DistanceKind.HS
