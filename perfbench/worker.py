"""Workload process: runs one workload's operations against nlgeo and records
what it measured.

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP pools pinned to one thread. It imports nlgeo and numpy only (no
scipy). It runs the warm-up list once, then whole passes until --seconds
have elapsed and the workload's ``min_passes`` are done; with --trace 1
untraced and traced passes alternate, so the tracing overhead is measured
in the same process. Every operation is timed in segments, each between two
calibration loops and scaled to nominal speed (calibration.py, NominalClock).
Results go to <work>/results.json.

    python3 perfbench/worker.py --inputs IN.json --work DIR --seconds 12 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import nlgeo
import nlgeo.cli

import calibration
import tracer as tracing


def _failure(exc: BaseException) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    Not ru_maxrss: Linux keeps that across the fork and exec that start the
    worker, so it would report run.py's own peak (numpy, scipy) instead.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# A long command is split into segments of at least SEGMENT_S, each scaled by
# the calibrations at its two ends, so a slow spell of the host costs only the
# segments it hit. A segment can end only when one of these callables returns
# (one grid or sweep point, one numeric solve of the validation checks).
SEGMENT_S = 0.25
SEGMENT_POINTS = (
    ("nlgeo.measures", "bd_measure"),
    ("nlgeo.validation", "bd_measure_numeric"),
)


class NominalClock:
    """Times operations in nominal seconds (calibration.py), segment by segment."""

    def __init__(self):
        self.cal = calibration.calibrate()
        self.segmenting = True
        self.t0 = time.perf_counter()
        self.raw = self.nominal = 0.0

    def start(self) -> None:
        self.raw = self.nominal = 0.0
        self.t0 = time.perf_counter()

    def _close_segment(self, now: float) -> None:
        raw = now - self.t0
        cal = calibration.calibrate()
        self.raw += raw
        self.nominal += raw * calibration.scale(self.cal, cal)
        self.cal = cal
        self.t0 = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if self.segmenting and now - self.t0 >= SEGMENT_S:
            self._close_segment(now)

    def stop(self) -> dict:
        """Raw and nominal milliseconds since start(), calibrations left out."""
        self._close_segment(time.perf_counter())
        return {"raw_ms": self.raw * 1e3, "ms": self.nominal * 1e3}


def install_segment_points(clock: NominalClock) -> None:
    for module, attr in SEGMENT_POINTS:
        owner = importlib.import_module(module)
        fn = getattr(owner, attr, None)
        if fn is None:
            continue

        def ticking(*args, _fn=fn, **kwargs):
            try:
                return _fn(*args, **kwargs)
            finally:
                clock.tick()

        setattr(owner, attr, ticking)


def run_cli(op: dict, out_dir: Path, clock: NominalClock) -> dict:
    argv = op["argv"] + ["--out", str(out_dir / op["out"])]
    clock.start()
    try:
        rc = nlgeo.cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crashed benchmark
        return {**clock.stop(), "rc": None, "error": _failure(exc)}
    return {**clock.stop(), "rc": rc, "error": None}


def run_bd(op: dict, clock: NominalClock) -> dict:
    kind = nlgeo.DistanceKind(op["kind"])
    a = np.array(op["a"], dtype=float)
    clock.start()
    try:
        res = nlgeo.bd_measure(kind, a)
    except Exception as exc:
        return {**clock.stop(), "error": _failure(exc)}
    return {
        **clock.stop(),
        "error": None,
        "value": float(res.value),
        "closest": [float(x) for x in res.closest_local.a],
        "method": res.method,
        "converged": bool(res.converged),
    }


def run_op(op: dict, out_dir: Path, clock: NominalClock) -> dict:
    return run_cli(op, out_dir, clock) if "argv" in op else run_bd(op, clock)


def run_pass(ops: list, out_dir: Path, traced: bool, clock: NominalClock) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if traced else None
    undo, missing = tracing.install(tracer) if traced else ([], [])
    # a traced pass is timed op by op: a calibration inside a span would count in it
    clock.segmenting = not traced
    records = []
    try:
        for op in ops:
            if tracer is not None:
                tracer.enter("bench.op")
            try:
                records.append(run_op(op, out_dir, clock))
            finally:
                if tracer is not None:
                    tracer.exit()
    finally:
        clock.segmenting = True
        tracing.uninstall(undo)
    raw = sum(r["raw_ms"] for r in records) / 1e3
    seconds = sum(r["ms"] for r in records) / 1e3
    result = {"traced": traced, "seconds": seconds, "raw_seconds": raw, "dir": out_dir.name, "ops": records}
    if tracer is not None:
        # layer times on the same nominal scale as the pass
        result["layers"] = {
            k: v * seconds / raw if tracing.is_time(k) else v for k, v in tracing.layer_metrics(tracer).items()
        }
        result["spans"] = tracer.spans
        result["totals"] = tracer.totals
        result["untraced_names"] = missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = Path(args.work)
    src = Path.cwd().resolve() / "src"
    if src not in Path(nlgeo.__file__).resolve().parents:
        print(f"worker: imported nlgeo from {nlgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    spec = json.loads(Path(args.inputs).read_text())

    clock = NominalClock()
    install_segment_points(clock)
    (work / "warmup").mkdir(parents=True, exist_ok=True)
    warmup = [run_op(op, work / "warmup", clock) for op in spec["warmup"]]

    modes = (False, True) if args.trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        for traced in modes:
            passes.append(run_pass(spec["ops"], work / f"pass{len(passes)}", traced, clock))
        if time.perf_counter() - start >= args.seconds and len(passes) >= spec["min_passes"]:
            break

    traced = [p for p in passes if p["traced"]]
    if traced:
        # spans of the last traced pass: (id, name, start, end, parent, self)
        (work / "spans.json").write_text(json.dumps({
            "spans": traced[-1]["spans"],
            "totals": traced[-1]["totals"],
        }))
        for p in traced:
            del p["spans"], p["totals"]
    results = {
        "warmup": {"dir": "warmup", "ops": warmup},
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
    }
    (work / "results.json").write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
