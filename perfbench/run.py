"""nlgeo benchmark: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py --workload families --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports nlgeo from ./src. Each
workload runs in its own worker process (worker.py) with BLAS/OpenMP pinned
to one thread. This process makes the seeded inputs, times a fresh-interpreter
``import nlgeo`` (setup_s), computes the independent references with scipy
(outside every timed region), checks the worker's outputs against them, and
prints one line per metric, then the result as one JSON object on the last
line. With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics. Work files go to .bench_out/.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# before numpy and scipy are imported, here and in every child process
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# import times scatter by about 20 % from one probe to the next
SETUP_RUNS = 15
# the whole run must end within 180 s
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: Path, env: dict, deadline: float) -> float:
    """Median nominal seconds of ``import nlgeo`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], cwd=root, env=env, capture_output=True,
            text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"import nlgeo failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[0]))
    return statistics.median(times)


def run_worker(root: Path, env: dict, inputs: Path, work: Path, seconds: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs), "--work", str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the {RUN_DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads((work / "results.json").read_text())


def latency_stats(spec: dict, passes: list) -> tuple[float, float]:
    """Geometric means over operation classes of each class's p50 and p90 (ms).

    An operation's latency is its median over the passes. Within a class
    (one distance kind, or one CLI command) latencies are comparable; taking
    each class's percentile first keeps the mix of fast and slow classes from
    deciding which class a pooled median falls in. A class of one operation
    (a CLI command) has p50 = p90 = that command's median time.
    """
    by_cls = {}
    for op, ms in zip(spec["ops"], np.median([[rec["ms"] for rec in p["ops"]] for p in passes], axis=0)):
        by_cls.setdefault(op["cls"], []).append(ms)
    p50 = [float(np.percentile(v, 50)) for v in by_cls.values()]
    p90 = [float(np.percentile(v, 90)) for v in by_cls.values()]
    return float(np.exp(np.mean(np.log(p50)))), float(np.exp(np.mean(np.log(p90))))


def pass_seconds(passes: list) -> float:
    """One pass's time, op by op: each operation's median over the passes, summed.

    A slow burst of the host then costs only the operations it hit, not the
    whole pass it fell in.
    """
    return float(np.median([[rec["ms"] for rec in p["ops"]] for p in passes], axis=0).sum()) / 1e3


def end_to_end(spec: dict, results: dict, setup_s: float) -> dict:
    passes = [p for p in results["passes"] if not p["traced"]]
    p50, p90 = latency_stats(spec, passes)
    return {
        "pass_s": pass_seconds(passes),
        "solve_ms_p50": p50,
        "solve_ms_p90": p90,
        "peak_rss_mb": results["peak_rss_mb"],
        "setup_s": setup_s,
    }


def validation_seconds(results: dict, work: Path) -> dict:
    """validation.<check>.s: each check's reported seconds, in nominal time.

    Taken from the untraced passes of the run (median), where no tracing
    overhead is in them; 0 on the workloads that do not run validate.
    """
    per_check = {name: [] for name in workloads.VALIDATION_CHECKS}
    for p in results["passes"]:
        path = work / p["dir"] / "validate.csv"
        if p["traced"] or not path.is_file():
            continue
        rec = p["ops"][0]
        header, rows = checks.read_csv(path)
        for row in rows:
            if row[0] in per_check:
                per_check[row[0]].append(float(row[header.index("seconds")]) * rec["ms"] / rec["raw_ms"])
    return {f"validation.{name}.s": float(statistics.median(v)) if v else 0.0 for name, v in per_check.items()}


def per_layer(results: dict, verdict: checks.Verdict, work: Path) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes, and any counter that varied."""
    traced = [p for p in results["passes"] if p["traced"]]
    untraced = [p for p in results["passes"] if not p["traced"]]
    layers = [p["layers"] for p in traced]
    out, varied = {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if tracing.is_time(name):
            out[name] = float(statistics.median(values))
        else:
            out[name] = values[0]
            if any(x != values[0] for x in values):
                varied.append(name)
    out["err_max"] = verdict.err_max
    out["wrong_frac"] = verdict.wrong_frac
    out["fail_frac"] = verdict.failed / verdict.attempted
    out["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
    out.update(validation_seconds(results, work))
    return out, varied


def metadata(root: Path) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = worker_env(root)
    setup_s = measure_setup(root, env, deadline) if not trace else None
    inputs = workloads.make_inputs(workload, seed)
    work = root / ".bench_out" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    results = run_worker(root, env, inputs_path, work, seconds, trace, deadline)
    verdict = checks.verify(inputs, results, work, root / ".bench_out" / "refcache")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        values, varied = per_layer(results, verdict, work)
        for name in varied:
            # validate's seconds column changes the report's length between passes
            if name == "cli.write_table.bytes" and any("volatile" in op for op in inputs["ops"]):
                continue
            verdict.fail(f"counter {name} differs between traced passes")
    else:
        values = end_to_end(inputs, results, setup_s)
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")

    print(f"# workload: {workload}  seed: {seed}  trace: {trace}  passes: "
          + ", ".join(f"{p['seconds']:.3f}s{'*' if p['traced'] else ''} (wall {p['raw_seconds']:.3f}s)"
                      for p in results["passes"]))
    print(f"# meta: {json.dumps(metadata(root))}")
    print(f"# accuracy: checked={verdict.checked} wrong={verdict.wrong} err_max={verdict.err_max:.3g} "
          f"failed={verdict.failed}/{verdict.attempted}")
    untraced_names = {n for p in results["passes"] for n in p.get("untraced_names", [])}
    if untraced_names:
        print(f"# not traced (absent in this nlgeo): {', '.join(sorted(untraced_names))}")
    for line in verdict.excesses:
        print(f"# above reference: {line}")
    for line in verdict.failures:
        print(f"# FAIL: {line}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<36} {value:>16.6g} {m['unit']}")
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nlgeo benchmark")
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        spec = load_spec(root)
        if not (root / "src" / "nlgeo" / "__init__.py").is_file():
            raise BenchError(f"no nlgeo sources under {root / 'src'}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(root, spec, w, args.seed, seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    # an incorrect run still exits 0: the verdict is in the printed result
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
