"""Self-check suite: measures against the Werner closed forms, grid
stability, and independence of the minimizer from the random-start seed."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .measures import (
    OBJECTIVE_KINDS,
    OptimizerConfig,
    bd_grid,
    bd_measure,
    bd_measure_numeric,
    werner_measure,
    WERNER_THRESHOLD,
)
from .metrics import DistanceKind
from .qstate import BELL_CORNERS

ORACLE_TOL = 1e-6
GRID_TOL = 1e-6
# seed-to-seed scatter on tetrahedron-boundary inputs reaches ~2e-6 for the
# sqrt-singular objectives; 1e-5 still catches real instability
MULTISEED_TOL = 1e-5

MULTISEED_POINTS = (
    (0.84, 0.63, -0.5),
    (0.85, 0.85, -0.85),
    (0.3, -0.3, 1.0),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    seconds: float
    detail: str = ""


def _oracle_werner(kind: DistanceKind, cfg: OptimizerConfig, seed: int, n: int = 20) -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    unconverged = 0
    # HS has no numeric objective, so it is checked on bd_measure, the exact
    # projection users get. bd_measure sends the other kinds to
    # bd_measure_numeric, called here by the name that perfbench/worker.py
    # hooks to time validate in segments.
    solve = bd_measure if kind is DistanceKind.HS else bd_measure_numeric
    for i in range(1, n + 1):
        w = WERNER_THRESHOLD + (1.0 - WERNER_THRESHOLD) * i / n
        closed = werner_measure(kind, w).value
        res = solve(kind, w * BELL_CORNERS[3], cfg, seed=seed)
        worst = max(worst, abs(res.value - closed))
        if not res.converged:
            unconverged += 1
    detail = f"NotConverged x{unconverged}" if unconverged else ""
    passed = worst <= ORACLE_TOL and unconverged == 0
    return CheckResult(
        name=f"oracle_werner_{kind.value}",
        passed=passed,
        max_error=worst,
        tolerance=ORACLE_TOL,
        seconds=time.perf_counter() - t0,
        detail=detail,
    )


def _grid_convergence(cfg: OptimizerConfig, seed: int) -> CheckResult:
    t0 = time.perf_counter()
    tables = {}
    for n in (10, 20, 50):
        tables[n] = {
            (round(e1 * n), round(e2 * n), n): v
            for e1, e2, v in bd_grid(DistanceKind.HS, n, cfg, seed=seed)
        }
    worst = 0.0
    for coarse, fine in ((10, 20), (10, 50), (20, 50)):
        ratio = fine // coarse if fine % coarse == 0 else None
        for (i, j, _), v in tables[coarse].items():
            if ratio is None:
                # nodes coincide when both coordinates land on the finer grid
                if (i * fine) % coarse or (j * fine) % coarse:
                    continue
                key = (i * fine // coarse, j * fine // coarse, fine)
            else:
                key = (i * ratio, j * ratio, fine)
            if key in tables[fine]:
                worst = max(worst, abs(v - tables[fine][key]))
    return CheckResult(
        name="grid_convergence_hs",
        passed=worst <= GRID_TOL,
        max_error=worst,
        tolerance=GRID_TOL,
        seconds=time.perf_counter() - t0,
    )


def _multiseed(cfg: OptimizerConfig, seed: int) -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    unconverged = 0
    # only the numeric objectives depend on the seed: HS is the exact
    # projection, and a Bures solve is the Hellinger one
    for point in MULTISEED_POINTS:
        for kind in OBJECTIVE_KINDS:
            values = []
            for offset in range(3):
                res = bd_measure_numeric(kind, np.array(point), cfg, seed=seed + offset)
                values.append(res.value)
                if not res.converged:
                    unconverged += 1
            worst = max(worst, max(values) - min(values))
    detail = f"NotConverged x{unconverged}" if unconverged else ""
    return CheckResult(
        name="multiseed_consistency",
        passed=worst <= MULTISEED_TOL and unconverged == 0,
        max_error=worst,
        tolerance=MULTISEED_TOL,
        seconds=time.perf_counter() - t0,
        detail=detail,
    )


def run_validation(cfg: OptimizerConfig | None = None, seed: int = 0) -> list[CheckResult]:
    """All validation checks, in a fixed order."""
    cfg = cfg or OptimizerConfig()
    checks = [_oracle_werner(kind, cfg, seed) for kind in DistanceKind]
    checks.append(_grid_convergence(cfg, seed))
    checks.append(_multiseed(cfg, seed))
    return checks
