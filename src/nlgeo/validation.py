"""Self-check suite: measures against the Werner closed forms, grid
stability, and invariance of the numeric measures under symmetries of the
local set."""

from __future__ import annotations

import itertools
import time
from collections import namedtuple

from .kinds import DistanceKind
from .measures import (
    OBJECTIVE_KINDS,
    bd_grid,
    bd_measure,
    bd_measure_numeric,
    werner_measure,
    WERNER_THRESHOLD,
)
from .qstate import BELL_CORNERS

ORACLE_POINTS = 20
ORACLE_TOL = 1e-6
GRID_TOL = 1e-6
# a symmetry of the tetrahedron and the cylinders maps the optimum onto the
# optimum, so symmetric inputs differ only by the solver's own error, which
# its gap keeps near 1e-11
MULTISEED_TOL = 1e-9

MULTISEED_POINTS = (
    (0.84, 0.63, -0.5),
    (0.85, 0.85, -0.85),
    (0.3, -0.3, 1.0),
)


class CheckResult(namedtuple("CheckResult", "name passed max_error tolerance seconds detail", defaults=("",))):
    """One check: its name, verdict, worst error, tolerance, wall seconds and a note."""

    __slots__ = ()


def _oracle_werner(kind: DistanceKind, solved: dict) -> CheckResult:
    t0 = time.perf_counter()
    # HS and trace have no numeric objective, so they are checked on
    # bd_measure, the exact measures users get. bd_measure sends the other
    # kinds to bd_measure_numeric, called here by the name that
    # perfbench/worker.py hooks to time validate in segments. A Bures solve is
    # the Hellinger one, so their checks share the solves kept in solved.
    solve = bd_measure if kind in (DistanceKind.HS, DistanceKind.TRACE) else bd_measure_numeric
    shared = DistanceKind.HELLINGER if kind is DistanceKind.BURES else kind
    step = 1.0 - WERNER_THRESHOLD
    ws = [WERNER_THRESHOLD + step * i / ORACLE_POINTS for i in range(1, ORACLE_POINTS + 1)]
    if shared not in solved:
        solved[shared] = [solve(kind, [w * c for c in BELL_CORNERS[3]]) for w in ws]
    results = solved[shared]
    worst = max(abs(res.value - werner_measure(kind, w).value) for res, w in zip(results, ws))
    unconverged = sum(not res.converged for res in results)
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


def _grid_convergence() -> CheckResult:
    t0 = time.perf_counter()
    # i/n is correctly rounded, so a node shared by two grids has the same
    # (e1, e2) floats in both
    tables = [{(e1, e2): v for e1, e2, v in bd_grid(DistanceKind.HS, n)} for n in (10, 20, 50)]
    worst = 0.0
    for coarse, fine in itertools.combinations(tables, 2):
        for node in coarse.keys() & fine.keys():
            worst = max(worst, abs(coarse[node] - fine[node]))
    return CheckResult(
        name="grid_convergence_hs",
        passed=worst <= GRID_TOL,
        max_error=worst,
        tolerance=GRID_TOL,
        seconds=time.perf_counter() - t0,
    )


def _symmetric_images(a) -> list:
    """a, its cycle (a2, a3, a1) and its flip (-a1, -a2, a3): each map permutes
    the Bell corners and the three cylinders, so it preserves the local set."""
    a1, a2, a3 = a
    return [(a1, a2, a3), (a2, a3, a1), (-a1, -a2, a3)]


def _multiseed() -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    unconverged = 0
    # only the numeric objectives are checked: HS and trace are exact, and a
    # Bures solve is the Hellinger one
    for point in MULTISEED_POINTS:
        for kind in OBJECTIVE_KINDS:
            values = []
            for image in _symmetric_images(point):
                res = bd_measure_numeric(kind, image)
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


def run_validation() -> list[CheckResult]:
    """All validation checks, in a fixed order."""
    solved = {}
    checks = [_oracle_werner(kind, solved) for kind in DistanceKind]
    checks.append(_grid_convergence())
    checks.append(_multiseed())
    return checks
