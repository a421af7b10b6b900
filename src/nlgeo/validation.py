"""Self-check suite: measures against the Werner closed forms, grid
stability, and covariance of the numeric measures and their closest states
under symmetries of the local set. The Bures check reuses the Hellinger
solves (measures.per_kind); each check's seconds cover only its own solves."""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple

from .errors import NotConverged
from .kinds import DistanceKind
from .measures import (
    OBJECTIVE_KINDS,
    bd_grid,
    bd_measure,
    bd_measure_numeric,
    per_kind,
    werner_measure,
    WERNER_THRESHOLD,
)
from .qstate import BELL_CORNERS

ORACLE_POINTS = 20
# the Werner rows read at most 4.4e-16 and the grid row exactly 0: these
# leave a margin of over 200 times the worst rounding measured
ORACLE_TOL = 1e-13
GRID_TOL = 1e-13
# the HS grid sizes: each is a multiple of the first, so every node of the
# first grid is a node of each
GRID_SIZES = (10, 20, 50)
# a symmetry of the tetrahedron and the cylinders maps the optimum onto the
# optimum, so symmetric inputs differ only by rounding. The images of the
# points below sort to the same weights bit for bit; on 4,000 seeded he/re
# solves with weights 0 or >= 1e-6, images' closest correlators differed by
# at most 8.7e-14, and he values by up to 2.9e-9 where a weight of 0 rounds
# differently in each image
MULTISEED_TOL = 1e-9

MULTISEED_POINTS = (
    (0.84, 0.63, -0.5),
    (0.85, 0.85, -0.85),
    (0.3, -0.3, 1.0),
)


class CheckResult(namedtuple("CheckResult", "name passed max_error tolerance seconds detail", defaults=("",))):
    """One check: its name, verdict, worst error, tolerance, wall seconds and a note."""

    __slots__ = ()


def _check(name: str, tolerance: float, start: float, worst: float, results=(), unconverged=0) -> CheckResult:
    """The record of a check begun at perf_counter() start: it fails on an
    error above tolerance or on an unconverged solve, one per result not
    converged plus the count of those that raised NotConverged."""
    unconverged += sum(not res.converged for res in results)
    detail = f"NotConverged x{unconverged}" if unconverged else ""
    seconds = time.perf_counter() - start
    return CheckResult(name, worst <= tolerance and not unconverged, worst, tolerance, seconds, detail)


def _oracle_werner() -> list[CheckResult]:
    step = 1.0 - WERNER_THRESHOLD
    ws = [WERNER_THRESHOLD + step * i / ORACLE_POINTS for i in range(1, ORACLE_POINTS + 1)]

    def solve(kind):
        return [bd_measure(kind, [w * c for c in BELL_CORNERS[3]]) for w in ws]

    solved = per_kind(DistanceKind, solve)
    checks = []
    for kind in DistanceKind:
        start = time.perf_counter()
        results = next(solved)
        worst = max(abs(res.value - werner_measure(kind, w).value) for res, w in zip(results, ws))
        checks.append(_check(f"oracle_werner_{kind.value}", ORACLE_TOL, start, worst, results))
    return checks


def _coarse_nodes(rows, n: int) -> list:
    """bd_grid's rows at size n read at the nodes of the GRID_SIZES[0] grid, by
    position: rows r and columns c that are multiples of s = n / GRID_SIZES[0],
    row r starting at index r (n + 1) - r (r - 1)/2 (row r' holds n + 1 - r' nodes)."""
    s = n // GRID_SIZES[0]
    return [rows[r * (n + 1) - r * (r - 1) // 2 + c] for r in range(0, n + 1, s) for c in range(0, n + 1 - r, s)]


def _grid_convergence() -> CheckResult:
    start = time.perf_counter()
    try:
        grids = [_coarse_nodes(bd_grid(DistanceKind.HS, n), n) for n in GRID_SIZES]
    except NotConverged:
        # bd_grid stops at the first solve that did not converge
        return _check("grid_convergence_hs", GRID_TOL, start, math.inf, unconverged=1)
    # every pair of grids compares the coarse grid's 66 nodes. i/n is
    # correctly rounded, so a node has the same (e1, e2) floats in every
    # grid; nodes whose floats differ are not one node, and fail the row
    worst = max(
        abs(v - w) if (e1, e2) == (f1, f2) else math.inf
        for coarse, fine in itertools.combinations(grids, 2)
        for (e1, e2, v), (f1, f2, w) in zip(coarse, fine)
    )
    return _check("grid_convergence_hs", GRID_TOL, start, worst)


def _symmetric_images(a) -> list:
    """a, its cycle (a2, a3, a1) and its flip (-a1, -a2, a3): each map permutes
    the Bell corners and the three cylinders, so it preserves the local set."""
    a1, a2, a3 = a
    return [(a1, a2, a3), (a2, a3, a1), (-a1, -a2, a3)]


def _multiseed() -> CheckResult:
    start = time.perf_counter()
    worst = 0.0
    results = []
    # the numeric objectives (a Bures solve is the Hellinger one): the values
    # come from the chamber, so only the closest correlators, which must be
    # the images of the input's, see the map back. bd_measure_numeric is
    # called by this module's name, which perfbench/worker.py hooks to time
    # validate in segments
    for point in MULTISEED_POINTS:
        for kind in OBJECTIVE_KINDS:
            images = [bd_measure_numeric(kind, image) for image in _symmetric_images(point)]
            values = [res.value for res in images]
            mapped = _symmetric_images(images[0].closest_local.a)
            moved = max(abs(p - q) for res, x in zip(images, mapped) for p, q in zip(res.closest_local.a, x))
            worst = max(worst, max(values) - min(values), moved)
            results += images
    return _check("multiseed_consistency", MULTISEED_TOL, start, worst, results)


def run_validation() -> list[CheckResult]:
    """All validation checks, in a fixed order."""
    return _oracle_werner() + [_grid_convergence(), _multiseed()]
