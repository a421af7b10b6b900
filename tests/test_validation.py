import math
from collections import Counter

import numpy as np

from conftest import count_calls
from nlgeo import locality, measures, qstate, solver, validation
from nlgeo.cli import main
from nlgeo.errors import NotConverged
from nlgeo.measures import bd_measure_numeric
from nlgeo.kinds import DistanceKind
from nlgeo.validation import GRID_TOL, MULTISEED_POINTS, ORACLE_POINTS, run_validation
from nlgeo.qstate import BellDiagonal, bd_probs_to_corr


def test_multiseed_points_are_physical_and_nonlocal():
    from nlgeo.locality import max_pair_sum

    for pt in MULTISEED_POINTS:
        bd = BellDiagonal.from_corr(list(pt))
        assert max_pair_sum(bd.a) > 1.0


def test_run_validation_reports_structure_and_failure_path(monkeypatch):
    # a starved optimizer must be reported, not hidden
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    checks = run_validation()
    names = [c.name for c in checks]
    assert "oracle_werner_hs" in names
    assert "grid_convergence_hs" in names
    assert "multiseed_consistency" in names
    assert not all(c.passed for c in checks)
    assert any("NotConverged" in c.detail for c in checks)
    for c in checks:
        assert c.seconds >= 0.0
        assert c.tolerance > 0.0
        assert c.max_error >= 0.0


def test_validation_solves_each_numeric_input_once(monkeypatch):
    # the Bures check scores the Hellinger solves, and HS and trace are exact,
    # so the numeric solves are the Werner line for he and re and the
    # symmetric images of each multiseed point for those two objectives. The
    # oracle reaches them through bd_measure, the multiseed check by the
    # validation module's own name
    calls = []

    def counting(kind, a):
        calls.append(kind)
        return bd_measure_numeric(kind, a)

    monkeypatch.setattr(measures, "bd_measure_numeric", counting)
    monkeypatch.setattr(validation, "bd_measure_numeric", counting)
    assert all(c.passed for c in run_validation())
    assert len(calls) == 2 * ORACLE_POINTS + 2 * 3 * len(MULTISEED_POINTS)
    assert set(calls) == {DistanceKind.HELLINGER, DistanceKind.RELATIVE_ENTROPY}


def test_validation_kernel_calls_and_angle_steps(monkeypatch):
    # deterministic counts over one pass: every chamber solve's kernel calls
    # and angle steps. Started at each input's own angle, the 185 solves
    # make 543 kernel calls over 362 steps (1,046 over 530 from pi/4)
    counts = {"solves": 0, "calls": 0, "steps": 0}
    minimize = solver.minimize_over_local_set

    def counting(terms, facet, t):
        def counted(*w):
            counts["calls"] += 1
            return terms(*w)

        report = minimize(counted, facet, t)
        counts["solves"] += 1
        counts["steps"] += report.iterations
        return report

    monkeypatch.setattr(solver, "minimize_over_local_set", counting)
    assert all(c.passed for c in run_validation())
    assert counts == {"solves": 185, "calls": 543, "steps": 362}, counts


def test_validation_converts_once_per_measure(monkeypatch):
    # deterministic counts over one pass: float_vector converts each public
    # measure's input once, 98 times, and _in_chamber measures each of them.
    # The HS grids' 292 classes are floats bd_grid made, converted by none
    # and measured by none: only their 107 nonlocal ones reach the chamber
    # solve, which values 98 + 107 = 205 states. Each public measure tests
    # its input for locality once, and each grid row of classes stops at
    # its first local class: 98 + 10 + 24 + 101 = 233 tests
    conversions, _ = count_calls(monkeypatch, qstate, "float_vector")
    measured, _ = count_calls(monkeypatch, measures, "_in_chamber")
    solved, _ = count_calls(monkeypatch, measures, "_solve")
    tested, _ = count_calls(monkeypatch, locality, "_chsh_local")
    assert all(c.passed for c in run_validation())
    assert (len(conversions), len(measured), len(solved), len(tested)) == (98, 98, 205, 233)


def test_every_chamber_solve_runs_inside_measures_solve(monkeypatch):
    # one code path for the chamber value: the solve and the trace closed
    # form are reached only through measures._solve, from validate's
    # public measures, a grid and a sweep alike
    depth = [0]
    calls = {"minimize": [], "trace": []}
    solve = measures._solve

    def entered(kind, e):
        depth[0] += 1
        try:
            return solve(kind, e)
        finally:
            depth[0] -= 1

    def watched(name, original):
        def call(*args):
            calls[name].append(depth[0])
            return original(*args)

        return call

    monkeypatch.setattr(measures, "_solve", entered)
    monkeypatch.setattr(solver, "minimize_over_local_set", watched("minimize", solver.minimize_over_local_set))
    monkeypatch.setattr(measures, "_trace_in_chamber", watched("trace", measures._trace_in_chamber))
    assert all(c.passed for c in run_validation())
    for kind in DistanceKind:
        measures.bd_grid(kind, 11)
        measures.bd_sweep(kind, "werner_line", 11)
    assert calls["minimize"] and calls["trace"]
    assert all(d == 1 for d in calls["minimize"] + calls["trace"]), calls


def test_kernel_calls_and_angle_steps_off_the_werner_line(monkeypatch):
    # the same counts, per kind, on seeded Dirichlet(0.3) nonlocal states near
    # the Bell corners, as random_bd draws them; trace is a closed form and
    # makes no solve. Every solve converges, and the 240 solves make 1,978
    # kernel calls over 858 steps
    rng = np.random.default_rng(11)
    inputs = []
    while len(inputs) < 60:
        a = bd_probs_to_corr(rng.dirichlet([0.3] * 4))
        if not locality.bd_is_chsh_local(a):
            inputs.append(a)
    minimize = solver.minimize_over_local_set
    counts = {}

    def counting(terms, facet, t):
        def counted(*w):
            tally[1] += 1
            return terms(*w)

        report = minimize(counted, facet, t)
        assert report.converged
        tally[0] += 1
        tally[2] += report.iterations
        return report

    monkeypatch.setattr(solver, "minimize_over_local_set", counting)
    for kind in DistanceKind:
        tally = counts[kind.value] = [0, 0, 0]
        for a in inputs:
            assert measures.bd_measure(kind, a).converged, (kind, a)
    assert counts == {
        "hs": [60, 198, 152], "he": [60, 633, 238], "bu": [60, 633, 238], "re": [60, 514, 230], "tr": [0, 0, 0],
    }, counts


def test_multiseed_fails_on_a_wrong_axis_map(monkeypatch):
    # a map back that puts the chamber's weights back in the wrong order
    # leaves every value as it is, since the values are found in the chamber;
    # the row must still fail, on the closest correlators of the images
    def wrong(order, w, pairs):
        return locality.from_chamber(tuple(sorted(order)), w, pairs)

    assert validation._multiseed().passed
    monkeypatch.setattr(measures, "from_chamber", wrong)
    check = validation._multiseed()
    assert not check.passed and check.max_error > 0.1
    assert check.name == "multiseed_consistency" and check.detail == ""


def test_an_unconverged_grid_is_recorded_by_the_one_builder(monkeypatch, tmp_path):
    # bd_grid raises at its first unconverged solve; the row still goes
    # through _check, so it reads like every other failed row, and
    # validate exits 5 on its detail
    def unconverged(kind, n):
        raise NotConverged("bd_grid stopped")

    monkeypatch.setattr(validation, "bd_grid", unconverged)
    (grid,) = [c for c in run_validation() if c.name == "grid_convergence_hs"]
    assert grid.passed is False
    assert grid.max_error == math.inf
    assert grid.tolerance == GRID_TOL
    assert grid.seconds >= 0.0
    assert "NotConverged" in grid.detail
    assert main(["validate", "--out", str(tmp_path / "v.csv")]) == 5


def _grid_with(change):
    """validation's bd_grid, with change(n, rows) applied to each grid's rows."""
    def grid(kind, n):
        rows = measures.bd_grid(kind, n)
        change(n, rows)
        return rows

    return grid


def _shared_index(n, e1, e2):
    (index,) = [k for k, (f1, f2, _) in enumerate(measures.bd_grid(DistanceKind.HS, n)) if (f1, f2) == (e1, e2)]
    return index


def test_the_grid_row_fails_on_a_moved_shared_value(monkeypatch):
    # (0.8, 0.1) is a node of the grids 10, 20 and 50; its 50-grid value,
    # moved by 1e-12, is compared with both coarser grids
    index = _shared_index(50, 0.8, 0.1)
    moved = {}

    def move(n, rows):
        if n == 50:
            e1, e2, v = rows[index]
            rows[index] = (e1, e2, v + 1e-12)
            moved["error"] = abs((v + 1e-12) - v)

    monkeypatch.setattr(validation, "bd_grid", _grid_with(move))
    check = validation._grid_convergence()
    assert not check.passed
    assert check.max_error == moved["error"] > GRID_TOL
    assert (check.name, check.tolerance, check.detail) == ("grid_convergence_hs", GRID_TOL, "")


def test_the_grid_row_fails_on_a_shared_node_one_ulp_off(monkeypatch):
    # a node whose e1 differs by one ulp in the 20-grid is not the coarse
    # node: it fails the row, where a comparison keyed by (e1, e2) would
    # drop it and pass
    index = _shared_index(20, 0.8, 0.1)

    def shift(n, rows):
        if n == 20:
            e1, e2, v = rows[index]
            rows[index] = (math.nextafter(e1, 1.0), e2, v)

    monkeypatch.setattr(validation, "bd_grid", _grid_with(shift))
    check = validation._grid_convergence()
    assert not check.passed and check.max_error == math.inf and check.detail == ""


def test_each_pair_of_grids_compares_the_66_coarse_nodes(monkeypatch):
    # every value carries its grid size, and each difference taken between
    # two grids' values is recorded: 66 per pair of grids, 198 in all
    compared = []

    class Tagged(float):
        def __sub__(self, other):
            compared.append((self.n, other.n))
            return float(self) - float(other)

    def tag(n, rows):
        for k, (e1, e2, v) in enumerate(rows):
            rows[k] = (e1, e2, Tagged(v))
            rows[k][2].n = n

    monkeypatch.setattr(validation, "bd_grid", _grid_with(tag))
    assert validation._grid_convergence().passed
    assert Counter(compared) == {(10, 20): 66, (10, 50): 66, (20, 50): 66}
    coarse = [(i / 10, j / 10) for i in range(11) for j in range(11 - i)]
    for n in validation.GRID_SIZES:
        nodes = validation._coarse_nodes(measures.bd_grid(DistanceKind.HS, n), n)
        assert [(e1, e2) for e1, e2, _ in nodes] == coarse, n
