from nlgeo import solver, validation
from nlgeo.measures import bd_measure_numeric
from nlgeo.metrics import DistanceKind
from nlgeo.validation import MULTISEED_POINTS, ORACLE_POINTS, run_validation
from nlgeo.qstate import BellDiagonal


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
    # symmetric images of each multiseed point for those two objectives
    calls = []

    def counting(kind, a):
        calls.append(kind)
        return bd_measure_numeric(kind, a)

    monkeypatch.setattr(validation, "bd_measure_numeric", counting)
    assert all(c.passed for c in run_validation())
    assert len(calls) == 2 * ORACLE_POINTS + 2 * 3 * len(MULTISEED_POINTS)
    assert set(calls) == {DistanceKind.HELLINGER, DistanceKind.RELATIVE_ENTROPY}
