import numpy as np
import pytest

from conftest import random_nonlocal_corr, random_tetra_corr
from nlgeo.locality import project_local
from nlgeo import solver
from nlgeo.solver import GAP, minimize_over_local_set, pair_violations, probs


def test_probs_corr_match_qstate_maps(rng):
    from nlgeo.qstate import bd_corr_to_probs, bd_probs_to_corr

    for _ in range(200):
        a = tuple(random_tetra_corr(rng))
        assert np.max(np.abs(np.array(probs(a)) - bd_corr_to_probs(np.array(a)))) <= 1e-15
        e = rng.dirichlet(np.ones(4))
        assert np.max(np.abs(np.array(probs(tuple(bd_probs_to_corr(e)))) - e)) <= 1e-15


def test_pair_violations():
    a = (0.8, 0.6, 0.1)
    v = pair_violations(a)
    assert v[0] == pytest.approx(0.0, abs=1e-15)  # 0.64 + 0.36 - 1
    assert v[1] == pytest.approx(-0.35, abs=1e-15)
    assert v[2] == pytest.approx(-0.63, abs=1e-15)
    assert pair_violations((1.0, 1.0, 0.0)) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def _euclidean(target):
    """A quarter of the squared distance to target, with its derivatives."""
    tx = tuple(float(v) for v in target)

    def fun(x, eps):
        return 0.25 * sum((xi - ti) ** 2 for xi, ti in zip(x, tx))

    def grad(x, eps):
        return tuple(0.5 * (xi - ti) for xi, ti in zip(x, tx))

    def hess(x, eps):
        return ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5))

    return fun, grad, hess


def test_minimize_over_local_set_projects_euclidean(rng):
    # minimizing a quarter of the squared distance from an exterior point
    # recovers the metric projection onto the local set, here on a known disk arc
    target = np.array([0.84, 0.63, -0.5])
    report = minimize_over_local_set(*_euclidean(target))
    assert report.converged
    assert np.max(np.abs(np.array(report.x) - project_local(target).point)) <= 1e-9
    assert report.x == pytest.approx([0.8, 0.6, -0.5], abs=1e-9)
    # on random targets, whatever boundary piece is active, the value is
    # within the solver's gap; for x in L, |x-t|^2 >= |p-t|^2 + |x-p|^2 at
    # the projection p, so the point is within sqrt(4 GAP) of it
    for _ in range(30):
        target = random_nonlocal_corr(rng)
        fun, grad, hess = _euclidean(target)
        report = minimize_over_local_set(fun, grad, hess)
        assert report.converged
        assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0
        p = project_local(target).point
        assert fun(report.x, 0.0) <= fun(tuple(p), 0.0) + GAP, target
        assert np.linalg.norm(np.array(report.x) - p) <= (4.0 * GAP) ** 0.5, target


def test_starved_solve_reports_unconverged(monkeypatch):
    # the budget is read at call time; one step per stage cannot finish a stage
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    report = minimize_over_local_set(*_euclidean((0.84, 0.63, -0.5)))
    assert not report.converged
    assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0


def test_indefinite_hessian_reports_unconverged():
    # a Newton system that is not positive definite has a non-positive
    # Cholesky pivot; it ends the stage unconverged instead of raising
    fun, grad, _ = _euclidean((0.84, 0.63, -0.5))

    def hess(x, eps):
        return ((-1e6, 0.0, 0.0), (0.0, -1e6, 0.0), (0.0, 0.0, -1e6))

    report = minimize_over_local_set(fun, grad, hess)
    assert not report.converged
    assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0
