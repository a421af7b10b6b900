import math

import numpy as np
import pytest

from conftest import random_nonlocal_corr, random_tetra_corr
from nlgeo.locality import project_local
from nlgeo.measures import OBJECTIVE_KINDS, BdObjective
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
    """sum_k (w_k - e_k)^2 to the weights e of the correlators target, with its
    per-weight derivatives; the weights sum to 1, so this is a quarter of the
    squared distance in correlators."""
    e = probs(tuple(float(v) for v in target))

    def value(w):
        return sum((wk - ek) ** 2 for wk, ek in zip(w, e))

    def derivatives(w):
        return [2.0 * (wk - ek) for wk, ek in zip(w, e)], [2.0] * 4

    return value, derivatives


def test_minimize_over_local_set_projects_euclidean(rng):
    # minimizing a quarter of the squared distance from an exterior point
    # recovers the metric projection onto the local set, here on a known disk arc
    target = np.array([0.84, 0.63, -0.5])
    value, _ = _euclidean(target)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 3)
        assert value(probs(tuple(x))) == pytest.approx(0.25 * np.sum((x - target) ** 2), abs=1e-15)
    report = minimize_over_local_set(*_euclidean(target))
    assert report.converged
    assert np.max(np.abs(np.array(report.x) - project_local(target).point)) <= 1e-9
    assert report.x == pytest.approx([0.8, 0.6, -0.5], abs=1e-9)
    # on random targets, whatever boundary piece is active, the value is
    # within the solver's gap; for x in L, |x-t|^2 >= |p-t|^2 + |x-p|^2 at
    # the projection p, so the point is within sqrt(4 GAP) of it
    for _ in range(30):
        target = random_nonlocal_corr(rng)
        value, derivatives = _euclidean(target)
        report = minimize_over_local_set(value, derivatives)
        assert report.converged
        assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0
        p = project_local(target).point
        assert value(probs(report.x)) <= value(probs(tuple(p))) + GAP, target
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
    value, derivatives = _euclidean((0.84, 0.63, -0.5))

    def indefinite(w):
        return derivatives(w)[0], [-1e6] * 4

    report = minimize_over_local_set(value, indefinite)
    assert not report.converged
    assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_newton_system_matches_finite_differences_of_the_barrier(rng, kind):
    # the Newton system folds the barrier's log terms into the objective's
    # per-weight derivatives and adds the cylinders in x; check it against
    # central differences of f - t * sum(log slacks) itself, near a cylinder,
    # where the cylinder terms dominate
    t = 1e-2

    def barrier(obj, x):
        slacks = probs(x) + tuple(-v for v in pair_violations(x))
        return obj.value_at(x) - t * sum(math.log(s) for s in slacks)

    step = 1e-8
    for _ in range(10):
        obj = BdObjective(kind, random_nonlocal_corr(rng))
        # the projection of a nonlocal point lies on a cylinder, strictly
        # inside the tetrahedron; pull it in so that one slack is 1e-4..1e-3
        p = np.array(project_local(random_nonlocal_corr(rng)).point)
        x = tuple(float(v) for v in p * (1.0 - rng.uniform(5e-5, 5e-4)))
        slacks = solver._slacks(x)
        assert min(slacks) > 0.0 and min(slacks[4:]) <= 1e-3
        g, h = (np.array(m) for m in solver._newton_system(obj.derivatives, x, slacks, t))
        fd_g, fd_h = np.empty(3), np.empty((3, 3))
        for i in range(3):
            xp, xm = list(x), list(x)
            xp[i] += step
            xm[i] -= step
            fd_g[i] = (barrier(obj, tuple(xp)) - barrier(obj, tuple(xm))) / (2.0 * step)
            gp = solver._newton_system(obj.derivatives, tuple(xp), solver._slacks(tuple(xp)), t)[0]
            gm = solver._newton_system(obj.derivatives, tuple(xm), solver._slacks(tuple(xm)), t)[0]
            fd_h[:, i] = (np.array(gp) - np.array(gm)) / (2.0 * step)
        assert np.linalg.norm(fd_g - g) <= 1e-6 * np.linalg.norm(g), (kind, x)
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(fd_h - h) <= 1e-6 * np.linalg.norm(h), (kind, x)
