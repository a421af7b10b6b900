import math
import operator

import numpy as np
import pytest

from conftest import random_nonlocal_corr, random_tetra_corr
from nlgeo.kinds import DistanceKind
from nlgeo.locality import project_local
from nlgeo.measures import OBJECTIVE_KINDS, BdObjective
from nlgeo.qstate import bd_corr_to_probs, bd_probs_to_corr
from nlgeo import solver
from nlgeo.solver import GAP, SolveReport, minimize_over_local_set, pair_violations, probs

# The solver as it was before its Newton stage became one loop on floats,
# written with one function per step, and the per-kind objective formulas it
# took. It is the reference that minimize_over_local_set must reproduce bit for
# bit. Like the solver, it reads the solver's constants at call time.


def weights_hessian(h) -> tuple[tuple[float, float, float], ...]:
    """Hessian in x of a sum of per-weight terms with second derivatives h.

    Each weight is (1 + s_k . x) / 4 with s_k a sign vector, so the Hessian is
    (1/16) sum_k h_k s_k s_k^T.
    """
    h0, h1, h2, h3 = h
    diag = 0.0625 * (h0 + h1 + h2 + h3)
    h01 = 0.0625 * (h0 - h1 - h2 + h3)
    h02 = 0.0625 * (-h0 + h1 - h2 + h3)
    h12 = 0.0625 * (-h0 - h1 + h2 + h3)
    return ((diag, h01, h02), (h01, diag, h12), (h02, h12, diag))


def _slacks(x) -> tuple[float, ...]:
    """The seven constraint slacks: the Bell weights and 1 - a_i^2 - a_j^2."""
    return probs(x) + tuple(map(operator.neg, pair_violations(x)))


def _barrier_value(value, slacks, t: float) -> float:
    """f - t * (sum of the seven log slacks) at an interior point."""
    return value(slacks[:4]) - t * sum(map(math.log, slacks))


def _newton_system(derivatives, x, slacks, t: float):
    """Gradient and Hessian rows in x of the barrier objective at x with these slacks."""
    w0, w1, w2, w3, c01, c02, c12 = slacks
    d, h = derivatives(slacks[:4])
    # each -t log w_k adds -t / w_k and t / w_k^2 to its weight's derivatives
    g0, g1, g2 = solver.weights_gradient((d[0] - t / w0, d[1] - t / w1, d[2] - t / w2, d[3] - t / w3))
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = weights_hessian(
        (h[0] + t / (w0 * w0), h[1] + t / (w1 * w1), h[2] + t / (w2 * w2), h[3] + t / (w3 * w3))
    )
    x0, x1, x2 = x
    # -t log c for c = 1 - x_i^2 - x_j^2: gradient u x on the pair (i, j), and
    # Hessian q x x^T plus u on the pair's diagonal, u = 2 t / c, q = 4 t / c^2
    u01, u02, u12 = 2.0 * t / c01, 2.0 * t / c02, 2.0 * t / c12
    q01, q02, q12 = 2.0 * u01 / c01, 2.0 * u02 / c02, 2.0 * u12 / c12
    g = (g0 + (u01 + u02) * x0, g1 + (u01 + u12) * x1, g2 + (u02 + u12) * x2)
    h01, h02, h12 = h01 + q01 * x0 * x1, h02 + q02 * x0 * x2, h12 + q12 * x1 * x2
    return g, (
        (h00 + (q01 + q02) * x0 * x0 + u01 + u02, h01, h02),
        (h01, h11 + (q01 + q12) * x1 * x1 + u01 + u12, h12),
        (h02, h12, h22 + (q02 + q12) * x2 * x2 + u02 + u12),
    )


def _newton_step(g, h):
    """Newton step -H^{-1} g by Cholesky, and the squared decrement g^T H^{-1} g.

    None when H is not numerically positive definite: a Cholesky pivot is not
    positive.
    """
    p0 = h[0][0]
    if not p0 > 0.0:
        return None
    l00 = math.sqrt(p0)
    l10 = h[1][0] / l00
    l20 = h[2][0] / l00
    p1 = h[1][1] - l10 * l10
    if not p1 > 0.0:
        return None
    l11 = math.sqrt(p1)
    l21 = (h[2][1] - l20 * l10) / l11
    p2 = h[2][2] - l20 * l20 - l21 * l21
    if not p2 > 0.0:
        return None
    l22 = math.sqrt(p2)
    y0 = -g[0] / l00
    y1 = (-g[1] - l10 * y0) / l11
    y2 = (-g[2] - l20 * y0 - l21 * y1) / l22
    d2 = y2 / l22
    d1 = (y1 - l21 * d2) / l11
    d0 = (y0 - l10 * d1 - l20 * d2) / l00
    return (d0, d1, d2), y0 * y0 + y1 * y1 + y2 * y2


def _newton_stage(value, derivatives, x, t: float):
    """Damped Newton on the barrier objective at t from an interior x;
    returns (x, steps, converged)."""
    slacks = _slacks(x)
    phi = _barrier_value(value, slacks, t)
    for it in range(solver.MAX_ITERS + 1):
        newton = _newton_step(*_newton_system(derivatives, x, slacks, t))
        if newton is None:
            return x, it, False
        step, dec = newton
        if 0.5 * dec <= solver.DECREMENT_TOL:
            return x, it, True
        if it == solver.MAX_ITERS:
            break
        floor = [solver.BOUNDARY_FRACTION * v for v in slacks]
        s = 1.0
        while True:
            xn = (x[0] + s * step[0], x[1] + s * step[1], x[2] + s * step[2])
            if xn == x:
                # the step fell below float resolution without enough decrease
                return x, it, False
            sn = _slacks(xn)
            if all(map(operator.ge, sn, floor)):
                phin = _barrier_value(value, sn, t)
                if phin <= phi - solver.ARMIJO * s * dec:
                    break
            s *= 0.5
        x, slacks, phi = xn, sn, phin
    return x, solver.MAX_ITERS, False


def reference_minimize(value, derivatives) -> SolveReport:
    """minimize_over_local_set on the reference stage: the same stage schedule
    and secant warm start."""
    start = (0.0, 0.0, 0.0)
    prev = None
    t = solver.T_FIRST
    total = 0
    converged = True
    while True:
        x, steps, done = _newton_stage(value, derivatives, start, t)
        total += steps
        converged = converged and done
        if solver.N_CONSTRAINTS * t <= solver.GAP:
            break
        t *= solver.STAGE_REDUCTION
        start = x
        if prev is not None:
            xp = tuple(xk + solver.STAGE_REDUCTION * (xk - pk) for xk, pk in zip(x, prev))
            if min(_slacks(xp)) > 0.0:
                start = xp
        prev = x
    return SolveReport(x=x, iterations=total, converged=converged)


def reference_objective(kind, a):
    """The value and derivatives the reference solver took for BdObjective(kind, a)."""
    e = bd_corr_to_probs(a)
    sqrt_e = tuple(math.sqrt(max(ei, 0.0)) for ei in e)
    if kind is DistanceKind.HELLINGER:

        def value(w):
            s = 0.0
            for si, wk in zip(sqrt_e, w):
                if wk > 0.0:
                    s += si * math.sqrt(wk)
            return max(2.0 - 2.0 * s, 0.0)

        def derivatives(w):
            d, h = [], []
            for si, wk in zip(sqrt_e, w):
                r = si / math.sqrt(wk)
                d.append(-r)
                h.append(0.5 * r / wk)
            return d, h

        return value, derivatives

    def value(w):
        total = 0.0
        for ek, wk in zip(e, w):
            # a weight <= 1e-15 contributes nothing (0 log 0 = 0)
            if ek > 1e-15:
                if wk <= 0.0:
                    return math.inf
                total += ek * math.log2(ek / wk)
        return total

    def derivatives(w):
        d, h = [], []
        for ek, wk in zip(e, w):
            q = ek / (wk * math.log(2.0)) if ek > 1e-15 else 0.0
            d.append(-q)
            h.append(q / wk)
        return d, h

    return value, derivatives


def as_pair(terms):
    """The (value, derivatives) pair of a terms kernel, for the reference solver."""

    def value(w):
        return terms(*w)[0]

    def derivatives(w):
        r = terms(*w)
        return r[1:5], r[5:]

    return value, derivatives


def test_probs_corr_match_qstate_maps(rng):
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
    """Terms kernel of sum_k (w_k - e_k)^2 to the weights e of the correlators
    target; the weights sum to 1, so this is a quarter of the squared distance
    in correlators."""
    e0, e1, e2, e3 = probs(tuple(float(v) for v in target))

    def terms(w0, w1, w2, w3):
        value = (w0 - e0) ** 2 + (w1 - e1) ** 2 + (w2 - e2) ** 2 + (w3 - e3) ** 2
        return (value, 2.0 * (w0 - e0), 2.0 * (w1 - e1), 2.0 * (w2 - e2), 2.0 * (w3 - e3), 2.0, 2.0, 2.0, 2.0)

    return terms


def test_minimize_over_local_set_projects_euclidean(rng):
    # minimizing a quarter of the squared distance from an exterior point
    # recovers the metric projection onto the local set, here on a known disk arc
    target = np.array([0.84, 0.63, -0.5])
    terms = _euclidean(target)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 3)
        assert terms(*probs(tuple(x)))[0] == pytest.approx(0.25 * np.sum((x - target) ** 2), abs=1e-15)
    report = minimize_over_local_set(terms)
    assert report.converged
    assert np.max(np.abs(np.array(report.x) - project_local(target).point)) <= 1e-9
    assert report.x == pytest.approx([0.8, 0.6, -0.5], abs=1e-9)
    # on random targets, whatever boundary piece is active, the value is
    # within the solver's gap; for x in L, |x-t|^2 >= |p-t|^2 + |x-p|^2 at
    # the projection p, so the point is within sqrt(4 GAP) of it
    for _ in range(30):
        target = random_nonlocal_corr(rng)
        terms = _euclidean(target)
        report = minimize_over_local_set(terms)
        assert report.converged
        assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0
        p = project_local(target).point
        assert terms(*probs(report.x))[0] <= terms(*probs(tuple(p)))[0] + GAP, target
        assert np.linalg.norm(np.array(report.x) - p) <= (4.0 * GAP) ** 0.5, target


def test_starved_solve_reports_unconverged(monkeypatch):
    # the budget is read at call time; one step per stage cannot finish a stage
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    report = minimize_over_local_set(_euclidean((0.84, 0.63, -0.5)))
    assert not report.converged
    assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0


def test_indefinite_hessian_reports_unconverged():
    # a Newton system that is not positive definite has a non-positive
    # Cholesky pivot; it ends the stage unconverged instead of raising
    terms = _euclidean((0.84, 0.63, -0.5))

    def indefinite(*w):
        return terms(*w)[:5] + (-1e6,) * 4

    report = minimize_over_local_set(indefinite)
    assert not report.converged
    assert min(probs(report.x)) > 0.0 and max(pair_violations(report.x)) < 0.0


# the benchmark's inputs (perfbench/workloads.py FALSE_CONVERGENCE) at which
# an earlier solver reported converged above an SLSQP reference
FALSE_CONVERGENCE = ((-0.93466, -0.33381, -0.39911), (-0.99139, 0.14711, 0.13851), (0.65514, -0.55277, 0.89761))


def _bits(report):
    return [float.hex(v) for v in report.x], report.iterations, report.converged


def test_solve_is_bit_identical_to_the_reference(rng, monkeypatch):
    inputs = [random_nonlocal_corr(rng) for _ in range(12)]
    # facet nodes with the zero weight in each position: a zero e_k takes the
    # relative entropy's e_k <= 1e-15 branch
    for node in ((0.1, 0.2, 0.7), (0.0, 0.3, 0.7), (0.02, 0.3, 0.68)):
        inputs += [bd_probs_to_corr(node[:k] + (0.0,) + node[k:]) for k in range(4)]
    inputs += FALSE_CONVERGENCE
    for a in inputs:
        for kind in OBJECTIVE_KINDS:
            report = minimize_over_local_set(BdObjective(kind, a).terms)
            assert _bits(report) == _bits(reference_minimize(*reference_objective(kind, a))), (kind, a)
    targets = [(0.84, 0.63, -0.5)] + [random_nonlocal_corr(rng) for _ in range(4)]
    for target in targets:
        terms = _euclidean(target)
        assert _bits(minimize_over_local_set(terms)) == _bits(reference_minimize(*as_pair(terms))), target
    # the constants are read at call time, by both; a starved stage ends at its budget
    monkeypatch.setattr(solver, "MAX_ITERS", 2)
    for a in inputs[:4]:
        for kind in OBJECTIVE_KINDS:
            report = minimize_over_local_set(BdObjective(kind, a).terms)
            assert not report.converged
            assert _bits(report) == _bits(reference_minimize(*reference_objective(kind, a))), (kind, a)


def test_one_terms_call_per_scored_point(rng):
    # a deterministic count: the kernel is called once per stage start and per
    # line-search trial that passes the boundary floor, about 50 times per
    # solve here; separate value and derivative calls made about 100
    calls = 0
    inputs = [random_nonlocal_corr(rng) for _ in range(40)]
    for a in inputs:
        for kind in OBJECTIVE_KINDS:
            terms = BdObjective(kind, a).terms

            def counting(*w, terms=terms):
                nonlocal calls
                calls += 1
                return terms(*w)

            assert minimize_over_local_set(counting).converged
    assert calls / (len(inputs) * len(OBJECTIVE_KINDS)) <= 55


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_newton_system_matches_finite_differences_of_the_barrier(rng, kind):
    # the reference Newton system folds the barrier's log terms into the
    # kernel's per-weight derivatives and adds the cylinders in x; check it
    # against central differences of f - t * sum(log slacks) itself, near a
    # cylinder, where the cylinder terms dominate. The solver reproduces the
    # reference bit for bit (test_solve_is_bit_identical_to_the_reference).
    t = 1e-2

    def barrier(obj, x):
        slacks = probs(x) + tuple(-v for v in pair_violations(x))
        return obj.value_at(x) - t * sum(math.log(s) for s in slacks)

    step = 1e-8
    for _ in range(10):
        obj = BdObjective(kind, random_nonlocal_corr(rng))
        _, derivatives = as_pair(obj.terms)
        # the projection of a nonlocal point lies on a cylinder, strictly
        # inside the tetrahedron; pull it in so that one slack is 1e-4..1e-3
        p = np.array(project_local(random_nonlocal_corr(rng)).point)
        x = tuple(float(v) for v in p * (1.0 - rng.uniform(5e-5, 5e-4)))
        slacks = _slacks(x)
        assert min(slacks) > 0.0 and min(slacks[4:]) <= 1e-3
        g, h = (np.array(m) for m in _newton_system(derivatives, x, slacks, t))
        fd_g, fd_h = np.empty(3), np.empty((3, 3))
        for i in range(3):
            xp, xm = list(x), list(x)
            xp[i] += step
            xm[i] -= step
            fd_g[i] = (barrier(obj, tuple(xp)) - barrier(obj, tuple(xm))) / (2.0 * step)
            gp = _newton_system(derivatives, tuple(xp), _slacks(tuple(xp)), t)[0]
            gm = _newton_system(derivatives, tuple(xm), _slacks(tuple(xm)), t)[0]
            fd_h[:, i] = (np.array(gp) - np.array(gm)) / (2.0 * step)
        assert np.linalg.norm(fd_g - g) <= 1e-6 * np.linalg.norm(g), (kind, x)
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(fd_h - h) <= 1e-6 * np.linalg.norm(h), (kind, x)
