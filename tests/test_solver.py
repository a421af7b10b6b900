import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import hs_oracle, in_tetrahedron, random_local_corr, random_nonlocal_corr
from test_kkt_oracle import oracle_inputs
from nlgeo.locality import bd_is_chsh_local, bell_chamber, from_chamber
from nlgeo.kinds import DistanceKind
from nlgeo.measures import KERNELS, OBJECTIVE_KINDS
from nlgeo.qstate import bd_corr_to_probs, bd_probs_to_corr
from nlgeo import solver
from nlgeo.solver import minimize_over_local_set

# Helpers for the gradient tests here and in test_measures and test_acceptance:
# a terms kernel seen as a function of the correlators x.


def weights_gradient(d) -> tuple[float, float, float]:
    """Gradient in x of a sum of per-weight terms with first derivatives d."""
    return (
        0.25 * (d[0] + d[1] - d[2] - d[3]),
        0.25 * (d[0] - d[1] + d[2] - d[3]),
        0.25 * (-d[0] + d[1] + d[2] - d[3]),
    )


def value_at(terms, x) -> float:
    """A terms kernel's objective at the correlators x, inside the tetrahedron."""
    return terms(*bd_corr_to_probs(x))[0]


def gradient_at(terms, x) -> tuple[float, float, float]:
    """A terms kernel's objective gradient in x at the correlators x."""
    return weights_gradient(terms(*bd_corr_to_probs(x))[1:5])


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


def chamber_angle(e) -> float:
    """The start angle of the chamber solve: atan2(x2, x1) of the chamber
    weights e's correlators, as measures computes it."""
    e0, e1, e2, e3 = e
    return math.atan2((e0 + e2) - (e1 + e3), (e0 - e2) + (e1 - e3))


def _euclidean(target):
    """The quadratic kernel and its facet flag in the chamber of target's
    Bell weights, the solve's start angle there and the chamber's order."""
    chamber = bell_chamber(target)
    return (*KERNELS[DistanceKind.HS](chamber.e), chamber_angle(chamber.e), chamber.order)


def _closest(report, order):
    """The correlators of a report's weights, in the order of the input."""
    return np.array(from_chamber(order, report.x, report.pairs)[0].a)


def test_minimize_over_local_set_projects_euclidean(rng):
    # minimizing a quarter of the squared distance from an exterior point
    # recovers the metric projection onto the local set, here on a known disk
    target = np.array([0.84, 0.63, -0.5])
    terms, facet, t, order = _euclidean(target)
    report = minimize_over_local_set(terms, facet, t)
    assert report.converged and report.pairs == ((0, 1),)
    assert np.max(np.abs(_closest(report, order) - [0.8, 0.6, -0.5])) <= 1e-12
    # on random targets, whatever boundary piece is active, the point is the
    # projection of the test-side oracle and the value the projection's
    for _ in range(30):
        target = random_nonlocal_corr(rng)
        terms, facet, t, order = _euclidean(target)
        report = minimize_over_local_set(terms, facet, t)
        x = _closest(report, order)
        assert report.converged and bd_is_chsh_local(x) and in_tetrahedron(x), target
        proj = hs_oracle(target)
        assert np.linalg.norm(x - proj.point) <= 1e-10, target
        assert report.value == pytest.approx(0.25 * proj.distance**2, rel=1e-13, abs=1e-16), target


def test_starved_solve_reports_unconverged(monkeypatch):
    # the budget is read at call time; the first point, at the start angle,
    # spends a budget of one step, so no solve converges, and it still ends
    # at a point of L
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    for target in ((0.84, 0.63, -0.5), (0.85, 0.85, -0.85)):
        terms, facet, t, order = _euclidean(target)
        report = minimize_over_local_set(terms, facet, t)
        assert not report.converged and report.iterations == 1
        x = _closest(report, order)
        assert bd_is_chsh_local(x) and in_tetrahedron(x)


def test_negative_multiplier_reports_unconverged(rng):
    # the solve presumes a nonlocal target, whose minimizer lies on the
    # cylinder (1, 2). For a target strictly inside L it still meets its stop
    # test on that cylinder, but the gradient there points out of L, so the
    # cylinder's multiplier is negative and the certificate fails
    for _ in range(10):
        terms, facet, t, _ = _euclidean(0.9 * random_local_corr(rng))
        report = minimize_over_local_set(terms, facet, t)
        assert report.iterations < solver.MAX_ITERS
        assert not report.converged


# the benchmark's inputs (perfbench/workloads.py FALSE_CONVERGENCE) at which
# an earlier solver reported converged above an SLSQP reference
FALSE_CONVERGENCE = ((-0.93466, -0.33381, -0.39911), (-0.99139, 0.14711, 0.13851), (0.65514, -0.55277, 0.89761))


def _nested_minimum(terms) -> float:
    """min over 0 <= t <= pi/4 of min over 0 <= u <= (1 - cos t)/4 of the
    kernel's value at w(t, u), by bounded scalar minimizations that use no
    derivative; the facet u = 0 is scored only where the kernel allows it."""

    def value(t, u):
        c, s = math.cos(t), math.sin(t)
        try:
            return terms(0.5 * (c + s) + u, 0.5 * (1.0 - s) - u, 0.5 * (1.0 - c) - u, u)[0]
        except ZeroDivisionError:
            return math.inf

    def inner(t):
        top = 0.25 * (1.0 - math.cos(t))
        best = minimize_scalar(lambda u: value(t, u), bounds=(0.0, top), method="bounded",
                               options={"xatol": 1e-14 * max(top, 1e-300)})
        return min(best.fun, value(t, 0.0), value(t, top))

    best = minimize_scalar(inner, bounds=(0.0, 0.25 * math.pi), method="bounded", options={"xatol": 1e-12})
    return min(best.fun, inner(0.25 * math.pi))


def test_solve_matches_a_nested_scalar_minimization(rng):
    # an independent reference for the Newton and bisection steps: the same
    # chamber minimized by derivative-free bounded scalar searches, on random
    # inputs, facet nodes with the zero weight in each position (a zero e_k
    # takes the relative entropy's e_k <= 1e-15 branch) and the inputs that
    # fooled an earlier solver. The two agree to rounding
    inputs = [random_nonlocal_corr(rng) for _ in range(8)]
    for node in ((0.1, 0.2, 0.7), (0.0, 0.3, 0.7), (0.02, 0.3, 0.68)):
        inputs += [bd_probs_to_corr(node[:k] + (0.0,) + node[k:]) for k in range(4)]
    inputs += FALSE_CONVERGENCE
    for a in filter(lambda a: not bd_is_chsh_local(a), inputs):
        for kind in OBJECTIVE_KINDS:
            e = bell_chamber(a).e
            terms, facet = KERNELS[kind](e)
            report = minimize_over_local_set(terms, facet, chamber_angle(e))
            assert report.converged, (kind, a)
            reference = _nested_minimum(terms)
            assert abs(report.value - reference) <= 1e-15, (kind, a, report.value - reference)


def test_the_start_angle_does_not_move_the_solution(rng):
    # the solve from the input's own chamber angle and the solve from pi/4
    # end on the same piece with the same value, to rounding, for the HS,
    # Hellinger and relative-entropy kernels, on seeded inputs and on the
    # KKT oracle's (vertex, Werner line and facet inputs among them)
    inputs = [random_nonlocal_corr(rng) for _ in range(40)] + oracle_inputs()
    for a in inputs:
        e = bell_chamber(a).e
        # Bures shares Hellinger's kernel, which is solved once
        for kernel in dict.fromkeys(KERNELS.values()):
            own = minimize_over_local_set(*kernel(e), chamber_angle(e))
            quarter = minimize_over_local_set(*kernel(e), 0.25 * math.pi)
            assert own.converged and quarter.converged, a
            assert own.pairs == quarter.pairs, a
            assert abs(own.value - quarter.value) <= 1e-15, (a, own.value - quarter.value)


def test_one_terms_call_per_scored_point(rng):
    # a deterministic count: the kernel is called once per point the solve
    # scores, about 11 times per solve here over 4 angle steps from the
    # input's own angle (17 over 4.7 from pi/4; the barrier solve it replaced
    # made about 31 calls over 25 Newton steps)
    calls = 0
    inputs = [random_nonlocal_corr(rng) for _ in range(40)]
    for a in inputs:
        e = bell_chamber(a).e
        for kind in OBJECTIVE_KINDS:
            terms, facet = KERNELS[kind](e)
            points = []

            def counting(*w, terms=terms, points=points):
                points.append(w)
                return terms(*w)

            assert minimize_over_local_set(counting, facet, chamber_angle(e)).converged
            assert len(set(points)) == len(points), (kind, a)
            calls += len(points)
    assert calls / (len(inputs) * len(OBJECTIVE_KINDS)) <= 13


def test_no_kernel_raises(rng):
    # with e4 > 0 the he and re kernels raise at u = w4 = 0, and they declare
    # it (facet False), so no solve ever scores that point
    raised = []
    inputs = [random_nonlocal_corr(rng) for _ in range(40)]
    for a in inputs:
        e = bell_chamber(a).e
        assert e[3] > 0.0
        for kind in OBJECTIVE_KINDS:
            terms, facet = KERNELS[kind](e)
            assert not facet
            count = 0

            def counting(*w, terms=terms):
                nonlocal count
                try:
                    return terms(*w)
                except ZeroDivisionError:
                    count += 1
                    raise

            assert minimize_over_local_set(counting, facet, chamber_angle(e)).converged
            raised.append(count)
    assert max(raised) == 0, raised


@pytest.mark.parametrize("kind", KERNELS)
def test_each_facet_flag_matches_its_kernel(kind):
    # facet says whether terms is finite at w4 = 0: there the kernel raises
    # ZeroDivisionError exactly when its factory says it is not, from a
    # subnormal-sized e4 up to one well above the relative entropy's 1e-15 cut
    for e3 in (0.0, 1e-300, 1e-15, 2e-15, 1e-3):
        e = (0.6, 0.3, 0.1 - e3, e3)
        terms, facet = KERNELS[kind](e)
        try:
            terms(0.5, 0.3, 0.2, 0.0)
        except ZeroDivisionError:
            raised = True
        else:
            raised = False
        assert raised is not facet, (kind, e3)
        # and it is finite everywhere off the facet
        assert all(math.isfinite(x) for x in terms(0.5, 0.3, 0.15, 0.05)), (kind, e3)


def _angle_slopes(terms, facet, t):
    """The inner solve's u and piece at t, and G', G'' and du/dt there."""
    c, s = math.cos(t), math.sin(t)
    u, piece, k, scored = solver._inner(terms, facet, c, s, 0.25 * (1.0 - c))
    value = terms(0.5 * (c + s) + u, 0.5 * (1.0 - s) - u, 0.5 * (1.0 - c) - u, u)[0]
    return value, u, piece, solver._slopes(c, s, piece, k, u - scored)


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_angle_slopes_match_finite_differences(rng, kind):
    # G'(t) against central differences of G(t) = min_u F(t, u), and G''(t)
    # and du/dt against those of G' and of the inner solve's u, on each
    # piece: random inputs give disks and arcs, and the facet nodes (e4 = 0)
    # facets
    inputs = [random_nonlocal_corr(rng) for _ in range(10)]
    inputs += [bd_probs_to_corr((0.46, 0.0, 0.0, 0.54)), bd_probs_to_corr((0.1, 0.0, 0.06, 0.84))]
    pieces = set()
    h = 1e-5
    for a in inputs:
        kernel = KERNELS[kind](bell_chamber(a).e)
        for t in (0.2, 0.45, 0.7):
            _, _, piece, (g, gg, dudt) = _angle_slopes(*kernel, t)
            (vp, up, piece_p, (gp, _, _)), (vm, um, piece_m, (gm, _, _)) = (
                _angle_slopes(*kernel, t + d) for d in (h, -h)
            )
            if not piece_p == piece_m == piece:
                continue
            pieces.add(piece)
            assert g == pytest.approx((vp - vm) / (2.0 * h), rel=1e-6, abs=1e-10), (kind, a, t, piece)
            assert gg == pytest.approx((gp - gm) / (2.0 * h), rel=1e-6, abs=1e-10), (kind, a, t, piece)
            assert dudt == pytest.approx((up - um) / (2.0 * h), rel=1e-6, abs=1e-10), (kind, a, t, piece)
    assert pieces == {"disk", "arc", "facet"}


def test_inner_falls_back_to_bisection_after_its_log_step():
    # F_u(u) = 1 - (r/u)^(1/2), with its root r far below the top: each
    # Newton step from above r lands below 0, so the log step u^2/(2u - n)
    # replaces it; below u ~ 1e-154, u^2 underflows to 0, the log step lands
    # on lo = 0, and bisection halves the bracket down to r (81 of the 89
    # kernel calls)
    t = 0.6
    c, s = math.cos(t), math.sin(t)
    top = 0.25 * (1.0 - c)
    r = 1e-200 * top
    calls = []

    def terms(w1, w2, w3, u):
        calls.append(u)
        q = math.sqrt(r / u)
        return 0.0, 0.0, 0.0, 0.0, 1.0 - q, 0.0, 0.0, 0.0, q / (2.0 * u)

    u, piece, _, _ = solver._inner(terms, False, c, s, top)
    assert piece == "disk"
    assert abs(u - r) <= solver.U_TOL * r, (u, r)
    assert 0.0 not in calls and len(calls) <= 100, len(calls)


def test_inner_stops_at_the_least_positive_float():
    # F_u = 1 everywhere, with curvature 1 in u, and terms infinite on the
    # facet (facet=False): every step heads for u = 0, which is never scored.
    # The log steps u^2/(2u - n) fall until u^2 underflows, bisection then
    # halves the bracket, and at the least positive float the next midpoint
    # rounds to 0, so the solve returns that float as a disk
    c, s = math.cos(0.3), math.sin(0.3)
    calls = []

    def terms(w1, w2, w3, u):
        if u == 0.0:
            raise ZeroDivisionError("terms is infinite on the facet")
        calls.append(u)
        return 0.0, 1.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25

    u, piece, _, scored = solver._inner(terms, False, c, s, 0.25 * (1.0 - c))
    assert (u, piece, scored) == (math.ulp(0.0), "disk", math.ulp(0.0))
    assert len(calls) == 251
