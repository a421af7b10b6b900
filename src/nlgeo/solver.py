"""Log-barrier Newton solver for minimization over the CHSH-local Bell-diagonal set.

The local set L is the tetrahedron of Bell weights w_k >= 0 intersected with
the three cylinders a_i^2 + a_j^2 <= 1, in correlator coordinates x. Every
objective used with this solver is a convex sum f(w) = sum_k f_k(w_k) of one
term per Bell weight, given by one kernel, terms(w0, w1, w2, w3) = (f, f_0',
.., f_3', f_0'', .., f_3''), called once per point the solver scores, where
all seven slacks are positive. So one start suffices: the maximally mixed
state x = 0, where every weight is 1/4 and every cylinder has slack 1. Each
stage minimizes

    f(w(x)) - t * (sum_k log w_k + sum_(i,j) log(1 - x_i^2 - x_j^2))

by damped Newton steps, and t falls by STAGE_REDUCTION per stage. A stage
minimizer is within 7 t of the optimum over L, one t per constraint (Boyd &
Vandenberghe, Convex Optimization, section 11.2), so the last stage is the
first with 7 t <= GAP: the eighth, at t = 1.28e-12. Every iterate is strictly
inside L.

Warm start: the stage minimizers x(t) lie on the central path
grad f + t grad B = 0, B = -sum log(slacks), whose tangent solves
H dx/dt = -grad B, H the barrier Hessian. A converged stage holds the Cholesky
factor of H at its end point x, so the next stage starts at the predictor
x + (t_next - t) dx/dt (Nocedal & Wright, Numerical Optimization, section
14.2) when that point is strictly inside L, and otherwise at x. The tangent
predicts exactly a slack that vanishes like t along the path, so t can fall
fiftyfold per stage.

Each step is damped by a backtracking line search with a fraction-to-boundary
floor (Nocedal & Wright, section 19.2): a trial point must keep every slack
at or above BOUNDARY_FRACTION of its value at the current iterate. Without
the floor, a step that meets the Armijo condition can shrink a slack of about
t by nearly four orders of magnitude, and the barrier Hessian then loses
positive definiteness in floating point. A Newton system that is not
numerically positive definite ends its stage unconverged.

The decision space has three coordinates, so a stage is one loop on local
floats (a Python call costs more than the arithmetic it would wrap); numpy is
not needed.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .locality import DISK_PAIRS

# Newton steps allowed per barrier stage. A stage needs a handful: at most 14,
# mean 3.1, over 18,944 stages of random, grid and sweep inputs
MAX_ITERS = 500
T_FIRST = 1.0
# t falls by this factor per stage; the tangent start keeps stages short
# at this steep fall
STAGE_REDUCTION = 0.02
GAP = 1e-11
ARMIJO = 1e-4
# a stage ends when half the squared Newton decrement, the predicted
# decrease still left in its barrier objective, is below this
DECREMENT_TOL = 1e-12
# a trial step keeps every slack at or above this share of its current value
BOUNDARY_FRACTION = 0.01

N_CONSTRAINTS = 4 + len(DISK_PAIRS)


class SolveReport(namedtuple("SolveReport", "x value iterations converged")):
    """The last stage's point, the objective there, the Newton steps of all
    stages, and whether all converged."""

    __slots__ = ()


def probs(x) -> tuple[float, float, float, float]:
    """Bell weights of the correlator triple x."""
    x0, x1, x2 = x
    return (
        0.25 * (1.0 + x0 + x1 - x2),
        0.25 * (1.0 + x0 - x1 + x2),
        0.25 * (1.0 - x0 + x1 + x2),
        0.25 * (1.0 - x0 - x1 - x2),
    )


def pair_violations(x) -> tuple[float, float, float]:
    """Values of a_i^2 + a_j^2 - 1 for the three disk constraints."""
    x0, x1, x2 = x
    return (x0 * x0 + x1 * x1 - 1.0, x0 * x0 + x2 * x2 - 1.0, x1 * x1 + x2 * x2 - 1.0)


def _slacks(x) -> tuple[float, ...]:
    """The seven constraint slacks: the Bell weights and 1 - a_i^2 - a_j^2."""
    return probs(x) + tuple(map(operator.neg, pair_violations(x)))


def _scored(terms, x, slacks) -> tuple:
    """A stage's start state at an interior x: x, its slacks, the sum() of their
    logs (as the reference takes it; CPython 3.12 compensates a float sum(), so
    a chain of + would round differently) and terms there."""
    return (*x, *slacks, sum(map(math.log, slacks)), terms(*slacks[:4]))


def _newton_stage(terms, state, t: float):
    """Damped Newton on the barrier objective at t from a _scored state; returns
    (state, steps, tangent) with the state of its end point, where the next
    stage can start without scoring it again: nothing in it depends on t. The
    tangent is the central path's dx/dt there when the stage converged, and
    None when it did not. The float operations are those of the tests'
    reference stage, in its order, so the results are the same bit for bit."""
    max_iters, armijo, tol, fraction = MAX_ITERS, ARMIJO, DECREMENT_TOL, BOUNDARY_FRACTION
    log, sqrt = math.log, math.sqrt
    x0, x1, x2, w0, w1, w2, w3, c01, c02, c12, logs, scored = state
    f, d0, d1, d2, d3, h0, h1, h2, h3 = scored
    phi = f - t * logs
    t2 = 2.0 * t
    tangent = None
    for it in range(max_iters + 1):
        # each -t log w_k adds -t / w_k and t / w_k^2 to its weight's derivatives
        e0 = d0 - t / w0
        e1 = d1 - t / w1
        e2 = d2 - t / w2
        e3 = d3 - t / w3
        k0 = h0 + t / (w0 * w0)
        k1 = h1 + t / (w1 * w1)
        k2 = h2 + t / (w2 * w2)
        k3 = h3 + t / (w3 * w3)
        # -t log c for c = 1 - x_i^2 - x_j^2: gradient u x on the pair (i, j), and
        # Hessian q x x^T plus u on the pair's diagonal, u = 2 t / c, q = 4 t / c^2
        u01 = t2 / c01
        u02 = t2 / c02
        u12 = t2 / c12
        q01 = 2.0 * u01 / c01
        q02 = 2.0 * u02 / c02
        q12 = 2.0 * u12 / c12
        # each weight is (1 + s_k . x) / 4 for a sign vector s_k: in x, the
        # gradient is (1/4) sum_k e_k s_k and the Hessian (1/16) sum_k k_k s_k s_k^T
        g0 = 0.25 * (e0 + e1 - e2 - e3) + (u01 + u02) * x0
        g1 = 0.25 * (e0 - e1 + e2 - e3) + (u01 + u12) * x1
        g2 = 0.25 * (-e0 + e1 + e2 - e3) + (u02 + u12) * x2
        diag = 0.0625 * (k0 + k1 + k2 + k3)
        a01 = 0.0625 * (k0 - k1 - k2 + k3) + q01 * x0 * x1
        a02 = 0.0625 * (-k0 + k1 - k2 + k3) + q02 * x0 * x2
        a12 = 0.0625 * (-k0 - k1 + k2 + k3) + q12 * x1 * x2
        # the step -H^{-1} g and the squared decrement g^T H^{-1} g by Cholesky;
        # a pivot that is not positive means H is not numerically positive definite
        p0 = diag + (q01 + q02) * x0 * x0 + u01 + u02
        if not p0 > 0.0:
            break
        l00 = sqrt(p0)
        l10 = a01 / l00
        l20 = a02 / l00
        p1 = diag + (q01 + q12) * x1 * x1 + u01 + u12 - l10 * l10
        if not p1 > 0.0:
            break
        l11 = sqrt(p1)
        l21 = (a12 - l20 * l10) / l11
        p2 = diag + (q02 + q12) * x2 * x2 + u02 + u12 - l20 * l20 - l21 * l21
        if not p2 > 0.0:
            break
        l22 = sqrt(p2)
        y0 = -g0 / l00
        y1 = (-g1 - l10 * y0) / l11
        y2 = (-g2 - l20 * y0 - l21 * y1) / l22
        dec = y0 * y0 + y1 * y1 + y2 * y2
        if 0.5 * dec <= tol:
            # the central path's tangent dx/dt = -H^{-1} grad B at the end point,
            # B = -sum log(slacks), from the same Cholesky factor of H
            r0, r1, r2, r3 = -1.0 / w0, -1.0 / w1, -1.0 / w2, -1.0 / w3
            v01, v02, v12 = 2.0 / c01, 2.0 / c02, 2.0 / c12
            b0 = 0.25 * (r0 + r1 - r2 - r3) + (v01 + v02) * x0
            b1 = 0.25 * (r0 - r1 + r2 - r3) + (v01 + v12) * x1
            b2 = 0.25 * (-r0 + r1 + r2 - r3) + (v02 + v12) * x2
            z0 = -b0 / l00
            z1 = (-b1 - l10 * z0) / l11
            z2 = (-b2 - l20 * z0 - l21 * z1) / l22
            m2 = z2 / l22
            m1 = (z1 - l21 * m2) / l11
            tangent = ((z0 - l10 * m1 - l20 * m2) / l00, m1, m2)
            break
        if it == max_iters:
            break
        s2 = y2 / l22
        s1 = (y1 - l21 * s2) / l11
        s0 = (y0 - l10 * s1 - l20 * s2) / l00
        floor0, floor1, floor2, floor3 = fraction * w0, fraction * w1, fraction * w2, fraction * w3
        floor01, floor02, floor12 = fraction * c01, fraction * c02, fraction * c12
        s = 1.0
        while True:
            n0 = x0 + s * s0
            n1 = x1 + s * s1
            n2 = x2 + s * s2
            if n0 == x0 and n1 == x1 and n2 == x2:
                break  # the step fell below float resolution without enough decrease
            v0 = 0.25 * (1.0 + n0 + n1 - n2)
            v1 = 0.25 * (1.0 + n0 - n1 + n2)
            v2 = 0.25 * (1.0 - n0 + n1 + n2)
            v3 = 0.25 * (1.0 - n0 - n1 - n2)
            b01 = 1.0 - (n0 * n0 + n1 * n1)
            b02 = 1.0 - (n0 * n0 + n2 * n2)
            b12 = 1.0 - (n1 * n1 + n2 * n2)
            if (v0 >= floor0 and v1 >= floor1 and v2 >= floor2 and v3 >= floor3
                    and b01 >= floor01 and b02 >= floor02 and b12 >= floor12):
                logn = sum(map(log, (v0, v1, v2, v3, b01, b02, b12)))
                trial = terms(v0, v1, v2, v3)
                phin = trial[0] - t * logn
                if phin <= phi - armijo * s * dec:
                    break
            s *= 0.5
        if n0 == x0 and n1 == x1 and n2 == x2:
            break
        x0, x1, x2, w0, w1, w2, w3, c01, c02, c12 = n0, n1, n2, v0, v1, v2, v3, b01, b02, b12
        phi, logs, scored = phin, logn, trial
        _, d0, d1, d2, d3, h0, h1, h2, h3 = trial
    return (x0, x1, x2, w0, w1, w2, w3, c01, c02, c12, logs, scored), it, tangent


def minimize_over_local_set(terms) -> SolveReport:
    """Minimize a convex f = sum_k f_k(w_k) over the local set by the log-barrier method.

    ``terms(w0, w1, w2, w3)`` gives the tuple (f, f_0'(w0), .., f_3'(w3),
    f_0''(w0), .., f_3''(w3)) at four Bell weights. It is called only where
    all seven slacks are positive, and once per point the solver scores: the
    origin, each tangent start and each line-search trial past the boundary
    floor. A stage that ends without meeting DECREMENT_TOL (after MAX_ITERS
    Newton steps, at a non-positive Cholesky pivot, or at a step below float
    resolution) leaves the report unconverged; later stages still run.
    """
    state = _scored(terms, (0.0, 0.0, 0.0), _slacks((0.0, 0.0, 0.0)))
    t = T_FIRST
    total = 0
    converged = True
    while True:
        state, steps, tangent = _newton_stage(terms, state, t)
        x = state[:3]
        total += steps
        converged = converged and tangent is not None
        if N_CONSTRAINTS * t <= GAP:
            break
        t_next = t * STAGE_REDUCTION
        if tangent is not None:
            xp = tuple(xk + (t_next - t) * mk for xk, mk in zip(x, tangent))
            slacks = _slacks(xp)
            if min(slacks) > 0.0:
                state = _scored(terms, xp, slacks)
        t = t_next
    return SolveReport(x=x, value=state[-1][0], iterations=total, converged=converged)
