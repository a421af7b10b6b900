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

by damped Newton steps, and t falls tenfold per stage. A stage minimizer is
within 7 t of the optimum over L, one t per constraint (Boyd & Vandenberghe,
Convex Optimization, section 11.2), so the last stage is the first with
7 t <= GAP. Every iterate is strictly inside L.

Warm start: the stage minimizers x(t) lie on the central path, along which a
slack that vanishes at the optimum goes like t. So from the third stage on a
stage starts at the secant prediction x_k + STAGE_REDUCTION (x_k - x_(k-1))
of its own minimizer, which predicts such a slack exactly, when that point is
strictly inside L; otherwise at x_k. Each step is damped by a backtracking
line search with a fraction-to-boundary floor (Nocedal & Wright, Numerical
Optimization, section 19.2): a trial point must keep every slack at or above
BOUNDARY_FRACTION of its value at the current iterate. Without the floor, a
step that meets the Armijo condition can shrink a slack of about t by nearly
four orders of magnitude, and the barrier Hessian then loses positive
definiteness in floating point. A Newton system that is not numerically
positive definite ends its stage unconverged.

The decision space has three coordinates, so a stage is one loop on local
floats (a Python call costs more than the arithmetic it would wrap); numpy is
not needed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .locality import DISK_PAIRS

# Newton steps allowed per barrier stage. A stage needs a handful: at most 17,
# mean 2.7, over 32,968 stages of random, grid and sweep inputs
MAX_ITERS = 500
T_FIRST = 1.0
# t falls by this factor per stage, and the warm start extrapolates by it
STAGE_REDUCTION = 0.1
GAP = 1e-11
ARMIJO = 1e-4
# a stage ends when half the squared Newton decrement, the predicted
# decrease still left in its barrier objective, is below this
DECREMENT_TOL = 1e-12
# a trial step keeps every slack at or above this share of its current value
BOUNDARY_FRACTION = 0.01

N_CONSTRAINTS = 4 + len(DISK_PAIRS)


@dataclass
class SolveReport:
    x: tuple[float, float, float]
    iterations: int
    converged: bool


def probs(x) -> tuple[float, float, float, float]:
    """Bell weights of the correlator triple x."""
    x0, x1, x2 = x
    return (
        0.25 * (1.0 + x0 + x1 - x2),
        0.25 * (1.0 + x0 - x1 + x2),
        0.25 * (1.0 - x0 + x1 + x2),
        0.25 * (1.0 - x0 - x1 - x2),
    )


def weights_gradient(d) -> tuple[float, float, float]:
    """Gradient in x of a sum of per-weight terms with first derivatives d."""
    return (
        0.25 * (d[0] + d[1] - d[2] - d[3]),
        0.25 * (d[0] - d[1] + d[2] - d[3]),
        0.25 * (-d[0] + d[1] + d[2] - d[3]),
    )


def pair_violations(x) -> tuple[float, float, float]:
    """Values of a_i^2 + a_j^2 - 1 for the three disk constraints."""
    x0, x1, x2 = x
    return (x0 * x0 + x1 * x1 - 1.0, x0 * x0 + x2 * x2 - 1.0, x1 * x1 + x2 * x2 - 1.0)


def _slacks(x) -> tuple[float, ...]:
    """The seven constraint slacks: the Bell weights and 1 - a_i^2 - a_j^2."""
    return probs(x) + tuple(map(operator.neg, pair_violations(x)))


def _newton_stage(terms, x, t: float):
    """Damped Newton on the barrier objective at t from an interior x; returns
    (x, steps, converged). The float operations are those of the tests'
    reference stage, in its order, so the results are the same bit for bit."""
    max_iters, armijo, tol, fraction = MAX_ITERS, ARMIJO, DECREMENT_TOL, BOUNDARY_FRACTION
    log, sqrt = math.log, math.sqrt
    x0, x1, x2 = x
    w0, w1, w2, w3, c01, c02, c12 = _slacks(x)
    # a sum() of the logs, as the reference barrier value takes it: CPython
    # 3.12 compensates a float sum(), so a chain of + would round differently
    barrier = t * sum(map(log, (w0, w1, w2, w3, c01, c02, c12)))
    f, d0, d1, d2, d3, h0, h1, h2, h3 = terms(w0, w1, w2, w3)
    phi = f - barrier
    t2 = 2.0 * t
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
            return (x0, x1, x2), it, False
        l00 = sqrt(p0)
        l10 = a01 / l00
        l20 = a02 / l00
        p1 = diag + (q01 + q12) * x1 * x1 + u01 + u12 - l10 * l10
        if not p1 > 0.0:
            return (x0, x1, x2), it, False
        l11 = sqrt(p1)
        l21 = (a12 - l20 * l10) / l11
        p2 = diag + (q02 + q12) * x2 * x2 + u02 + u12 - l20 * l20 - l21 * l21
        if not p2 > 0.0:
            return (x0, x1, x2), it, False
        l22 = sqrt(p2)
        y0 = -g0 / l00
        y1 = (-g1 - l10 * y0) / l11
        y2 = (-g2 - l20 * y0 - l21 * y1) / l22
        dec = y0 * y0 + y1 * y1 + y2 * y2
        if 0.5 * dec <= tol:
            return (x0, x1, x2), it, True
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
                # the step fell below float resolution without enough decrease
                return (x0, x1, x2), it, False
            v0 = 0.25 * (1.0 + n0 + n1 - n2)
            v1 = 0.25 * (1.0 + n0 - n1 + n2)
            v2 = 0.25 * (1.0 - n0 + n1 + n2)
            v3 = 0.25 * (1.0 - n0 - n1 - n2)
            b01 = 1.0 - (n0 * n0 + n1 * n1)
            b02 = 1.0 - (n0 * n0 + n2 * n2)
            b12 = 1.0 - (n1 * n1 + n2 * n2)
            if (v0 >= floor0 and v1 >= floor1 and v2 >= floor2 and v3 >= floor3
                    and b01 >= floor01 and b02 >= floor02 and b12 >= floor12):
                barrier = t * sum(map(log, (v0, v1, v2, v3, b01, b02, b12)))
                trial = terms(v0, v1, v2, v3)
                phin = trial[0] - barrier
                if phin <= phi - armijo * s * dec:
                    break
            s *= 0.5
        x0, x1, x2, w0, w1, w2, w3, c01, c02, c12 = n0, n1, n2, v0, v1, v2, v3, b01, b02, b12
        phi = phin
        _, d0, d1, d2, d3, h0, h1, h2, h3 = trial
    return (x0, x1, x2), max_iters, False


def minimize_over_local_set(terms) -> SolveReport:
    """Minimize a convex f = sum_k f_k(w_k) over the local set by the log-barrier method.

    ``terms(w0, w1, w2, w3)`` gives the tuple (f, f_0'(w0), .., f_3'(w3),
    f_0''(w0), .., f_3''(w3)) at four Bell weights. It is called only where
    all seven slacks are positive, and once per point the solver scores: each
    stage start and each line-search trial that passes the boundary floor. A
    stage that ends without meeting DECREMENT_TOL (after MAX_ITERS Newton
    steps, at a non-positive Cholesky pivot, or at a step below float
    resolution) leaves the report unconverged; later stages still run.
    """
    start = (0.0, 0.0, 0.0)
    prev = None
    t = T_FIRST
    total = 0
    converged = True
    while True:
        x, steps, done = _newton_stage(terms, start, t)
        total += steps
        converged = converged and done
        if N_CONSTRAINTS * t <= GAP:
            break
        t *= STAGE_REDUCTION
        start = x
        if prev is not None:
            xp = tuple(xk + STAGE_REDUCTION * (xk - pk) for xk, pk in zip(x, prev))
            if min(_slacks(xp)) > 0.0:
                start = xp
        prev = x
    return SolveReport(x=x, iterations=total, converged=converged)
