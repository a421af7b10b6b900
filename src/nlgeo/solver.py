"""Log-barrier Newton solver for minimization over the CHSH-local Bell-diagonal set.

The local set L is the tetrahedron of Bell weights w_k >= 0 intersected with
the three cylinders a_i^2 + a_j^2 <= 1, in correlator coordinates x. Every
objective used with this solver is a convex sum f(w) = sum_k f_k(w_k) of one
term per Bell weight, given by f and each term's first and second derivative
in its weight. So one start suffices: the maximally mixed state x = 0, where
every weight is 1/4 and every cylinder has slack 1. Each stage minimizes

    f(w(x)) - t * (sum_k log w_k + sum_(i,j) log(1 - x_i^2 - x_j^2))

by damped Newton steps, and t falls tenfold per stage. A stage minimizer is
within 7 t of the optimum over L, one t per constraint (Boyd & Vandenberghe,
Convex Optimization, section 11.2), so the last stage is the first with
7 t <= GAP. Every iterate is strictly inside L. The log terms of the weights
are per-weight terms too: each Newton system adds them to f's derivatives and
maps the sum to x once (each weight is affine in x), then adds the cylinders.

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

The decision space has three coordinates, so the loop works on plain float
tuples; numpy is not needed.
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


def pair_violations(x) -> tuple[float, float, float]:
    """Values of a_i^2 + a_j^2 - 1 for the three disk constraints."""
    x0, x1, x2 = x
    return (x0 * x0 + x1 * x1 - 1.0, x0 * x0 + x2 * x2 - 1.0, x1 * x1 + x2 * x2 - 1.0)


def _slacks(x) -> tuple[float, ...]:
    """The seven constraint slacks: the Bell weights and 1 - a_i^2 - a_j^2."""
    return probs(x) + tuple(map(operator.neg, pair_violations(x)))


def _barrier_value(value, slacks, t: float) -> float:
    """f - t * (sum of the seven log slacks) at an interior point."""
    return value(slacks[:4], t) - t * sum(map(math.log, slacks))


def _newton_system(derivatives, x, slacks, t: float):
    """Gradient and Hessian rows in x of the barrier objective at x with these slacks."""
    w0, w1, w2, w3, c01, c02, c12 = slacks
    d, h = derivatives(slacks[:4], t)
    # each -t log w_k adds -t / w_k and t / w_k^2 to its weight's derivatives
    g0, g1, g2 = weights_gradient((d[0] - t / w0, d[1] - t / w1, d[2] - t / w2, d[3] - t / w3))
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
    for it in range(MAX_ITERS + 1):
        newton = _newton_step(*_newton_system(derivatives, x, slacks, t))
        if newton is None:
            return x, it, False
        step, dec = newton
        if 0.5 * dec <= DECREMENT_TOL:
            return x, it, True
        if it == MAX_ITERS:
            break
        floor = [BOUNDARY_FRACTION * v for v in slacks]
        s = 1.0
        while True:
            xn = (x[0] + s * step[0], x[1] + s * step[1], x[2] + s * step[2])
            if xn == x:
                # the step fell below float resolution without enough decrease
                return x, it, False
            sn = _slacks(xn)
            if all(map(operator.ge, sn, floor)):
                phin = _barrier_value(value, sn, t)
                if phin <= phi - ARMIJO * s * dec:
                    break
            s *= 0.5
        x, slacks, phi = xn, sn, phin
    return x, MAX_ITERS, False


def minimize_over_local_set(value, derivatives) -> SolveReport:
    """Minimize a convex f = sum_k f_k(w_k) over the local set by the log-barrier method.

    ``value(w, t)`` gives f at the four Bell weights w, all positive, and
    ``derivatives(w, t)`` the sequences (f_k'(w_k)) and (f_k''(w_k)). t is the
    barrier weight, which an objective with kinks may use as its smoothing
    width. A stage that ends without meeting DECREMENT_TOL (after MAX_ITERS
    Newton steps, at a non-positive Cholesky pivot, or at a step below float
    resolution) leaves the report unconverged; later stages still run.
    """
    start = (0.0, 0.0, 0.0)
    prev = None
    t = T_FIRST
    total = 0
    converged = True
    while True:
        x, steps, done = _newton_stage(value, derivatives, start, t)
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
