"""Log-barrier Newton solver for minimization over the CHSH-local Bell-diagonal set.

The local set L is the tetrahedron of Bell weights w_k >= 0 intersected with
the three cylinders a_i^2 + a_j^2 <= 1. Every objective used with this solver
is convex on L, so one start suffices: the maximally mixed state x = 0, where
every weight is 1/4 and every cylinder has slack 1. Each stage minimizes

    f(x) - t * (sum_k log w_k + sum_(i,j) log(1 - x_i^2 - x_j^2))

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

The decision space has three coordinates, so the loop works on plain float
triples; numpy is not needed.
"""

from __future__ import annotations

import math
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
    return probs(x) + tuple(-v for v in pair_violations(x))


def _barrier_value(fun, x, slacks, t: float) -> float:
    """f(x) - t * (sum of the seven log slacks) at an interior x."""
    return fun(x, t) - t * sum(math.log(s) for s in slacks)


def _barrier_derivatives(grad, hess, x, t: float):
    """Gradient and Hessian of the barrier objective at an interior x."""
    w = probs(x)
    g = list(grad(x, t))
    fh = hess(x, t)
    bg = weights_gradient([-t / wk for wk in w])
    bh = weights_hessian([t / (wk * wk) for wk in w])
    h = [[fh[r][c] + bh[r][c] for c in range(3)] for r in range(3)]
    for r in range(3):
        g[r] += bg[r]
    for (i, j), v in zip(DISK_PAIRS, pair_violations(x)):
        # -t log c with c = 1 - x_i^2 - x_j^2
        c = -v
        g[i] += 2.0 * t * x[i] / c
        g[j] += 2.0 * t * x[j] / c
        q = 4.0 * t / (c * c)
        h[i][i] += q * x[i] * x[i] + 2.0 * t / c
        h[j][j] += q * x[j] * x[j] + 2.0 * t / c
        h[i][j] += q * x[i] * x[j]
        h[j][i] = h[i][j]
    return g, h


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


def _newton_stage(fun, grad, hess, x, t: float):
    """Damped Newton on the barrier objective at t from an interior x;
    returns (x, steps, converged)."""
    slacks = _slacks(x)
    phi = _barrier_value(fun, x, slacks, t)
    for it in range(MAX_ITERS + 1):
        newton = _newton_step(*_barrier_derivatives(grad, hess, x, t))
        if newton is None:
            return x, it, False
        step, dec = newton
        if 0.5 * dec <= DECREMENT_TOL:
            return x, it, True
        if it == MAX_ITERS:
            break
        s = 1.0
        while True:
            xn = (x[0] + s * step[0], x[1] + s * step[1], x[2] + s * step[2])
            if xn == x:
                # the step fell below float resolution without enough decrease
                return x, it, False
            sn = _slacks(xn)
            if all(v >= BOUNDARY_FRACTION * v0 for v, v0 in zip(sn, slacks)):
                phin = _barrier_value(fun, xn, sn, t)
                if phin <= phi - ARMIJO * s * dec:
                    break
            s *= 0.5
        x, slacks, phi = xn, sn, phin
    return x, MAX_ITERS, False


def minimize_over_local_set(fun, grad, hess) -> SolveReport:
    """Minimize a convex f over the local set by the log-barrier method.

    ``fun(x, eps)``, ``grad(x, eps)`` and ``hess(x, eps)`` give f, its
    gradient and its Hessian (rows of a symmetric 3x3) on float triples. eps
    is the barrier weight t, which an objective with kinks may use as its
    smoothing width; smooth objectives ignore it. A stage that takes
    MAX_ITERS Newton steps without meeting DECREMENT_TOL leaves the report
    unconverged; the later stages still run from where it stopped.
    """
    start = (0.0, 0.0, 0.0)
    prev = None
    t = T_FIRST
    total = 0
    converged = True
    while True:
        x, steps, done = _newton_stage(fun, grad, hess, start, t)
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
