"""Exact minimization over the CHSH-local Bell-diagonal set in one symmetry chamber.

The objectives are f(w) = sum_k phi(e_k, w_k) over the Bell weights w of a
local state, one convex term per weight for a fixed state's weights e, with
d^2 phi / de dw <= 0. They come as one kernel, terms(w1, w2, w3, w4) = (f,
phi_1', .., phi_4', phi_1'', .., phi_4''), with e in descending order. The
three kernels are euclidean_terms (Hilbert-Schmidt) and measures.BdObjective
(Hellinger, relative entropy).

The local set L is the tetrahedron w_k >= 0 cut by the cylinders
x_i^2 + x_j^2 <= 1 of the correlators x, w_k = (1 + C_k . x) / 4
(qstate.BELL_CORNERS). A permutation of the weights permutes the axes of x
with an even number of sign flips, so it maps L onto itself, and f is
unchanged when it acts on both e and w. Exchanging two weights ordered
against e does not raise f, so the minimizer's weights are ordered like e:
x1 >= x2 >= |x3|, as x1 - x2 = 2 (w2 - w3), x2 - x3 = 2 (w1 - w2) and
x2 + x3 = 2 (w3 - w4). This is the one chamber of every Bell-diagonal
measure (locality.bell_chamber, locality.from_chamber); the trace measure
is a closed form in it. For a nonlocal e the minimizer lies on the
cylinder (1, 2), as a point inside every cylinder would minimize f over the
whole tetrahedron, where e does. So x = (cos t, sin t, x3) with
0 <= t <= pi/4, and with u = w4, c = cos t and s = sin t,

    w(t, u) = ((c + s)/2 + u, (1 - s)/2 - u, (1 - c)/2 - u, u),  0 <= u <= (1 - c)/4.

u = (1 - c)/4 is the arc w3 = w4, x3 = -s, where the cylinder (1, 3) meets
(1, 2); it ends at t = pi/4 in the vertex of all three. u = 0 is the facet
w4 = 0, where the slope of a present Hellinger or relative-entropy e4 term
is -inf (its kernel raises ZeroDivisionError there).

F(t, u) = f(w(t, u)) is convex in u, with F_u = phi_1' - phi_2' - phi_3' +
phi_4' and F_uu = sum_k phi_k''. A safeguarded Newton iteration in u
minimizes it; it takes an end point when the sign of F_u there says so, and
stops on a step relative to u, since a tiny e4 puts the minimizer at a tiny
u. An outer Newton iteration finds the root of G'(t), G(t) = min_u F(t, u):
G' = F_t plus F_u s/4 on the arc, and G'' = F_tt - F_tu^2 / F_uu for u
inside, or the total derivative along the arc or the facet. It tests
t = pi/4 first, where G' <= 0 puts the minimizer; elsewhere it keeps its
steps in the bracket [0, pi/4] by bisection and stops on a step of at most
T_TOL, leaving an error of about G'' T_TOL^2 in the value. Each u solve
starts from the last u moved along du/dt.

f and L are convex, so the end point is the minimum when the gradient
F_i = dF/dx_i = sum_k phi_k' C_ki / 4 is balanced there by multipliers >= 0
of the active constraints (k = sqrt 2):
- disk: lambda_12 = -(c F1 + s F2)/2;
- arc: lambda_12 = -F2/(2s), lambda_13 = F3/(2s);
- facet: mu = -4 F3 for w4 >= 0, lambda_12 = -(F1 - F3)/(2c);
- vertex: lambda_12 = -(F1 + F2 + F3)/(2k), lambda_13 = -F1/k - lambda_12,
  lambda_23 = -F2/k - lambda_12.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Angle steps allowed per solve, the probe at pi/4 included; a solve takes
# about 4 to 5. One that spends them all ends unconverged, so that a budget
# of 1 starves every solve
MAX_ITERS = 500
# the angle iteration stops on a step at most this
T_TOL = 1e-11
# the u iteration stops on a step at most this share of u
U_TOL = 1e-9

# index pairs of the three cylinders x_i^2 + x_j^2 = 1, in lexicographic order
DISK_PAIRS = ((0, 1), (0, 2), (1, 2))

_SQRT_HALF = math.sqrt(0.5)
_SQRT_TWO = math.sqrt(2.0)
# the active cylinders of each piece, in the chamber's axes
_PAIRS = {"disk": DISK_PAIRS[:1], "facet": DISK_PAIRS[:1], "arc": DISK_PAIRS[:2], "vertex": DISK_PAIRS}


class SolveReport(namedtuple("SolveReport", "x value iterations converged pairs")):
    """The minimizer's Bell weights in the order terms takes them, the
    objective there, the angle steps taken, whether the stop test was met
    within MAX_ITERS with every KKT multiplier >= 0, and the index pairs of
    the cylinders it lies on, in the correlator axes of that order."""

    __slots__ = ()


def euclidean_terms(e):
    """The kernel of sum_k (w_k - e_k)^2, a quarter of the squared distance
    between the correlators: the square root of its minimum is the
    Hilbert-Schmidt measure."""
    e0, e1, e2, e3 = e

    def terms(w0, w1, w2, w3):
        d0, d1, d2, d3 = w0 - e0, w1 - e1, w2 - e2, w3 - e3
        f = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
        return f, 2.0 * d0, 2.0 * d1, 2.0 * d2, 2.0 * d3, 2.0, 2.0, 2.0, 2.0

    return terms


def _inner(terms, c, s, u, facet):
    """Minimize F(t, .) over [0, (1 - c)/4] from u, for c = cos t, s = sin t.

    Returns (u, piece, terms at the last u scored, that u, facet), piece
    "arc" at the top, "facet" at 0 and "disk" between. facet is False once
    the kernel has raised at u = 0, which is then not scored again, True
    once it has not, and None before.
    """
    p, q, half = 0.5 * (c + s), 0.5 * (1.0 - s), 0.5 * (1.0 - c)
    top = 0.5 * half
    lo, hi = 0.0, top
    lo_seen = hi_seen = False
    while True:
        try:
            k = terms(p + u, q - u, half - u, u)
        except ZeroDivisionError:
            # at u = 0 the last term is present; elsewhere the kernel is at fault
            if u != 0.0:
                raise
            facet = False
            u = 0.5 * hi
            continue
        _, d1, d2, d3, d4, h1, h2, h3, h4 = k
        fu = d1 - d2 - d3 + d4
        if u == 0.0:
            facet = True
            if fu >= 0.0:
                return u, "facet", k, u, facet
        if u == top and fu <= 0.0:
            return u, "arc", k, u, facet
        if fu > 0.0:
            hi, hi_seen = u, True
        else:
            lo, lo_seen = u, True
        n = u - fu / (h1 + h2 + h3 + h4)
        if abs(n - u) <= U_TOL * u and (n == u or n < hi):
            return n, "disk", k, u, facet
        if n >= hi:
            if not hi_seen:
                u = top
                continue
            n = 0.5 * (lo + hi)
        elif n <= lo:
            if not lo_seen and facet is not False:
                u = 0.0
                continue
            # the step that solves F_u = A - B / u: Newton's share of u in log u
            n = u * u / (2.0 * u - n)
            if n <= lo:
                n = 0.5 * (lo + hi)
            if n == 0.0:
                # u is the least positive float
                return u, "disk", k, u, facet
        if abs(n - u) <= U_TOL * u:
            return n, "disk", k, u, facet
        u = n


def _slopes(c, s, piece, k, du):
    """G'(t), G''(t) and du/dt from the kernel's derivatives k at (t, u),
    where the u iteration's last step du is not yet scored."""
    _, d1, d2, d3, d4, h1, h2, h3, h4 = k
    # dw_k/dt at fixed u for k = 1, 2, 3; w4 = u
    a1, a2, a3 = 0.5 * (c - s), -0.5 * c, 0.5 * s
    ft = d1 * a1 + d2 * a2 + d3 * a3
    ftt = h1 * a1 * a1 + h2 * a2 * a2 + h3 * a3 * a3 - 0.5 * (c + s) * d1 + 0.5 * s * d2 + 0.5 * c * d3
    ftu = h1 * a1 - h2 * a2 - h3 * a3
    fuu = h1 + h2 + h3 + h4
    if piece == "disk":
        dudt = -ftu / fuu
        return ft + ftu * du, ftt + ftu * dudt, dudt
    if piece == "arc":
        fu, v = d1 - d2 - d3 + d4, 0.25 * s
        return ft + fu * v, ftt + 2.0 * ftu * v + fuu * v * v + 0.25 * c * fu, v
    return ft, ftt, 0.0


def _multipliers(c, s, piece, k):
    """The KKT multipliers of the piece's active constraints where the kernel gave k."""
    _, d1, d2, d3, d4 = k[:5]
    f1, f2, f3 = 0.25 * (d1 + d2 - d3 - d4), 0.25 * (d1 - d2 + d3 - d4), 0.25 * (-d1 + d2 + d3 - d4)
    if piece == "vertex":
        l12 = -(f1 + f2 + f3) / (2.0 * _SQRT_TWO)
        return l12, -f1 / _SQRT_TWO - l12, -f2 / _SQRT_TWO - l12
    if piece == "arc":
        return -f2 / (2.0 * s), f3 / (2.0 * s)
    if piece == "facet":
        return -4.0 * f3, -(f1 - f3) / (2.0 * c)
    return (-(c * f1 + s * f2) / 2.0,)


def minimize_over_local_set(terms) -> SolveReport:
    """Minimize a convex f = sum_k phi(e_k, w_k), e in descending order and
    nonlocal, over the local set (see the module docstring).

    ``terms(w1, w2, w3, w4)`` gives (f, phi_1'(w1), .., phi_4'(w4),
    phi_1''(w1), .., phi_4''(w4)); w4 may be 0, where it raises
    ZeroDivisionError if its term is present. The value is the objective at
    the returned weights.
    """
    max_iters = MAX_ITERS
    c = s = _SQRT_HALF
    u, piece, k, v, facet = _inner(terms, c, s, 0.25 * (1.0 - c), None)
    g, gg, dudt = _slopes(c, s, piece, k, u - v)
    iterations = 1
    stopped = g <= 0.0
    if stopped and piece == "arc":
        piece = "vertex"
    t = n = hi = 0.25 * math.pi
    lo = 0.0
    while not stopped and iterations < max_iters:
        n = t - g / gg if gg > 0.0 else math.inf
        if not lo < n < hi and abs(n - t) > T_TOL:
            n = 0.5 * (lo + hi)
        if abs(n - t) <= T_TOL:
            stopped = True
            break
        c, s = math.cos(n), math.sin(n)
        start = u + dudt * (n - t)
        if start <= 0.0:
            start = 0.0 if facet is not False else 0.5 * u
        t = n
        u, piece, k, v, facet = _inner(terms, c, s, min(start, 0.25 * (1.0 - c)), facet)
        g, gg, dudt = _slopes(c, s, piece, k, u - v)
        iterations += 1
        if g < 0.0:
            lo = t
        else:
            hi = t
    scored = (0.5 * (c + s) + v, 0.5 * (1.0 - s) - v, 0.5 * (1.0 - c) - v, v)
    if n != t:
        # the last step, too short to score: u follows it to first order, so
        # that the multipliers hold at the optimum, not a step away from it
        c, s = math.cos(n), math.sin(n)
        top = 0.25 * (1.0 - c)
        u = top if piece == "arc" else min(max(u + dudt * (n - t), 0.0), top)
    w = (0.5 * (c + s) + u, 0.5 * (1.0 - s) - u, 0.5 * (1.0 - c) - u, u)
    if w != scored:
        k = terms(*w)
    converged = stopped and iterations < max_iters and min(_multipliers(c, s, piece, k)) >= 0.0
    return SolveReport(x=w, value=k[0], iterations=iterations, converged=converged, pairs=_PAIRS[piece])
