"""Nonlocality measures: minimal distance from a state to the local set.

For Werner and isotropic inputs the minimizing local state stays inside the
family, which reduces every measure to a one-parameter evaluation at the
family's locality threshold. A general Bell-diagonal state is measured in
the symmetry chamber of its Bell weights (nlgeo.solver): exactly by the
chamber solve for the Hilbert-Schmidt, Hellinger and relative-entropy
measures, and in closed form for the trace measure. The Bures measure
reuses the Hellinger solve: Bell-diagonal states commute, and on commuting
states the two squared distances are equal.

Hellinger and Bures measures are reported as squared distances; relative
entropy is in bits. A local input yields exactly 0.0, and every value is a
Python float.

Everything here works on Python floats and tuples. The Werner and isotropic
closed forms over whole arrays of parameters are numpy code, in nlgeo.arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NotConverged, OutOfRange
from .kinds import DistanceKind, known_kind
from .locality import BOUNDARY_TOL, _chsh_local, bd_is_chsh_local, bell_chamber, cglmp_threshold, from_chamber
from .qstate import (
    BELL_CORNERS, BellDiagonal, IsotropicParam, WernerParam, _correlators, _float, _shown, _weights, whole_number,
)
from . import solver

# a Werner state is the d = 2 isotropic state, local up to the CHSH value 1/sqrt(2)
WERNER_THRESHOLD = cglmp_threshold(2).omega_threshold
# a weight at most this adds nothing to a relative entropy (0 log 0 = 0)
ZERO_WEIGHT = 1e-15

_LN2 = math.log(2.0)
# the vertex (1, 1, 1)/sqrt 2 of the three cylinders, a point of the local set
_VERTEX = 1.0 / math.sqrt(2.0)


class MeasureResult(namedtuple("MeasureResult", "kind value closest_local method surface iterations converged",
                               defaults=(None, 0, True))):
    """A computed measure together with its minimizer and solve diagnostics.

    value is the measure itself (squared distance for Hellinger and Bures),
    closest_local identifies the minimizing local state, method is one of
    closed_form, lagrange_case (the HS and trace measures of a nonlocal
    Bell-diagonal state) and numeric (its other kinds), and surface names
    the active boundary piece (locality.surface_name). iterations counts the
    chamber solve's angle steps (none for trace), and converged is its KKT
    certificate; they default to no surface, no iterations, converged.
    """

    __slots__ = ()


def _closed_form(kind: DistanceKind, value: float, closest: object) -> MeasureResult:
    return MeasureResult(kind, value, closest, "closed_form")


def _nonneg(x: float) -> float:
    return max(x, 0.0)


def _xlog2(x: float, ref: float) -> float:
    """x log2(x / ref), where a weight x <= ZERO_WEIGHT contributes nothing."""
    return x * math.log2(x / ref) if x > ZERO_WEIGHT else 0.0


def spectral_formula(
    kind: DistanceKind, d: int, t: float, omega, sqrt=math.sqrt, nonneg=_nonneg, xlog2=_xlog2
):
    """Measure of the nonlocal state with spectrum ((d^2 - 1) omega + 1)/d^2
    once and (1 - omega)/d^2 d^2 - 1 times against the state of the same
    family at t < omega.

    Both states are diagonal in one basis, so each distance is a classical one
    between the two spectra. omega is a float, or an array of weights with
    elementwise sqrt, nonneg (max with 0) and xlog2 passed in (nlgeo.arrays),
    so both evaluate this one expression, with the same roundings.
    """
    known_kind(kind)
    d2 = float(d * d)
    if kind is DistanceKind.HS:
        return math.sqrt(1.0 - 1.0 / d2) * (omega - t)
    if kind is DistanceKind.TRACE:
        return (d2 - 1.0) / d2 * (omega - t)
    big, big_t = ((d2 - 1.0) * omega + 1.0) / d2, ((d2 - 1.0) * t + 1.0) / d2
    # 1 - omega is clipped at 0 for the rounding slack the parameters admit above 1
    small, small_t = nonneg(1.0 - omega) / d2, (1.0 - t) / d2
    if kind in (DistanceKind.HELLINGER, DistanceKind.BURES):
        return 2.0 - 2.0 * (sqrt(big * big_t) + (d2 - 1.0) * sqrt(small * small_t))
    # relative entropy, as known_kind admits no other kind; xlog2 is
    # math.log2 per element (numpy's log2 kernel can differ in the last bit)
    return nonneg(xlog2(big, big_t) + (d2 - 1.0) * xlog2(small, small_t))


def _family_measure(kind: DistanceKind, d: int, param, t: float) -> MeasureResult:
    """Measure of the family state of the checked record param, whose last field
    is its weight, in dimension d: 0.0 when local (<= t), else spectral_formula at t."""
    known_kind(kind)
    omega = param[-1]
    if omega <= t + BOUNDARY_TOL:
        return _closed_form(kind, 0.0, param)
    return _closed_form(kind, spectral_formula(kind, d, t, omega), param._make((*param[:-1], t)))


def werner_measure(kind: DistanceKind, w: float) -> MeasureResult:
    """Measure of the Werner state with parameter w, in closed form.

    A Werner state is the d = 2 isotropic state up to a local unitary, so this
    is isotropic_measure(kind, 2, w) bit for bit, recorded as WernerParam:
    the closest local state is at the CHSH threshold 1/sqrt(2), or is the
    input when local (value 0.0). An invalid w or kind raises OutOfRange.
    """
    return _family_measure(kind, 2, WernerParam(_float(w, "Werner parameter")), WERNER_THRESHOLD)


def werner_max(kind: DistanceKind) -> float:
    """Largest Werner measure, attained at w = 1; used as the normalization."""
    return werner_measure(kind, 1.0).value


def isotropic_measure(kind: DistanceKind, d: int, omega: float) -> MeasureResult:
    """Measure of the d-dimensional isotropic state with weight omega, in closed form.

    The closest local state is the isotropic state at the CGLMP threshold
    t = 2/I_d, or the input itself when it is local (value exactly 0.0). Both
    states are diagonal in {|phi+>} and its complement, so spectral_formula
    applies. An invalid weight or kind raises OutOfRange.
    """
    param = IsotropicParam(d=d, omega=_float(omega, "omega"))
    return _family_measure(kind, param.d, param, cglmp_threshold(param.d).omega_threshold)


def _euclidean_terms(e):
    """The kernel of sum_k (w_k - e_k)^2, a quarter of the squared distance
    between the correlators: the square root of its minimum is the
    Hilbert-Schmidt measure. It is finite everywhere."""
    e0, e1, e2, e3 = e

    def terms(w0, w1, w2, w3):
        d0, d1, d2, d3 = w0 - e0, w1 - e1, w2 - e2, w3 - e3
        f = d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
        return f, 2.0 * d0, 2.0 * d1, 2.0 * d2, 2.0 * d3, 2.0, 2.0, 2.0, 2.0

    return terms, True


def _hellinger_terms(e):
    """The kernel of the squared Hellinger distance 2 - 2 sum_k sqrt(e_k w_k),
    finite at w4 = 0 when e4's term is absent."""
    s0, s1, s2, s3 = (math.sqrt(max(ek, 0.0)) for ek in e)

    def terms(w0, w1, w2, w3):
        q0 = math.sqrt(w0)
        q1 = math.sqrt(w1)
        q2 = math.sqrt(w2)
        q3 = math.sqrt(w3)
        r0 = s0 / q0
        r1 = s1 / q1
        r2 = s2 / q2
        r3 = s3 / q3 if s3 else 0.0
        return (
            max(2.0 - 2.0 * (s0 * q0 + s1 * q1 + s2 * q2 + s3 * q3), 0.0),
            -r0, -r1, -r2, -r3,
            0.5 * r0 / w0, 0.5 * r1 / w1, 0.5 * r2 / w2, 0.5 * r3 / w3 if s3 else 0.0,
        )

    return terms, not s3


def _entropy_terms(e):
    """The kernel of the relative entropy sum_k e_k log2(e_k / w_k) in bits,
    where a weight e_k <= ZERO_WEIGHT contributes nothing (0 log 0 = 0), so that
    it is finite at w4 = 0 when e4 is such a weight."""
    e0, e1, e2, e3 = e

    def terms(w0, w1, w2, w3):
        f = q0 = q1 = q2 = q3 = 0.0
        if e0 > ZERO_WEIGHT:
            f += e0 * math.log2(e0 / w0)
            q0 = e0 / (w0 * _LN2)
        if e1 > ZERO_WEIGHT:
            f += e1 * math.log2(e1 / w1)
            q1 = e1 / (w1 * _LN2)
        if e2 > ZERO_WEIGHT:
            f += e2 * math.log2(e2 / w2)
            q2 = e2 / (w2 * _LN2)
        if e3 > ZERO_WEIGHT:
            f += e3 * math.log2(e3 / w3)
            q3 = e3 / (w3 * _LN2)
        return f, -q0, -q1, -q2, -q3, q0 / w0, q1 / w1, q2 / w2, q3 / w3 if q3 else 0.0

    return terms, not e3 > ZERO_WEIGHT


# The chamber solve's kernels (nlgeo.solver), each built from a fixed
# state's Bell weights e in descending order (locality.bell_chamber), the
# k-th variable weight paired with e[k]: kernel(e) is (terms, facet), facet
# saying whether terms is finite at w4 = 0. Each terms is written out per
# weight, as a solve calls it about 9 times. The trace measure is a closed
# form. Bures equals Hellinger on commuting states, so it has Hellinger's
# kernel, and kinds with one kernel share one solve (per_kind).
KERNELS = {
    DistanceKind.HS: _euclidean_terms,
    DistanceKind.HELLINGER: _hellinger_terms,
    DistanceKind.BURES: _hellinger_terms,
    DistanceKind.RELATIVE_ENTROPY: _entropy_terms,
}
# The kinds with a solve of their own in bd_measure_numeric, the he/bu/re
# entry that validate calls by name: Bures solves as Hellinger
OBJECTIVE_KINDS = (DistanceKind.HELLINGER, DistanceKind.RELATIVE_ENTROPY)


def _trace_distance(x, b) -> float:
    """Trace distance (1/2) max(||x - b||_inf, ||x - b||_1 / 2) between the
    Bell-diagonal states with correlators x and b."""
    d = [abs(xi - bi) for xi, bi in zip(x, b)]
    return 0.5 * max(max(d), 0.5 * sum(d))


def _trace_in_chamber(b1: float, b2: float, b3: float):
    """Trace-nearest local point to b1 >= b2 >= b3 >= 0, with b1^2 + b2^2 > 1.

    For Bell-diagonal states with correlators x and a, (1/2) sum_k |w_k - e_k|
    equals (1/2) max(||x - a||_inf, ||x - a||_1 / 2), so the trace measure is
    the distance from a to the local set in that norm, which sign flips leave
    unchanged. _solve passes the correlators (x1, x2, |x3|) of the
    chamber of a's Bell weights (x1 >= x2 >= |x3|, nlgeo.solver) and puts
    x3's sign back on the point, which is the nearest of three candidates,
    each taken where it is feasible:
    - the ray from b along the vertex -(1, 1, 0) of the norm's unit ball (a
      cuboctahedron) onto the cylinder (1, 2): (b1 - r)^2 + (b2 - r)^2 = 1,
      solved without cancellation. It is optimal for that cylinder alone, so
      it wins whenever it also meets the cylinder (1, 3);
    - the kink of the arc (cos t, sin t, sin t), 0 <= t <= pi/4, of the
      cylinders (1, 2) and (1, 3), where the dual vertices -e1 and
      -(1, 1, 1)/2 are both active: 2 sin t - cos t = b2 + b3 - b1. The b_k
      of a physical state are at most 1 + 8e-12, so |b2 + b3 - b1| <= b1
      and asin's argument is below 0.45, in its domain;
    - the vertex (1, 1, 1)/sqrt 2 of the three cylinders.
    That no facet of the tetrahedron is active is checked, not derived: the
    tests compare this with the minimum over every boundary candidate. x3's
    sign is kept, not assumed: x3 < 0 for almost every nonlocal input, but
    a weight in [-1e-12, 0), which physical_probs admits, with a pair sum
    within about 1e-11 of 1 gives x3 up to about 3.5e-12.
    """
    b = (b1, b2, b3)
    r = (b1 * b1 + b2 * b2 - 1.0) / (b1 + b2 + math.sqrt(2.0 - (b1 - b2) ** 2))
    if (b1 - r) ** 2 + b3 * b3 <= 1.0 + BOUNDARY_TOL:
        return (b1 - r, b2 - r, b3), ((0, 1),), 0.5 * r
    vertex = (_VERTEX,) * 3
    candidates = [(vertex, solver.DISK_PAIRS, _trace_distance(vertex, b))]
    t = math.atan(0.5) + math.asin((b2 + b3 - b1) / math.sqrt(5.0))
    if 0.0 <= t <= 0.25 * math.pi:
        kink = (math.cos(t), math.sin(t), math.sin(t))
        candidates.append((kink, ((0, 1), (0, 2)), _trace_distance(kink, b)))
    return min(candidates, key=lambda c: c[2])


def _solve(kind: DistanceKind, e):
    """(value, w, pairs, steps, converged) of kind at the nonlocal state of Bell
    weights e in descending order (locality.bell_chamber): the trace closed form or
    the chamber solve of KERNELS[kind] (its square root for HS), ending at weights
    w on the chamber's cylinder pairs. _in_chamber, bd_grid and bd_sweep all value
    a nonlocal Bell-diagonal state here."""
    x1, x2, x3 = _correlators(e)
    if kind is DistanceKind.TRACE:
        (p1, p2, p3), pairs, value = _trace_in_chamber(x1, x2, abs(x3))
        return value, _weights((p1, p2, math.copysign(p3, x3))), pairs, 0, True
    # the HS minimizer on the cylinder (1, 2) is at the input's own angle,
    # and the he and re minimizers lie near it
    w, value, steps, converged, pairs = solver.minimize_over_local_set(*KERNELS[kind](e), math.atan2(x2, x1))
    return (math.sqrt(value) if kind is DistanceKind.HS else value), w, pairs, steps, converged


def _in_chamber(kind: DistanceKind, state: BellDiagonal) -> MeasureResult:
    """Measure of kind of a checked state (BellDiagonal.from_corr), the public
    entries' path: 0.0 at the state itself when local, else _solve's in the
    chamber of its Bell weights, mapped back by locality.from_chamber."""
    if bd_is_chsh_local(state):
        return _closed_form(kind, 0.0, state)
    e, order = bell_chamber(state.e)
    value, w, pairs, steps, converged = _solve(kind, e)
    method = "lagrange_case" if kind is DistanceKind.HS or kind is DistanceKind.TRACE else "numeric"
    closest, surface = from_chamber(order, w, pairs)
    return MeasureResult(kind, value, closest, method, surface, steps, converged)


def bd_measure_numeric(kind: DistanceKind, a) -> MeasureResult:
    """The Hellinger, Bures and relative-entropy entry of bd_measure, which
    nlgeo.validation calls by name.

    One exact solve of the kind's kernel (KERNELS) in the symmetry chamber of a's
    Bell weights (solver.minimize_over_local_set): its value sits at the
    optimum to within rounding, at the closest local state's weights, on the
    boundary of the local set. converged is the solve's KKT certificate.
    Bures has Hellinger's kernel, as the two are equal on commuting states.
    HS and trace raise OutOfRange (they are exact, through bd_measure).
    """
    if known_kind(kind) in (DistanceKind.HS, DistanceKind.TRACE):
        raise OutOfRange(f"{kind.value} is exact; use bd_measure")
    return _in_chamber(kind, BellDiagonal.from_corr(a))


def per_kind(kinds, solve):
    """Yield solve(k) for each kind k, with one call for the kinds that share
    an entry of KERNELS: Bures and Hellinger, whose Werner and isotropic
    closed forms and Werner maximum are one formula too. Each call runs when
    its item is taken, so a caller can time it."""
    done = {}
    for k in kinds:
        shared = KERNELS.get(k, k)
        if shared not in done:
            done[shared] = solve(k)
        yield done[shared]


def bd_measure(kind: DistanceKind, a) -> MeasureResult:
    """Measure of kind of the Bell-diagonal state with correlators a, for
    every kind: HS and trace exactly in the chamber (the chamber solve of
    KERNELS[HS], the closed form _trace_in_chamber), the others through
    bd_measure_numeric. For HS, closest_local.a is the Euclidean projection
    of a onto the local set, at distance twice the value."""
    if kind is DistanceKind.HS or kind is DistanceKind.TRACE:
        return _in_chamber(kind, BellDiagonal.from_corr(a))
    return bd_measure_numeric(kind, a)


def two_bell_mix_corr(p: float) -> tuple[float, float, float]:
    """Correlators (2p - 1, -(2p - 1), 1) of the mix of two Bell states."""
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"mixing weight {_shown(p)} outside [0, 1]")
    q = 2.0 * float(p) - 1.0
    return (q, -q, 1.0)


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from start to stop, rounded as numpy.linspace
    rounds them: i * step + start, and stop itself last."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


def bd_sweep(kind: DistanceKind, family: str, n_points: int) -> list[tuple[float, float]]:
    """Normalized measure along a one-parameter Bell-diagonal family.

    family "two_bell_mix" sweeps p in [1/2, 1] over a = (2p-1, -(2p-1), 1);
    family "werner_line" sweeps w in [1/sqrt 2, 1] along the singlet corner.
    Values are divided by the Werner maximum of the same kind, so every sweep
    ends at 1 at the maximally nonlocal endpoint, to within rounding (a few
    ulps above: the local set's vertex is one ulp below WERNER_THRESHOLD).
    A local point reads 0.0 from the locality test, a nonlocal one _solve's
    value alone. Returns a list of (parameter, normalized value) rows; an
    unconverged solve raises NotConverged naming its point.
    """
    n_points = whole_number(n_points, 2, "n_points")
    norm = werner_max(kind)
    if family == "two_bell_mix":
        params = _linspace(0.5, 1.0, n_points)
        corr = [two_bell_mix_corr(p) for p in params]
    elif family == "werner_line":
        params = _linspace(WERNER_THRESHOLD, 1.0, n_points)
        corr = [tuple(w * c for c in BELL_CORNERS[3]) for w in params]
    else:
        raise OutOfRange(f"unknown family {family!r}")
    rows = []
    for p, a in zip(params, corr):
        value, *_, converged = (0.0, True) if _chsh_local(a) else _solve(kind, sorted(_weights(a), reverse=True))
        if not converged:
            raise NotConverged(f"{kind.value} solve at {family} parameter {p!r} did not converge")
        rows.append((p, value / norm))
    return rows


def bd_grid(kind: DistanceKind, grid_n: int) -> list[tuple[float, float, float]]:
    """Normalized measure over the facet e4 = 0 of the tetrahedron.

    The slice is sampled at steps of 1/grid_n in (e1, e2) with
    e3 = 1 - e1 - e2, keeping only physical nodes, in row-major order. Every
    measure is invariant under permuting the Bell weights, so each symmetry
    class of nodes, an integer triple lo <= mid <= hi summing to grid_n, is
    tested once, at the node of weights (lo, mid, hi) over grid_n: a local
    class reads 0.0 from the locality test, and a nonlocal one is solved
    once by _solve, whose value alone is kept (no closest state is built)
    and written to the class's permuted cells of a triangular table, from
    which the rows are read. The classes are solved in the row-major order
    of their first nodes (lo, mid), so an unconverged solve raises
    NotConverged naming the first row of its class. i/grid_n is correctly
    rounded, so a node shared by two grid sizes gets the same value in
    both; the grid_n + 1 fractions are computed once.

    A row of classes (fixed lo) ends at its first local class. The class's
    correlators are 1 - 2hi/n, 1 - 2mid/n and 1 - 2lo/n (n = grid_n), whose
    two largest magnitudes are the last two, as lo <= mid <= hi. So it is
    nonlocal iff (1 - 2lo/n)^2 + (1 - 2mid/n)^2 > 1, and that sum falls as
    mid grows to n/2: the nonlocal classes of a row come first. The exact
    sum is 1 + k/n^2 for an integer k, and the float one is within a few
    ulps of it, so the locality test (BOUNDARY_TOL = 1e-12) decides as the
    exact sum does while 1/n^2 is well above 1e-12, for n below about 10^6,
    where the table would hold 5 x 10^11 cells.
    """
    grid_n = whole_number(grid_n, 1, "grid_n")
    norm = werner_max(kind)
    frac = [i / grid_n for i in range(grid_n + 1)]
    value = [[0.0] * (grid_n + 1 - i) for i in range(grid_n + 1)]
    for lo in range(grid_n // 3 + 1):
        for mid in range(lo, (grid_n - lo) // 2 + 1):
            hi = grid_n - lo - mid
            e = [frac[lo], frac[mid], frac[hi], 0.0]
            a = _correlators(e)
            if _chsh_local(a):
                break  # its cells and the rest of the row's keep the table's 0.0
            v, *_, converged = _solve(kind, sorted(_weights(a), reverse=True))
            if not converged:
                raise NotConverged(f"{kind.value} solve at e = {e} did not converge")
            value[lo][mid] = value[lo][hi] = value[mid][lo] = value[mid][hi] = value[hi][lo] = value[hi][mid] = v / norm
    return [(fi, fj, v) for fi, row in zip(frac, value) for fj, v in zip(frac, row)]
