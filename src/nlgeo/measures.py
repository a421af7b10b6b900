"""Nonlocality measures: minimal distance from a state to the local set.

For Werner and isotropic inputs the minimizing local state stays inside the
family, which reduces every measure to a one-parameter evaluation at the
family's locality threshold. For general Bell-diagonal states the
Hilbert-Schmidt measure is half the distance to the exact Euclidean
projection onto the CHSH-local region, and the trace measure is the exact
distance to that region in a polyhedral norm; both are found in one symmetry
chamber. The Hellinger and relative-entropy measures are minimized over the
region by one log-barrier Newton solve. The Bures measure reuses the
Hellinger solve: Bell-diagonal states commute, and on commuting states the
two squared distances are equal.

Hellinger and Bures measures are reported as squared distances; relative
entropy is in bits. A local input yields exactly 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, OutOfRange
from .locality import (
    BOUNDARY_TOL,
    DISK_PAIRS,
    LocalProjection,
    bd_is_chsh_local,
    cglmp_threshold,
    nearest_in_chamber,
    project_local,
    surface_name,
)
from .metrics import DistanceKind
from .qstate import (
    BELL_CORNERS,
    BellDiagonal,
    IsotropicParam,
    WernerParam,
    bd_corr_to_probs,
    bd_probs_to_corr,
)
from . import solver

WERNER_THRESHOLD = 1.0 / math.sqrt(2.0)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class MeasureResult:
    """A computed measure together with its minimizer and solve diagnostics.

    value is the measure itself (squared distance for Hellinger and Bures),
    closest_local identifies the minimizing local state, method is one of
    closed_form, lagrange_case (the exact HS and trace measures of a
    Bell-diagonal state) and numeric, and
    surface names the active boundary piece (locality.surface_name) when one
    is identified. The diagnostics default to those of an exact result: no
    iterations, converged.
    """

    kind: DistanceKind
    value: float
    closest_local: object
    method: str
    surface: str | None = None
    iterations: int = 0
    converged: bool = True


def _closed_form(kind: DistanceKind, value: float, closest: object) -> MeasureResult:
    return MeasureResult(kind, value, closest, "closed_form")


def _spectral_values(kind: DistanceKind, d: int, t: float, omega: np.ndarray) -> np.ndarray:
    """Measure of the states with spectrum ((d^2 - 1) omega + 1)/d^2 once and
    (1 - omega)/d^2 d^2 - 1 times against the state of the same family at t.

    Both states are diagonal in one basis, so each distance is a classical one
    between the two spectra. Local entries (omega <= t) give exactly 0.0.
    """
    d2 = float(d * d)
    out = np.zeros(omega.shape)
    is_nonlocal = omega > t + BOUNDARY_TOL
    omega = omega[is_nonlocal]
    if kind is DistanceKind.HS:
        value = math.sqrt(1.0 - 1.0 / d2) * (omega - t)
    elif kind is DistanceKind.TRACE:
        value = (d2 - 1.0) / d2 * (omega - t)
    else:
        big, big_t = ((d2 - 1.0) * omega + 1.0) / d2, ((d2 - 1.0) * t + 1.0) / d2
        # 1 - omega is clipped at 0 for the rounding slack the parameters admit above 1
        small, small_t = np.maximum(1.0 - omega, 0.0) / d2, (1.0 - t) / d2
        if kind in (DistanceKind.HELLINGER, DistanceKind.BURES):
            value = 2.0 - 2.0 * (np.sqrt(big * big_t) + (d2 - 1.0) * np.sqrt(small * small_t))
        else:
            # math.log2 per element (numpy's log2 kernel can differ in the last
            # bit); a weight <= 1e-15 contributes nothing (0 log 0 = 0)
            small_term = np.zeros(omega.shape)
            keep = small > 1e-15
            small_term[keep] = small[keep] * _log2(small[keep] / small_t)
            value = np.maximum(big * _log2(big / big_t) + (d2 - 1.0) * small_term, 0.0)
    out[is_nonlocal] = value
    return out


def _log2(x: np.ndarray) -> np.ndarray:
    """Elementwise math.log2."""
    return np.fromiter(map(math.log2, x.tolist()), dtype=float, count=x.size)


def _checked(param, w) -> np.ndarray:
    """w as a float array after checking its extremes with param.

    The admissible range is an interval, so checking the extremes checks every
    entry (a nan becomes both extremes and fails).
    """
    w = np.asarray(w, dtype=float)
    if w.size:
        param(float(w.min()))
        param(float(w.max()))
    return w


def werner_values(kind: DistanceKind, w) -> np.ndarray:
    """Measure of the Werner states with parameters w (an array), in closed form.

    A Werner state is the d = 2 isotropic state up to a local unitary, and its
    closest local state is the Werner state at the CHSH threshold 1/sqrt(2) for
    every kind; local entries (w <= 1/sqrt(2)) give exactly 0.0. Every entry
    must be a valid Werner parameter, or OutOfRange is raised.
    """
    return _spectral_values(kind, 2, WERNER_THRESHOLD, _checked(WernerParam, w))


def werner_measure(kind: DistanceKind, w: float) -> MeasureResult:
    """Measure of the Werner state with parameter w: werner_values at one point.

    The closest local state is the Werner state at 1/sqrt(2), or the input
    itself when it is local.
    """
    value = float(werner_values(kind, [w])[0])
    is_local = w <= WERNER_THRESHOLD + BOUNDARY_TOL
    return _closed_form(kind, value, WernerParam(w if is_local else WERNER_THRESHOLD))


def werner_max(kind: DistanceKind) -> float:
    """Largest Werner measure, attained at w = 1; used as the normalization."""
    return werner_measure(kind, 1.0).value


def isotropic_values(kind: DistanceKind, d: int, omega) -> np.ndarray:
    """Measure of the d-dimensional isotropic states with weights omega (an array).

    The closest local state is the isotropic state at the CGLMP threshold
    t = 2/I_d. Both states are diagonal in {|phi+>} and its complement, so
    _spectral_values applies. Local entries (omega <= t) give exactly 0.0; an
    invalid weight raises OutOfRange.
    """
    omega = _checked(lambda om: IsotropicParam(d=d, omega=om), omega)
    return _spectral_values(kind, d, cglmp_threshold(d).omega_threshold, omega)


def isotropic_measure(kind: DistanceKind, d: int, omega: float) -> MeasureResult:
    """Measure of the d-dimensional isotropic state: isotropic_values at one point.

    The closest local state is the isotropic state at the CGLMP threshold, or
    the input itself when it is local.
    """
    value = float(isotropic_values(kind, d, [omega])[0])
    thr = cglmp_threshold(d).omega_threshold
    is_local = omega <= thr + BOUNDARY_TOL
    return _closed_form(kind, value, IsotropicParam(d=d, omega=omega if is_local else thr))


def isotropic_reference_formula(kind: DistanceKind, d: int, omega):
    """Commonly quoted closed forms for the isotropic measures, verbatim.

    A cross-check against isotropic_values. They agree for HS only; the
    consistency flag downstream shows the other mismatches, whose causes are:
    * trace: exactly twice the value, from the full norm ||rho - sigma||_1
      where the measure is (1/2) ||rho - sigma||_1;
    * Hellinger: the prefactor is 2/d where the spectra give 2/d^2;
    * relative entropy: wrong signs and weights, and -inf at omega = 1.
    Bures has no quoted form, so it returns None. omega is a weight or an
    array of weights, range-checked as in isotropic_values; a float comes
    back for a scalar.
    """
    weights = _checked(lambda om: IsotropicParam(d=d, omega=om), omega)
    if kind is DistanceKind.BURES:
        return None
    thr = cglmp_threshold(d).omega_threshold
    d2 = float(d * d)
    out = np.zeros(weights.shape)
    is_nonlocal = weights > thr + BOUNDARY_TOL
    om = weights[is_nonlocal]
    # 1 - omega is clipped at 0 for the rounding slack IsotropicParam admits above 1
    one_minus = np.maximum(1.0 - om, 0.0)
    if kind is DistanceKind.HS:
        value = math.sqrt(1.0 - 1.0 / d2) * (om - thr)
    elif kind is DistanceKind.TRACE:
        value = 2.0 * (d2 - 1.0) / d2 * (om - thr)
    elif kind is DistanceKind.HELLINGER:
        value = 2.0 - (2.0 / d) * (
            (d2 - 1.0) * np.sqrt(one_minus * (1.0 - thr))
            + np.sqrt(((d2 - 1.0) * om + 1.0) * ((d2 - 1.0) * thr + 1.0))
        )
    else:
        p_omega = ((d2 - 1.0) * om + 1.0) / d2
        p_thr = ((d2 - 1.0) * thr + 1.0) / d2
        with np.errstate(divide="ignore"):
            value = (
                p_omega * np.log2(p_omega)
                + (d2 - 1.0) / d2 * np.log2(one_minus / d2)
                + p_thr * np.log2(p_thr)
                + (d2 - 1.0) / d2 * np.log2((1.0 - thr) / d2)
            )
    out[is_nonlocal] = value
    return float(out) if np.ndim(omega) == 0 else out


_FORMULA_TOL = 1e-9


def formula_agrees(value, reference):
    """Whether a quoted closed form matches the value, entry by entry.

    Finite entries agree within a relative _FORMULA_TOL, infinite ones only
    when equal. None when there is no quoted form; a bool for scalars.
    """
    if reference is None:
        return None
    value, ref = np.asarray(value, dtype=float), np.asarray(reference, dtype=float)
    with np.errstate(invalid="ignore"):
        close = np.abs(value - ref) <= _FORMULA_TOL * np.maximum(1.0, np.abs(value))
    agrees = np.where(np.isinf(ref) | np.isinf(value), ref == value, close)
    return bool(agrees) if agrees.ndim == 0 else agrees


# The kinds with a numeric objective. HS and trace are exact (bd_measure_hs,
# bd_measure_trace), and Bures equals Hellinger on commuting states, so none
# of them has an objective of its own.
OBJECTIVE_KINDS = (DistanceKind.HELLINGER, DistanceKind.RELATIVE_ENTROPY)


class BdObjective:
    """Distance objective between a fixed Bell-diagonal state and a variable
    one, as a sum of one term per Bell weight of the variable state.

    value(w) is the objective at the weights w, and derivatives(w), at
    positive weights, each term's first and second derivative in its weight:
    the pair that solver.minimize_over_local_set takes, picked for the kind
    at construction. value_at and gradient_at are the same in correlator
    coordinates x. The minimized quantity is the squared Hellinger distance
    or the relative entropy in bits; any other kind raises OutOfRange.
    """

    def __init__(self, kind: DistanceKind, a: np.ndarray):
        if kind not in OBJECTIVE_KINDS:
            raise OutOfRange(f"no numeric objective for kind {kind.value!r}")
        self._e = tuple(float(ei) for ei in bd_corr_to_probs(np.asarray(a, dtype=float)))
        self._sqrt_e = tuple(math.sqrt(max(ei, 0.0)) for ei in self._e)
        self.value, self.derivatives = {
            DistanceKind.HELLINGER: (self._hellinger, self._hellinger_derivatives),
            DistanceKind.RELATIVE_ENTROPY: (self._relative_entropy, self._relative_entropy_derivatives),
        }[kind]

    def value_at(self, x) -> float:
        return self.value(solver.probs(x))

    def gradient_at(self, x) -> tuple[float, float, float]:
        return solver.weights_gradient(self.derivatives(solver.probs(x))[0])

    def _hellinger(self, w):
        s = 0.0
        for si, wk in zip(self._sqrt_e, w):
            if wk > 0.0:
                s += si * math.sqrt(wk)
        return max(2.0 - 2.0 * s, 0.0)

    def _hellinger_derivatives(self, w):
        d, h = [], []
        for si, wk in zip(self._sqrt_e, w):
            r = si / math.sqrt(wk)
            d.append(-r)
            h.append(0.5 * r / wk)
        return d, h

    def _relative_entropy(self, w):
        total = 0.0
        for ek, wk in zip(self._e, w):
            # a weight <= 1e-15 contributes nothing (0 log 0 = 0)
            if ek > 1e-15:
                if wk <= 0.0:
                    return math.inf
                total += ek * math.log2(ek / wk)
        return total

    def _relative_entropy_derivatives(self, w):
        d, h = [], []
        for ek, wk in zip(self._e, w):
            q = ek / (wk * _LN2) if ek > 1e-15 else 0.0
            d.append(-q)
            h.append(q / wk)
        return d, h


def _lagrange_case(kind: DistanceKind, value: float, proj: LocalProjection) -> MeasureResult:
    closest = BellDiagonal.from_corr(proj.point)
    return MeasureResult(kind, value, closest, "lagrange_case", proj.surface)


def bd_measure_hs(a) -> MeasureResult:
    """Hilbert-Schmidt measure of a Bell-diagonal state.

    Half the Euclidean distance from the correlators a to the local set, from
    the exact projection (locality.project_local); surface names the active
    boundary piece of the closest local state.
    """
    proj = project_local(a)
    if proj.surface is None:
        return _closed_form(DistanceKind.HS, 0.0, BellDiagonal.from_corr(a))
    return _lagrange_case(DistanceKind.HS, 0.5 * proj.distance, proj)


def _trace_distance(x, b) -> float:
    """Trace distance (1/2) max(||x - b||_inf, ||x - b||_1 / 2) between the
    Bell-diagonal states with correlators x and b."""
    d = [abs(xi - bi) for xi, bi in zip(x, b)]
    return 0.5 * max(max(d), 0.5 * sum(d))


def _trace_in_chamber(b1: float, b2: float, b3: float):
    """Trace-nearest local point to b1 >= b2 >= b3 >= 0, with b1^2 + b2^2 > 1.

    The smallest of three candidates, each taken where it is feasible:
    - the ray from b along the vertex -(1, 1, 0) of the norm's unit ball (a
      cuboctahedron) onto the cylinder (1, 2): (b1 - r)^2 + (b2 - r)^2 = 1,
      solved without cancellation. It is optimal for that cylinder alone, so
      it wins whenever it also meets the cylinder (1, 3);
    - the kink of the arc (cos t, sin t, sin t), 0 <= t <= pi/4, of the
      cylinders (1, 2) and (1, 3), where the dual vertices -e1 and
      -(1, 1, 1)/2 are both active: 2 sin t - cos t = b2 + b3 - b1;
    - the vertex (1, 1, 1)/sqrt 2 of the three cylinders.
    That no facet of the tetrahedron is active is checked, not derived: the
    tests compare this with the minimum over every boundary candidate.
    """
    b = (b1, b2, b3)
    r = (b1 * b1 + b2 * b2 - 1.0) / (b1 + b2 + math.sqrt(2.0 - (b1 - b2) ** 2))
    if (b1 - r) ** 2 + b3 * b3 <= 1.0 + BOUNDARY_TOL:
        return (b1 - r, b2 - r, b3), ((0, 1),), 0.5 * r
    vertex = (1.0 / math.sqrt(2.0),) * 3
    candidates = [(vertex, DISK_PAIRS, _trace_distance(vertex, b))]
    s = (b2 + b3 - b1) / math.sqrt(5.0)
    if -1.0 <= s <= 1.0:
        t = math.atan(0.5) + math.asin(s)
        if 0.0 <= t <= 0.25 * math.pi:
            kink = (math.cos(t), math.sin(t), math.sin(t))
            candidates.append((kink, ((0, 1), (0, 2)), _trace_distance(kink, b)))
    return min(candidates, key=lambda c: c[2])


def bd_measure_trace(a) -> MeasureResult:
    """Trace measure of a Bell-diagonal state, exactly.

    For Bell-diagonal states with correlators x and a, (1/2) sum_k |w_k - e_k|
    equals (1/2) max(||x - a||_inf, ||x - a||_1 / 2), so the measure is the
    distance from a to the local set in that norm. It is found in the
    symmetry chamber of a (locality.nearest_in_chamber, _trace_in_chamber);
    surface names the active boundary piece of the closest local state.
    """
    a = np.asarray(a, dtype=float)
    if bd_is_chsh_local(a):
        return _closed_form(DistanceKind.TRACE, 0.0, BellDiagonal.from_corr(a))
    proj = nearest_in_chamber(a, _trace_in_chamber)
    return _lagrange_case(DistanceKind.TRACE, proj.distance, proj)


def bd_measure_numeric(kind: DistanceKind, a) -> MeasureResult:
    """Measure of a Bell-diagonal state by constrained minimization.

    One log-barrier Newton solve over the local set from the maximally mixed
    state (solver.minimize_over_local_set); its value is within the solver's
    GAP of the optimum, and is scored at the returned point, which lies
    strictly inside the local set.

    Solves the Hellinger and relative-entropy kinds. Bures equals Hellinger
    on commuting states, so a Bures request gets the Hellinger solve under
    its own kind. HS and trace raise OutOfRange: they are exact,
    bd_measure_hs and bd_measure_trace.
    """
    if kind in (DistanceKind.HS, DistanceKind.TRACE):
        raise OutOfRange(f"{kind.value} is exact; use bd_measure")
    a = np.asarray(a, dtype=float)
    if bd_is_chsh_local(a):
        return _closed_form(kind, 0.0, BellDiagonal.from_corr(a))
    obj = BdObjective(DistanceKind.HELLINGER if kind is DistanceKind.BURES else kind, a)
    report = solver.minimize_over_local_set(obj.value, obj.derivatives)
    x = report.x
    active = [p for p, v in zip(DISK_PAIRS, solver.pair_violations(x)) if abs(v) <= 1e-8]
    return MeasureResult(
        kind=kind,
        value=obj.value_at(x),
        closest_local=BellDiagonal.from_corr(x),
        method="numeric",
        surface=surface_name(active),
        iterations=report.iterations,
        converged=report.converged,
    )


def bd_measure(kind: DistanceKind, a) -> MeasureResult:
    """Dispatch: exact for HS and trace, numeric minimization otherwise."""
    if kind is DistanceKind.HS:
        return bd_measure_hs(a)
    if kind is DistanceKind.TRACE:
        return bd_measure_trace(a)
    return bd_measure_numeric(kind, a)


def two_bell_mix_corr(p: float) -> np.ndarray:
    """Correlators (2p - 1, -(2p - 1), 1) of the mix of two Bell states."""
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"mixing weight {p} outside [0, 1]")
    return np.array([2.0 * p - 1.0, -(2.0 * p - 1.0), 1.0])


def bd_sweep(kind: DistanceKind, family: str, n_points: int) -> np.ndarray:
    """Normalized measure along a one-parameter Bell-diagonal family.

    family "two_bell_mix" sweeps p in [1/2, 1] over a = (2p-1, -(2p-1), 1);
    family "werner_line" sweeps w in [1/sqrt 2, 1] along the singlet corner.
    Values are divided by the Werner maximum of the same kind, so every sweep
    ends at 1 at the maximally nonlocal endpoint. Returns rows (parameter,
    normalized value); an unconverged solve raises NotConverged naming its
    point.
    """
    if n_points < 2:
        raise OutOfRange("a sweep needs at least two points")
    norm = werner_max(kind)
    rows = np.empty((n_points, 2))
    if family == "two_bell_mix":
        params = np.linspace(0.5, 1.0, n_points)
        corr = [two_bell_mix_corr(p) for p in params]
    elif family == "werner_line":
        params = np.linspace(WERNER_THRESHOLD, 1.0, n_points)
        corr = [w * BELL_CORNERS[3] for w in params]
    else:
        raise OutOfRange(f"unknown family {family!r}")
    for idx, (p, a) in enumerate(zip(params, corr)):
        res = bd_measure(kind, a)
        if not res.converged:
            raise NotConverged(f"{kind.value} solve at {family} parameter {p!r} did not converge")
        rows[idx, 0] = p
        rows[idx, 1] = res.value / norm
    return rows


def bd_grid(kind: DistanceKind, grid_n: int) -> list[tuple[float, float, float]]:
    """Normalized measure over the facet e4 = 0 of the tetrahedron.

    The slice is sampled at steps of 1/grid_n in (e1, e2) with
    e3 = 1 - e1 - e2, keeping only physical nodes, in row-major order. Every
    measure is invariant under permuting the Bell weights, so each symmetry
    class of nodes, keyed by its sorted integer triple, is solved once at the
    node whose weights are that sorted triple over grid_n; the other nodes of
    the class reuse the value. i/grid_n is correctly rounded, so a node shared
    by two grid sizes gets the same value in both. An unconverged solve raises
    NotConverged naming that node, the first row of its class.
    """
    if grid_n < 1:
        raise OutOfRange("grid_n must be at least 1")
    norm = werner_max(kind)
    values = {}
    rows = []
    for i in range(grid_n + 1):
        for j in range(grid_n + 1 - i):
            key = tuple(sorted((i, j, grid_n - i - j)))
            if key not in values:
                # row-major order meets each class first at its ascending
                # triple, so e is both the class's solve point and this row
                e = [k / grid_n for k in key] + [0.0]
                res = bd_measure(kind, bd_probs_to_corr(e))
                if not res.converged:
                    raise NotConverged(f"{kind.value} solve at e = {e} did not converge")
                values[key] = float(res.value / norm)
            rows.append((i / grid_n, j / grid_n, values[key]))
    return rows
