"""Werner and isotropic measures over whole arrays of parameters.

The closed forms are those of measures.spectral_formula, evaluated as numpy
array expressions, one per kind, for the werner-sweep and iso commands. This
is numpy code: nlgeo imports it on the first use of one of its names.
"""

from __future__ import annotations

import math

import numpy as np

from .kinds import DistanceKind
from .locality import BOUNDARY_TOL, cglmp_threshold
from .measures import WERNER_THRESHOLD, spectral_formula
from .qstate import IsotropicParam, WernerParam


def _nonneg(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _log2(x: np.ndarray) -> np.ndarray:
    """Elementwise math.log2."""
    return np.fromiter(map(math.log2, x.tolist()), dtype=float, count=x.size)


def _xlog2(x: np.ndarray, ref: float) -> np.ndarray:
    """x log2(x / ref) elementwise, where a weight x <= 1e-15 contributes
    nothing (0 log 0 = 0)."""
    out = np.zeros(x.shape)
    keep = x > 1e-15
    out[keep] = x[keep] * _log2(x[keep] / ref)
    return out


def _spectral_values(kind: DistanceKind, d: int, t: float, omega: np.ndarray) -> np.ndarray:
    """spectral_formula at each weight of omega; local entries (omega <= t)
    give exactly 0.0."""
    out = np.zeros(omega.shape)
    is_nonlocal = omega > t + BOUNDARY_TOL
    out[is_nonlocal] = spectral_formula(
        kind, d, t, omega[is_nonlocal], sqrt=np.sqrt, nonneg=_nonneg, xlog2=_xlog2
    )
    return out


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

    measures.werner_measure at every entry, bit for bit: the d = 2 isotropic
    formula at the CHSH threshold 1/sqrt(2); local entries (w <= 1/sqrt(2))
    give exactly 0.0. Every entry must be a valid Werner parameter, or
    OutOfRange is raised.
    """
    return _spectral_values(kind, 2, WERNER_THRESHOLD, _checked(WernerParam, w))


def isotropic_values(kind: DistanceKind, d: int, omega) -> np.ndarray:
    """Measure of the d-dimensional isotropic states with weights omega (an array).

    measures.isotropic_measure at every entry, bit for bit: the closest local
    state is the isotropic state at the CGLMP threshold t = 2/I_d. Local
    entries (omega <= t) give exactly 0.0; an invalid weight raises
    OutOfRange.
    """
    omega = _checked(lambda om: IsotropicParam(d=d, omega=om), omega)
    return _spectral_values(kind, d, cglmp_threshold(d).omega_threshold, omega)


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
