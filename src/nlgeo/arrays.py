"""Isotropic measures over whole arrays of weights, Werner ones included.

The closed forms are those of measures.spectral_formula, evaluated as numpy
array expressions, one per kind, for the iso command and for werner-sweep: a
Werner state is the d = 2 isotropic state, so its values are
isotropic_values(kind, 2, w). This is numpy code: nlgeo imports it on the
first use of one of its names.
"""

from __future__ import annotations

import math

import numpy as np

from .kinds import DistanceKind, known_kind
from .locality import BOUNDARY_TOL, cglmp_threshold
from .measures import ZERO_WEIGHT, spectral_formula
from .qstate import IsotropicParam, _float


def _nonneg(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _log2(x: np.ndarray) -> np.ndarray:
    """Elementwise math.log2."""
    return np.fromiter(map(math.log2, x.tolist()), dtype=float, count=x.size)


def _xlog2(x: np.ndarray, ref: float) -> np.ndarray:
    """x log2(x / ref) elementwise, where a weight x <= ZERO_WEIGHT
    contributes nothing (0 log 0 = 0)."""
    out = np.zeros(x.shape)
    keep = x > ZERO_WEIGHT
    out[keep] = x[keep] * _log2(x[keep] / ref)
    return out


def _checked(d: int, omega) -> np.ndarray:
    """omega as a float array after checking its extremes with IsotropicParam.

    The admissible range is an interval, so checking the extremes checks every
    entry (a nan becomes both extremes and fails).
    """
    try:
        omega = np.asarray(omega, dtype=float)
    except OverflowError:
        # name the item that no float can hold
        for x in np.asarray(omega, dtype=object).flat:
            _float(x, "omega")
        raise
    if omega.size:
        IsotropicParam(d, float(omega.min()))
        IsotropicParam(d, float(omega.max()))
    return omega


def isotropic_values(kind: DistanceKind, d: int, omega) -> np.ndarray:
    """Measure of the d-dimensional isotropic states with weights omega (an array).

    measures.isotropic_measure at every entry, bit for bit: the closest local
    state is the isotropic state at the CGLMP threshold t = 2/I_d. Local
    entries (omega <= t) give exactly 0.0; an invalid weight raises
    OutOfRange.
    """
    omega = _checked(d, omega)
    t = cglmp_threshold(d).omega_threshold
    out = np.zeros(omega.shape)
    is_nonlocal = omega > t + BOUNDARY_TOL
    out[is_nonlocal] = spectral_formula(
        kind, d, t, omega[is_nonlocal], sqrt=np.sqrt, nonneg=_nonneg, xlog2=_xlog2
    )
    return out


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
    back for a scalar. A kind that is not a DistanceKind raises OutOfRange.
    """
    weights = _checked(d, omega)
    if known_kind(kind) is DistanceKind.BURES:
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
    else:  # relative entropy, the one kind left
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
