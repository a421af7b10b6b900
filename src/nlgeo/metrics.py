"""Distance and divergence functionals on density matrices.

Conventions used throughout the package:

* logarithms are base 2, so relative entropy is measured in bits;
* ``dist_hellinger_sq`` and the Bures values reported by the measures are
  squared distances, while ``dist_hellinger`` and ``dist_bures`` themselves
  return the plain metric;
* support mismatch in the relative entropy yields ``math.inf`` rather than an
  exception, with supports resolved at the 1e-12 eigenvalue threshold.
"""

from __future__ import annotations

import math

import numpy as np

from .dense import DensityMatrix, matrix_sqrt_psd
from .errors import DimensionMismatch, NonPhysical
from .kinds import DistanceKind  # noqa: F401  (re-exported)

SUPPORT_TOL = 1e-12


def _mat(rho) -> np.ndarray:
    """Accept a DensityMatrix or a plain matrix."""
    if isinstance(rho, DensityMatrix):
        return rho.mat
    return np.asarray(rho)


def _pair(rho1, rho2) -> tuple[np.ndarray, np.ndarray]:
    m1, m2 = _mat(rho1), _mat(rho2)
    if m1.shape != m2.shape:
        raise DimensionMismatch(
            f"states of shape {m1.shape} and {m2.shape} are incomparable"
        )
    if not (np.all(np.isfinite(m1)) and np.all(np.isfinite(m2))):
        raise NonPhysical("a state has a non-finite entry")
    return m1, m2


def dist_hs(rho1, rho2) -> float:
    """Hilbert-Schmidt distance sqrt(Tr[(rho1 - rho2)^2])."""
    m1, m2 = _pair(rho1, rho2)
    return float(np.linalg.norm(m1 - m2))


def dist_hellinger_sq(rho1, rho2) -> float:
    """Squared Hellinger distance ||sqrt(rho1) - sqrt(rho2)||_2^2 = 2 - 2 Tr[sqrt(rho1) sqrt(rho2)]."""
    m1, m2 = _pair(rho1, rho2)
    return float(np.linalg.norm(matrix_sqrt_psd(m1) - matrix_sqrt_psd(m2)) ** 2)


def dist_hellinger(rho1, rho2) -> float:
    """Hellinger distance, the metric square root of dist_hellinger_sq."""
    return math.sqrt(max(dist_hellinger_sq(rho1, rho2), 0.0))


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2, clipped to [0, 1]."""
    m1, m2 = _pair(rho1, rho2)
    s1 = matrix_sqrt_psd(m1)
    inner = s1 @ m2 @ s1
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


def dist_bures(rho1, rho2) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F)))."""
    return math.sqrt(max(2.0 * (1.0 - math.sqrt(fidelity(rho1, rho2))), 0.0))


def dist_trace(rho1, rho2) -> float:
    """Trace distance (1/2) sum_i |lambda_i(rho1 - rho2)|."""
    m1, m2 = _pair(rho1, rho2)
    vals = np.linalg.eigvalsh(m1 - m2)
    return float(0.5 * np.sum(np.abs(vals)))


def rel_entropy(rho1, rho2) -> float:
    """Relative entropy Tr[rho1 log2 rho1] - Tr[rho1 log2 rho2] in bits.

    Returns math.inf when the support of rho1 is not contained in the support
    of rho2. Asymmetric in its arguments.
    """
    m1, m2 = _pair(rho1, rho2)
    w1 = np.linalg.eigvalsh(m1)
    w2, v2 = np.linalg.eigh(m2)
    keep1 = w1 > SUPPORT_TOL
    term1 = float(np.sum(w1[keep1] * np.log2(w1[keep1])))
    # weight of rho1 carried by each eigenvector of rho2
    weights = np.real(np.einsum("ij,jk,ki->i", v2.conj().T, m1, v2))
    kernel = w2 <= SUPPORT_TOL
    if float(np.sum(weights[kernel])) > SUPPORT_TOL:
        return math.inf
    term2 = float(np.sum(weights[~kernel] * np.log2(w2[~kernel])))
    return max(term1 - term2, 0.0)
