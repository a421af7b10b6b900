"""Independent accuracy references for the benchmark.

Nothing here imports nlgeo. Every reference is written from the Bell weights
(or, for isotropic states, from the known spectra), where all five distances
between commuting states are classical distances between probability vectors:

* hs: sqrt(sum (p - q)^2)
* he, bu: 2 - 2 sum sqrt(p q)   (squared Hellinger = squared Bures here)
* tr: 1/2 sum |p - q|
* re: sum p log2(p / q), in bits

General Bell-diagonal inputs are referenced by scipy SLSQP from several
starts. A reference point is used only when it is feasible, so each reference
value is achieved by a local state and is an upper bound on the true minimum.
scipy is a dependency of this benchmark only, never of nlgeo.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

KINDS = ("hs", "he", "bu", "tr", "re")

# Bell weights e = (1 + S a) / 4 and correlators a = S^T e.
S = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
PAIRS = ((0, 1), (0, 2), (1, 2))
PAIR_TOL = 1e-12
WERNER_T = 1.0 / math.sqrt(2.0)


def weights(a) -> np.ndarray:
    return 0.25 * (1.0 + S @ np.asarray(a, dtype=float))


def corr(e) -> np.ndarray:
    return S.T @ np.asarray(e, dtype=float)


def max_pair(a) -> float:
    return max(a[i] * a[i] + a[j] * a[j] for i, j in PAIRS)


def is_local(a) -> bool:
    return max_pair(a) <= 1.0 + PAIR_TOL


def is_feasible(a) -> bool:
    """In the tetrahedron and inside all three CHSH cylinders."""
    return bool(weights(a).min() >= -PAIR_TOL) and is_local(a)


def distance(kind: str, p, q):
    """Classical distance of kind from weights p (state) to q (local state).

    Works along the last axis, so p and q may hold one vector or a stack.
    """
    p = np.asarray(p, dtype=float)
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    if kind == "hs":
        out = np.sqrt(np.sum((p - q) ** 2, axis=-1))
    elif kind in ("he", "bu"):
        out = np.maximum(2.0 - 2.0 * np.sum(np.sqrt(np.clip(p, 0.0, None) * q), axis=-1), 0.0)
    elif kind == "tr":
        out = 0.5 * np.sum(np.abs(p - q), axis=-1)
    elif kind == "re":
        pos = p > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(pos, p * np.log2(np.where(pos, p, 1.0) / q), 0.0)
        out = np.where(np.any(pos & (q <= 0.0), axis=-1), math.inf, np.maximum(np.sum(terms, axis=-1), 0.0))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------- closed forms


def werner_spectrum(w: float) -> np.ndarray:
    return np.array([(1.0 + 3.0 * w) / 4.0] + [(1.0 - w) / 4.0] * 3)


def werner_ref(kind: str, w):
    """Werner measure: the closest local state is the Werner state at 1/sqrt 2.

    w may be a number or an array.
    """
    w = np.asarray(w, dtype=float)
    spec = np.stack([(1.0 + 3.0 * w) / 4.0] + [(1.0 - w) / 4.0] * 3, axis=-1)
    value = np.where(w <= WERNER_T, 0.0, distance(kind, spec, werner_spectrum(WERNER_T)))
    return float(value) if value.ndim == 0 else value


def werner_norm(kind: str) -> float:
    return werner_ref(kind, 1.0)


def cglmp_omega(d: int) -> float:
    """Isotropic locality threshold 2 / I_d from the CGLMP quantum maximum."""

    def q(k):
        return 1.0 / (2.0 * d**3 * math.sin(math.pi * (k + 0.25) / d) ** 2)

    i_d = 4.0 * d * sum((1.0 - 2.0 * k / (d - 1.0)) * (q(k) - q(-(k + 1))) for k in range(d // 2))
    return 2.0 / i_d


def iso_spectrum(d: int, omega: float) -> np.ndarray:
    d2 = d * d
    return np.array([(1.0 + (d2 - 1.0) * omega) / d2] + [(1.0 - omega) / d2] * (d2 - 1))


def iso_ref(kind: str, d: int, omega):
    """Isotropic measure: the closest local state is isotropic at the CGLMP
    threshold. omega may be a number or an array."""
    omega = np.asarray(omega, dtype=float)
    d2 = d * d
    spec = np.stack([(1.0 + (d2 - 1.0) * omega) / d2] + [(1.0 - omega) / d2] * (d2 - 1), axis=-1)
    thr = cglmp_omega(d)
    value = np.where(omega <= thr, 0.0, distance(kind, spec, iso_spectrum(d, thr)))
    return float(value) if value.ndim == 0 else value


# ------------------------------------------------------- general Bell-diagonal


def _constraints(n_extra: int):
    """Tetrahedron and cylinder constraints on z = (a, extra...), as g(z) >= 0."""

    def tetra(z):
        return 1.0 + S @ z[:3]

    def tetra_jac(z):
        return np.hstack([S, np.zeros((4, n_extra))])

    def disks(z):
        return np.array([1.0 - z[i] ** 2 - z[j] ** 2 for i, j in PAIRS])

    def disks_jac(z):
        jac = np.zeros((3, 3 + n_extra))
        for row, (i, j) in enumerate(PAIRS):
            jac[row, i] = -2.0 * z[i]
            jac[row, j] = -2.0 * z[j]
        return jac

    return [
        {"type": "ineq", "fun": tetra, "jac": tetra_jac},
        {"type": "ineq", "fun": disks, "jac": disks_jac},
    ]


def _problem(kind: str, e: np.ndarray):
    """(objective, gradient, extra variables, constraints) for SLSQP.

    hs is minimized squared; he/bu through -sum sqrt(e w); tr as a linear
    program in auxiliary variables t >= |w - e|.
    """
    if kind == "hs":

        def fun(z):
            r = weights(z) - e
            return float(r @ r)

        def jac(z):
            return 0.5 * S.T @ (weights(z) - e)

        return fun, jac, 0, _constraints(0)
    if kind in ("he", "bu"):
        se = np.sqrt(e)

        def fun(z):
            return float(-np.sum(se * np.sqrt(np.clip(weights(z), 0.0, None))))

        def jac(z):
            w = np.clip(weights(z), 1e-300, None)
            return -0.125 * S.T @ (se / np.sqrt(w))

        return fun, jac, 0, _constraints(0)
    if kind == "re":
        pos = e > 0.0

        def fun(z):
            w = np.clip(weights(z)[pos], 1e-300, None)
            return float(np.sum(e[pos] * np.log2(e[pos] / w)))

        def jac(z):
            w = np.clip(weights(z), 1e-300, None)
            g = np.where(pos, -e / (w * math.log(2.0)), 0.0)
            return 0.25 * S.T @ g

        return fun, jac, 0, _constraints(0)
    if kind == "tr":

        def fun(z):
            return float(0.5 * np.sum(z[3:]))

        def jac(z):
            return np.concatenate([np.zeros(3), np.full(4, 0.5)])

        def upper(z):
            return z[3:] - (weights(z[:3]) - e)

        def lower(z):
            return z[3:] + (weights(z[:3]) - e)

        cons = _constraints(4) + [
            {"type": "ineq", "fun": upper, "jac": lambda z: np.hstack([-0.25 * S, np.eye(4)])},
            {"type": "ineq", "fun": lower, "jac": lambda z: np.hstack([0.25 * S, np.eye(4)])},
        ]
        return fun, jac, 4, cons
    raise ValueError(f"unknown kind {kind!r}")


def _into_local_set(a) -> np.ndarray | None:
    """Shrink a toward the maximally mixed point until it is feasible."""
    a = np.asarray(a, dtype=float)
    scale = 1.0
    mp = max_pair(a)
    if mp > 1.0:
        scale = 1.0 / math.sqrt(mp)
    sa = S @ a
    for v in sa:
        if v < -1.0:
            scale = min(scale, -1.0 / v)
    out = scale * a
    return out if is_feasible(out) else None


def _starts(a: np.ndarray) -> list[np.ndarray]:
    starts = [np.zeros(3), a / math.sqrt(max_pair(a))]
    for i, j in PAIRS:
        r = math.hypot(a[i], a[j])
        if r > 1.0:
            b = a.copy()
            b[i] /= r
            b[j] /= r
            starts.append(b)
    # the Werner state at the threshold, toward the nearest Bell corner S[k]
    starts.append(WERNER_T * S[int(np.argmax(S @ a))])
    out = []
    for s in starts:
        s = _into_local_set(s)
        if s is not None:
            # strictly inside, so that re starts finite
            out.append(0.999 * s)
    return out


def bd_ref(kind: str, a) -> float:
    """Best feasible SLSQP value of the measure of kind at correlators a.

    Local inputs give 0. Each start's result is shrunk into the local set if
    SLSQP left it a rounding error outside, then scored with distance().
    """
    a = np.asarray(a, dtype=float)
    if is_local(a):
        return 0.0
    e = np.clip(weights(a), 0.0, None)
    e = e / e.sum()
    fun, jac, n_extra, cons = _problem(kind, e)
    best = math.inf
    for x0 in _starts(a):
        z0 = x0
        if n_extra:
            z0 = np.concatenate([x0, np.abs(weights(x0) - e)])
        res = minimize(
            fun, z0, jac=jac, method="SLSQP", constraints=cons,
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = _into_local_set(res.x[:3])
        if x is None:
            continue
        best = min(best, distance(kind, e, weights(x)))
    return best
