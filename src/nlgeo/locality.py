"""Locality criteria: the CHSH singular-value test for two qubits and the
CGLMP visibility threshold for two qudits, plus the exact Euclidean
projection onto the CHSH-local Bell-diagonal region, whose boundary (its
cylinders, the arcs where two of them meet, and its vertices) is described
there once."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical, OutOfRange
from .qstate import BELL_CORNERS, PauliRep, bd_corr_to_probs

BOUNDARY_TOL = 1e-12

# index pairs of the three quadratic boundary pieces, in lexicographic order
DISK_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class ChshVerdict:
    """Outcome of the CHSH criterion: correlation singular values d1 >= d2 >= d3,
    the value d1^2 + d2^2, and whether the state admits a local model."""

    singulars: tuple[float, float, float]
    criterion_value: float
    is_local: bool


@dataclass(frozen=True)
class CglmpThreshold:
    """Quantum CGLMP maximum I_d and the visibility 2/I_d separating local from
    nonlocal isotropic states."""

    d: int
    i_d_qm: float
    omega_threshold: float


def chsh_verdict(rep: PauliRep) -> ChshVerdict:
    """Apply the CHSH test to a two-qubit Pauli representation.

    The state admits a local model for all CHSH experiments iff the two
    largest singular values of the correlation matrix satisfy
    d1^2 + d2^2 <= 1. The boundary counts as local.
    """
    s = np.linalg.svd(rep.corr, compute_uv=False)
    value = float(s[0] ** 2 + s[1] ** 2)
    return ChshVerdict(
        singulars=(float(s[0]), float(s[1]), float(s[2])),
        criterion_value=value,
        is_local=value <= 1.0 + BOUNDARY_TOL,
    )


def cglmp_qk(d: int, k: int) -> float:
    """Joint outcome weight q_k = 1 / (2 d^3 sin^2(pi (k + 1/4) / d))."""
    if int(d) != d or d < 2:
        raise OutOfRange(f"local dimension must be an integer >= 2, got {d}")
    s = np.sin(np.pi * (k + 0.25) / d)
    return float(1.0 / (2.0 * d**3 * s * s))


def cglmp_threshold(d: int) -> CglmpThreshold:
    """Quantum CGLMP value I_d and the isotropic locality threshold 2/I_d.

    I_d = 4d sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}),
    evaluated literally; at d = 2 the sum is the single k = 0 term and the
    threshold reduces to the CHSH value 1/sqrt(2).
    """
    if int(d) != d or d < 2:
        raise OutOfRange(f"local dimension must be an integer >= 2, got {d}")
    total = 0.0
    for k in range(d // 2):
        coeff = 1.0 - 2.0 * k / (d - 1.0)
        total += coeff * (cglmp_qk(d, k) - cglmp_qk(d, -(k + 1)))
    i_d = 4.0 * d * total
    return CglmpThreshold(d=d, i_d_qm=i_d, omega_threshold=2.0 / i_d)


def in_tetrahedron(a, tol: float = 1e-12) -> bool:
    """Whether correlators a lie in the physical Bell-diagonal tetrahedron."""
    return bool(bd_corr_to_probs(a).min() >= -tol)


def max_pair_sum(a) -> float:
    """Largest of a_i^2 + a_j^2 over the three index pairs."""
    a = np.asarray(a, dtype=float)
    return float(max(a[i] ** 2 + a[j] ** 2 for i, j in DISK_PAIRS))


def bd_is_chsh_local(a) -> bool:
    """CHSH locality of a Bell-diagonal state: every pair sum a_i^2 + a_j^2 <= 1.

    Raises NonPhysical outside the tetrahedron. The boundary counts as local.
    """
    if not in_tetrahedron(a):
        raise NonPhysical(f"correlators {np.asarray(a).tolist()} outside the tetrahedron")
    return max_pair_sum(a) <= 1.0 + BOUNDARY_TOL


# Exact Euclidean projection onto the local set L: the tetrahedron cut by the
# three cylinders a_i^2 + a_j^2 <= 1. Where two cylinders are active the
# boundary of L runs along a planar ellipse arc x(t) = u cos t + v sin t, in a
# plane a_q = +-a_p (6 of them); where three constraints are active it has
# isolated vertices. L never changes, so both are tabulated once, below.
#
# A facet never carries the projection p of a physical a. Suppose p lies on
# cylinder (i, j) and on facet k, the plane c . x = -1 with c the Bell corner
# of weight k, and let l be the third index. With multipliers lam >= 0 for the
# cylinder and nu >= 0 for the facet, KKT reads a - p = 2 lam (p_i e_i +
# p_j e_j) - nu c. Dotting with c and using c . a >= -1 = c . p gives
#   3 nu <= 2 lam (-1 - c_l p_l) <= 0,
# because |c_l p_l| = |p_l| <= 1 in L; each further active cylinder adds one
# more such term. So nu = 0: with one cylinder active p is the radial
# rescaling, which project_local returns first, and otherwise it lies where
# two or three cylinders meet. The cylinder-on-facet ellipses are left out.


def radial_candidates(a: np.ndarray):
    """Projections of a onto each cylinder it violates: rescale that pair onto
    the unit circle and keep the remaining coordinate. Returns a list of
    ((i, j), s, point, valid) with s = |(a_i, a_j)| > 1, where valid tells
    whether the point also lies in L (the rescaled pair dominates the third
    coordinate and the point stays in the tetrahedron)."""
    out = []
    for i, j in DISK_PAIRS:
        s_sq = a[i] * a[i] + a[j] * a[j]
        if s_sq <= 1.0:
            continue
        s = math.sqrt(s_sq)
        cand = a.copy()
        cand[i] /= s
        cand[j] /= s
        k = ({0, 1, 2} - {i, j}).pop()
        valid = (
            min(abs(cand[i]), abs(cand[j])) >= abs(cand[k]) - BOUNDARY_TOL
            and in_tetrahedron(cand)
        )
        out.append(((i, j), s, cand, valid))
    return out


def _disk_name(i: int, j: int) -> str:
    i, j = sorted((i, j))
    return f"disk_{i + 1}{j + 1}"


def _boundary_ellipses():
    """Axes and names of the 6 arcs where two cylinders meet."""
    eye = np.eye(3)
    rows = []
    for m in range(3):
        p, q = (idx for idx in range(3) if idx != m)
        for sign in (1.0, -1.0):
            # cylinders (m, p) and (m, q) meet where a_q = sign * a_p
            rows.append((
                eye[m],
                eye[p] + sign * eye[q],
                f"{_disk_name(m, p)}+{_disk_name(m, q)}",
            ))
    u, v, names = zip(*rows)
    return np.array(u), np.array(v), names


def _feasible(x: np.ndarray) -> np.ndarray:
    """Row-wise membership of the points x (n, 3) in L, within BOUNDARY_TOL."""
    in_tetra = np.all(x @ BELL_CORNERS.T >= -1.0 - 4.0 * BOUNDARY_TOL, axis=1)
    sq = x * x
    pairs = np.stack([sq[:, i] + sq[:, j] for i, j in DISK_PAIRS], axis=1)
    return in_tetra & np.all(pairs <= 1.0 + BOUNDARY_TOL, axis=1)


_ELL_U, _ELL_V, _ELL_NAMES = _boundary_ellipses()
# f'(t) = 0 for f(t) = |x(t) - a|^2 reads
#   A cos t + B sin t + C sin 2t + D cos 2t = 0
# with A = -a . v, B = a . u and the constants below; in z = exp(it) it is the
# quartic (D - iC) z^4 + (A - iB) z^3 + (A + iB) z + (D + iC).
_ELL_C2 = 0.5 * (np.sum(_ELL_V * _ELL_V, axis=1) - np.sum(_ELL_U * _ELL_U, axis=1))
_ELL_D = np.sum(_ELL_U * _ELL_V, axis=1)
_ELL_LEAD = _ELL_D - 1j * _ELL_C2  # nonzero: C = 1/2 (and D = 0) on all six arcs
# Vertices of L, where three constraints are active: the threshold points
# T * corner, where the three cylinders meet, and the axis points +-e_i, where
# two-cylinder arcs cross on a tetrahedron edge. The tests derive them by
# crossing every arc with every facet plane.
_VERTICES = np.vstack((BELL_CORNERS / math.sqrt(2.0), np.eye(3), -np.eye(3)))
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class LocalProjection:
    """Nearest point of the local set to a, its Euclidean distance from a, and
    the active boundary piece: "disk_ij" for one cylinder, two pieces joined
    by "+" for an ellipse arc, "vertex", or None when a is local itself."""

    point: np.ndarray
    distance: float
    surface: str | None


def _ellipse_stationary_points(a: np.ndarray) -> np.ndarray:
    """Every stationary point of |x - a|^2 on each of the 6 arcs, shape
    (6, 4, 3): the roots of each quartic, polished by Newton steps."""
    d = -a
    big_a = np.sum(d * _ELL_V, axis=1)
    big_b = -np.sum(d * _ELL_U, axis=1)
    companion = np.zeros((len(_ELL_NAMES), 4, 4), dtype=complex)
    companion[:, 0, 0] = -(big_a - 1j * big_b) / _ELL_LEAD
    companion[:, 0, 2] = -(big_a + 1j * big_b) / _ELL_LEAD
    companion[:, 0, 3] = -np.conj(_ELL_LEAD) / _ELL_LEAD
    companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1.0
    t = np.angle(np.linalg.eigvals(companion))
    big_a, big_b = big_a[:, None], big_b[:, None]
    c2, dd = _ELL_C2[:, None], _ELL_D[:, None]

    def slope(t):
        cos, sin = np.cos(t), np.sin(t)
        return big_a * cos + big_b * sin + 2.0 * c2 * sin * cos + dd * (cos * cos - sin * sin)

    for _ in range(_NEWTON_STEPS):
        g = slope(t)
        cos, sin = np.cos(t), np.sin(t)
        curv = -big_a * sin + big_b * cos + 2.0 * c2 * (cos * cos - sin * sin) - 4.0 * dd * sin * cos
        trial = t - np.divide(g, curv, out=np.zeros_like(g), where=curv != 0.0)
        # a step that does not shrink |f'| is dropped, so polishing never
        # moves a root estimate away from its root
        t = np.where(np.abs(slope(trial)) < np.abs(g), trial, t)
    return _ELL_U[:, None, :] * np.cos(t)[..., None] + _ELL_V[:, None, :] * np.sin(t)[..., None]


def project_local(a) -> LocalProjection:
    """Exact Euclidean projection of correlators a onto the CHSH-local set.

    The projection of a physical nonlocal a has only cylinders among its
    active constraints (see the comment above radial_candidates), so it is
    one of finitely many candidates: the radial rescaling onto a single
    cylinder, a stationary point of the distance on one of the 6 arcs where
    two cylinders meet, or a vertex. L is convex, so the nearest candidate
    that lies in L is the projection. A radial rescaling that lies in L is
    the projection onto a cylinder containing L, so it is returned at once.
    Raises NonPhysical outside the tetrahedron.
    """
    a = np.asarray(a, dtype=float)
    if bd_is_chsh_local(a):
        return LocalProjection(point=a.copy(), distance=0.0, surface=None)
    best = None
    for (i, j), s, cand, valid in radial_candidates(a):
        if valid and (best is None or s - 1.0 < best.distance):
            best = LocalProjection(point=cand, distance=s - 1.0, surface=_disk_name(i, j))
    if best is not None:
        return best
    points = np.concatenate(
        (_ellipse_stationary_points(a).reshape(-1, 3), _VERTICES)
    )
    dist_sq = np.sum((points - a) ** 2, axis=1)
    dist_sq[~_feasible(points)] = np.inf
    idx = int(np.argmin(dist_sq))
    surface = _ELL_NAMES[idx // 4] if idx < 4 * len(_ELL_NAMES) else "vertex"
    return LocalProjection(point=points[idx], distance=math.sqrt(dist_sq[idx]), surface=surface)
