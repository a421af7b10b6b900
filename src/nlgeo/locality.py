"""Locality criteria: the CHSH singular-value test for two qubits and the
CGLMP visibility threshold for two qudits, plus the exact Euclidean
projection onto the CHSH-local Bell-diagonal region, which the region's
symmetry reduces to one cylinder, one arc or one vertex.

Everything here but chsh_verdict, which takes a dense PauliRep and imports
numpy on its first call, works on Python floats: correlators come in as any
sequence of three numbers, and points go out as tuples."""

from __future__ import annotations

import math
from collections import namedtuple

from .qstate import PROB_NEG_ATOL, bd_corr_to_probs, float_vector, physical_probs, whole_number

BOUNDARY_TOL = 1e-12

# index pairs of the three quadratic boundary pieces, in lexicographic order
DISK_PAIRS = ((0, 1), (0, 2), (1, 2))


def surface_name(pairs) -> str | None:
    """Name of the boundary piece where the cylinders a_i^2 + a_j^2 = 1 of the
    index pairs (i, j) meet: None for no pair, "disk_ij" for one (indices
    from 1), "disk_ij+disk_kl" in lexicographic order for two, and "vertex"
    for all three."""
    names = sorted(f"disk_{min(p) + 1}{max(p) + 1}" for p in pairs)
    if len(names) == 3:
        return "vertex"
    return "+".join(names) or None


class ChshVerdict(namedtuple("ChshVerdict", "singulars criterion_value is_local")):
    """Outcome of the CHSH criterion: correlation singular values d1 >= d2 >= d3,
    the value d1^2 + d2^2, and whether the state admits a local model."""

    __slots__ = ()


class CglmpThreshold(namedtuple("CglmpThreshold", "d i_d_qm omega_threshold")):
    """Quantum CGLMP maximum I_d and the visibility 2/I_d separating local from
    nonlocal isotropic states."""

    __slots__ = ()


def chsh_verdict(rep) -> ChshVerdict:
    """Apply the CHSH test to a two-qubit Pauli representation.

    The state admits a local model for all CHSH experiments iff the two
    largest singular values of the correlation matrix satisfy
    d1^2 + d2^2 <= 1. The boundary counts as local. rep is a dense.PauliRep.
    """
    import numpy as np

    s = np.linalg.svd(rep.corr, compute_uv=False)
    value = float(s[0] ** 2 + s[1] ** 2)
    return ChshVerdict(
        singulars=(float(s[0]), float(s[1]), float(s[2])),
        criterion_value=value,
        is_local=value <= 1.0 + BOUNDARY_TOL,
    )


def cglmp_qk(d: int, k: int) -> float:
    """Joint outcome weight q_k = 1 / (2 d^3 sin^2(pi (k + 1/4) / d))."""
    d = whole_number(d, 2, "local dimension")
    s = math.sin(math.pi * (k + 0.25) / d)
    return 1.0 / (2.0 * d**3 * s * s)


def cglmp_threshold(d: int) -> CglmpThreshold:
    """Quantum CGLMP value I_d and the isotropic locality threshold 2/I_d.

    I_d = 4d sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}),
    evaluated literally; at d = 2 the sum is the single k = 0 term and the
    threshold reduces to the CHSH value 1/sqrt(2). The sum runs in a Python
    loop, so the cost grows like d: about 0.1 s at d = 10^5 and 1 s at 10^6.
    """
    d = whole_number(d, 2, "local dimension")
    total = 0.0
    for k in range(d // 2):
        coeff = 1.0 - 2.0 * k / (d - 1.0)
        total += coeff * (cglmp_qk(d, k) - cglmp_qk(d, -(k + 1)))
    i_d = 4.0 * d * total
    return CglmpThreshold(d=d, i_d_qm=i_d, omega_threshold=2.0 / i_d)


def in_tetrahedron(a, tol: float = PROB_NEG_ATOL) -> bool:
    """Whether correlators a lie in the physical Bell-diagonal tetrahedron,
    each Bell weight at least -tol (by default qstate.physical_probs's bound).

    Raises DimensionMismatch unless a holds 3 correlators (bd_corr_to_probs).
    """
    # written so that a nan weight fails too
    return all(ek >= -tol for ek in bd_corr_to_probs(a))


def max_pair_sum(a) -> float:
    """Largest of a_i^2 + a_j^2 over the three index pairs."""
    a = float_vector(a, 3, "correlator")
    return max(a[i] ** 2 + a[j] ** 2 for i, j in DISK_PAIRS)


def bd_is_chsh_local(a) -> bool:
    """CHSH locality of a Bell-diagonal state: every pair sum a_i^2 + a_j^2 <= 1.

    Raises DimensionMismatch unless a holds 3 correlators and NonPhysical
    outside the tetrahedron (physical_probs). The boundary counts as local.
    """
    physical_probs(a)
    return max_pair_sum(a) <= 1.0 + BOUNDARY_TOL


# Exact Euclidean projection onto the local set L: the tetrahedron cut by the
# three cylinders a_i^2 + a_j^2 <= 1.
#
# A facet never carries the projection p of a physical a. Suppose p lies on
# cylinder (i, j) and on facet k, the plane c . x = -1 with c the Bell corner
# of weight k, and let l be the third index. With multipliers lam >= 0 for the
# cylinder and nu >= 0 for the facet, KKT reads a - p = 2 lam (p_i e_i +
# p_j e_j) - nu c. Dotting with c and using c . a >= -1 = c . p gives
#   3 nu <= 2 lam (-1 - c_l p_l) <= 0,
# because |c_l p_l| = |p_l| <= 1 in L; each further active cylinder adds one
# more such term. So nu = 0, and p is also the projection onto the
# intersection C of the three cylinders.
#
# C and the distance are both unchanged by permuting the coordinates and by
# flipping their signs, so p keeps the signs of a and the order of their
# magnitudes. With b = |a| sorted as b_i >= b_j >= b_k, p is one of three
# points, in this symmetry chamber:
# - the radial rescaling of (a_i, a_j) onto the unit circle, which lies in C
#   iff b_j / |(a_i, a_j)| >= b_k;
# - otherwise the point sign(a) (cos t, sin t, sin t), in the order i, j, k,
#   of the arc where the cylinders (i, j) and (i, k) meet, with 0 < t < pi/4.
#   Half the derivative of the squared distance along the arc is
#     F(t) = sin t cos t + b_i sin t - (b_j + b_k) cos t,
#   F(0) < 0 and F' = cos 2t + b_i cos t + (b_j + b_k) sin t > 0, so F has at
#   most one root in (0, pi/4), where a - p has no component along the arc;
# - the vertex sign(a) / sqrt 2, where all three cylinders meet, when there is
#   no such root: F(pi/4) <= 0.


def _arc_angle(b_i: float, b_jk: float) -> float:
    """The root t in (0, pi/4) of sin t cos t + b_i sin t - b_jk cos t, which
    increases there: Newton steps from t = atan(b_jk / (1 + b_i)) <= pi/4,
    kept in the shrinking bracket by bisection, until a step no longer
    moves t."""
    lo, hi = 0.0, 0.25 * math.pi
    t = math.atan(b_jk / (1.0 + b_i))
    while True:
        cos, sin = math.cos(t), math.sin(t)
        f = sin * cos + b_i * sin - b_jk * cos
        if f == 0.0:
            return t
        if f < 0.0:
            lo = t
        else:
            hi = t
        step = t - f / (cos * cos - sin * sin + b_i * cos + b_jk * sin)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == t:
            return t
        t = step


class LocalProjection(namedtuple("LocalProjection", "point distance surface")):
    """Nearest point of the local set to a (a tuple of three floats), its
    distance from a, and the active boundary piece as surface_name names it
    (None when a is local itself)."""

    __slots__ = ()


def nearest_in_chamber(a, solve) -> LocalProjection:
    """Nearest local point to a nonlocal a in a distance that permuting the
    coordinates and flipping their signs leaves unchanged.

    The cylinders are unchanged by both maps too, so the nearest point keeps
    the signs of a and the order of their magnitudes. solve(b_i, b_j, b_k)
    finds it for |a| sorted in descending order: it returns the point in that
    order, the index pairs of its active cylinders in that order, and its
    distance. The point is mapped back to the order and signs of a, a tuple
    of three floats.
    """
    order = sorted(range(3), key=lambda n: -abs(a[n]))
    point, pairs, distance = solve(*(abs(a[n]) for n in order))
    out = [0.0] * 3
    for n, p in zip(order, point):
        out[n] = p
    return LocalProjection(
        point=tuple(map(math.copysign, out, a)),
        distance=distance,
        surface=surface_name([(order[p], order[q]) for p, q in pairs]),
    )


def _euclidean_in_chamber(b_i: float, b_j: float, b_k: float):
    s = math.sqrt(b_i * b_i + b_j * b_j)
    if b_j / s >= b_k - BOUNDARY_TOL:
        return (b_i / s, b_j / s, b_k), ((0, 1),), s - 1.0
    if 0.5 + (b_i - b_j - b_k) / math.sqrt(2.0) <= 0.0:
        point = (1.0 / math.sqrt(2.0),) * 3
        pairs = DISK_PAIRS
    else:
        t = _arc_angle(b_i, b_j + b_k)
        point = (math.cos(t), math.sin(t), math.sin(t))
        pairs = ((0, 1), (0, 2))
    distance = math.sqrt(sum((p - b) ** 2 for p, b in zip(point, (b_i, b_j, b_k))))
    return point, pairs, distance


def project_local(a) -> LocalProjection:
    """Exact Euclidean projection of correlators a onto the CHSH-local set.

    The projection of a physical nonlocal a is its projection onto the
    intersection of the three cylinders, inside the symmetry chamber of a
    (see the comment above _arc_angle): the radial rescaling onto the
    cylinder of the two largest |a_i|, the arc where that cylinder meets the
    one of the largest and smallest, or their vertex. Raises NonPhysical
    outside the tetrahedron.
    """
    a = float_vector(a, 3, "correlator")
    if bd_is_chsh_local(a):
        return LocalProjection(point=a, distance=0.0, surface=None)
    return nearest_in_chamber(a, _euclidean_in_chamber)
