import math
from collections import namedtuple

import numpy as np
import pytest

from nlgeo.qstate import PROB_NEG_ATOL, bd_corr_to_probs, bd_probs_to_corr
from nlgeo.locality import BOUNDARY_TOL, bd_is_chsh_local, max_pair_sum, surface_name
from nlgeo.solver import DISK_PAIRS

SEED = 20260814

# a nonlocal input whose HS projection lies on the arc where the cylinders
# (1, 2) and (2, 3) meet
ARC_INPUT = np.array([-0.6174579677587797, -0.9860375554040087, -0.6034955233912539])


# the oracles' answer: the nearest local point, its distance and the
# surface_name of its boundary piece (None for a local input)
Projection = namedtuple("Projection", "point distance surface")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_density(rng, d: int) -> np.ndarray:
    """Full-rank random density matrix from a Ginibre draw."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so the distribution is Haar
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_tetra_corr(rng) -> np.ndarray:
    """Correlators of a random Bell-diagonal state (flat over the simplex)."""
    return np.array(bd_probs_to_corr(rng.dirichlet(np.ones(4))))


def in_tetrahedron(a, tol: float = PROB_NEG_ATOL) -> bool:
    """Whether correlators a lie in the physical Bell-diagonal tetrahedron,
    each Bell weight at least -tol (by default qstate.physical_probs's bound,
    which raises instead). DimensionMismatch unless a holds 3 correlators."""
    # written so that a nan weight fails too
    return all(ek >= -tol for ek in bd_corr_to_probs(a))


def random_local_corr(rng) -> np.ndarray:
    while True:
        a = random_tetra_corr(rng)
        if max_pair_sum(a) <= 1.0:
            return a


def random_nonlocal_corr(rng, margin: float = 1e-3) -> np.ndarray:
    # concentrate the weights near the vertices, where nonlocal states live
    while True:
        a = np.array(bd_probs_to_corr(rng.dirichlet(np.full(4, 0.3))))
        if max_pair_sum(a) > 1.0 + margin:
            return a


@pytest.fixture
def make_density():
    return random_density


@pytest.fixture
def make_unitary():
    return haar_unitary


# The Hilbert-Schmidt oracle: the exact Euclidean projection onto the local
# set L, the tetrahedron cut by the three cylinders a_i^2 + a_j^2 <= 1, found
# in the symmetry chamber of |a| rather than in that of the Bell weights,
# where nlgeo finds it (the chamber solve of measures.KERNELS[HS]).
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


def nearest_in_chamber(a, solve) -> Projection:
    """Nearest local point to a nonlocal a in a distance that permuting the
    coordinates and flipping their signs leaves unchanged.

    The cylinders are unchanged by both maps too, so the nearest point keeps
    the signs of a and the order of their magnitudes. solve(b_i, b_j, b_k)
    finds it for |a| sorted in descending order: it returns the point in that
    order, the index pairs of its active cylinders in that order, and its
    distance. The point is mapped back to the order and signs of a.
    """
    a = tuple(map(float, a))
    order = sorted(range(3), key=lambda n: -abs(a[n]))
    point, pairs, distance = solve(*(abs(a[n]) for n in order))
    out = [0.0] * 3
    for n, p in zip(order, point):
        out[n] = p
    return Projection(
        point=tuple(map(math.copysign, out, a)),
        distance=distance,
        surface=surface_name([(order[p], order[q]) for p, q in pairs]),
    )


def hs_oracle(a) -> Projection:
    """The Euclidean projection of correlators a onto the local set, by the
    candidates above: the oracle for the HS measure, whose closest state is
    that projection, at twice the measure's value."""
    if bd_is_chsh_local(a):
        return Projection(point=tuple(map(float, a)), distance=0.0, surface=None)
    return nearest_in_chamber(a, _euclidean_in_chamber)
