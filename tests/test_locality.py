import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARC_INPUT, in_tetrahedron, random_local_corr, random_nonlocal_corr, random_tetra_corr
from nlgeo.errors import NonPhysical, OutOfRange
from nlgeo import solver
from nlgeo.locality import (
    bd_is_chsh_local,
    _qk,
    cglmp_threshold,
    chsh_verdict,
    from_chamber,
    max_pair_sum,
    surface_name,
)
from nlgeo.dense import PauliRep
from nlgeo.kinds import DistanceKind
from nlgeo.measures import bd_measure
from nlgeo.qstate import BELL_CORNERS as CORNER_TUPLES, BellDiagonal, bd_corr_to_probs, bd_probs_to_corr, physical_probs

N_SAMPLES = 1000
T = 1.0 / math.sqrt(2.0)
# the corners as arrays, for the arithmetic below (nlgeo keeps them as tuples)
BELL_CORNERS = np.array(CORNER_TUPLES)


def diag_rep(a) -> PauliRep:
    alpha = np.zeros((4, 4))
    alpha[0, 0] = 1.0
    alpha[1:, 1:] = np.diag(np.asarray(a, dtype=float))
    return PauliRep(alpha)


def test_chsh_verdict_known_values():
    v = chsh_verdict(diag_rep([0.8, 0.7, 0.1]))
    assert v.criterion_value == pytest.approx(0.8**2 + 0.7**2, abs=1e-12)
    assert not v.is_local
    assert v.singulars == pytest.approx((0.8, 0.7, 0.1), abs=1e-12)
    assert chsh_verdict(diag_rep([0.7, 0.7, 0.7])).is_local
    # the criterion boundary counts as local
    t = 1.0 / math.sqrt(2.0)
    assert chsh_verdict(diag_rep([t, t, t])).is_local
    assert not chsh_verdict(diag_rep([0.72, 0.72, 0.72])).is_local


def test_chsh_verdict_invariant_under_local_rotations(rng):
    # SO(3) x SO(3) action on the correlation matrix leaves singular values alone
    for _ in range(100):
        a = random_tetra_corr(rng)
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        alpha = np.zeros((4, 4))
        alpha[0, 0] = 1.0
        alpha[1:, 1:] = q1 @ np.diag(a) @ q2.T
        rotated = chsh_verdict(PauliRep(alpha))
        plain = chsh_verdict(diag_rep(a))
        assert rotated.criterion_value == pytest.approx(
            plain.criterion_value, abs=1e-10
        )
        assert rotated.is_local == plain.is_local


def test_cglmp_qk_anchor_values():
    assert _qk(2, 0) == pytest.approx(0.42677669529663687, abs=1e-15)
    assert _qk(2, -1) == pytest.approx(0.07322330470336312, abs=1e-15)
    assert _qk(3, -1) == pytest.approx(1.0 / 27.0, abs=1e-15)
    with pytest.raises(OutOfRange):
        cglmp_threshold(1)


def test_cglmp_thresholds():
    two = cglmp_threshold(2)
    assert two.i_d_qm == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert two.omega_threshold == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    three = cglmp_threshold(3)
    assert three.omega_threshold == pytest.approx((6.0 * math.sqrt(3.0) - 9.0) / 2.0, abs=1e-9)
    # the quantum value grows with d while the threshold falls
    prev = two.i_d_qm
    for d in (3, 4, 5, 8):
        cur = cglmp_threshold(d)
        assert cur.i_d_qm > prev
        assert cur.omega_threshold < 2.0 / prev + 1e-12
        prev = cur.i_d_qm


def test_in_tetrahedron_convention():
    # the one physicality check returns the Bell weights inside the tetrahedron
    for x in [*BELL_CORNERS, *(0.3 * BELL_CORNERS), np.zeros(3)]:
        assert physical_probs(x) == bd_corr_to_probs(x)
    # sign pattern matters: this point has a negative Bell weight
    for x in (np.array([0.9, -0.9, 0.2]), np.array([1.05, 1.05, -1.05])):
        with pytest.raises(NonPhysical):
            physical_probs(x)


def test_max_pair_sum():
    assert max_pair_sum(np.array([0.8, 0.7, 0.1])) == pytest.approx(1.13, abs=1e-12)
    assert max_pair_sum(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.13, abs=1e-12)


def test_bd_is_chsh_local_rejects_nonphysical():
    with pytest.raises(NonPhysical):
        bd_is_chsh_local(np.array([0.9, -0.9, 0.2]))


def test_bd_agreement_with_general_criterion(rng):
    for _ in range(N_SAMPLES):
        a = random_tetra_corr(rng)
        assert bd_is_chsh_local(a) == chsh_verdict(diag_rep(a)).is_local


def test_bd_is_chsh_local_takes_a_checked_state(rng):
    # the state, as every measure passes it, has the verdict of its correlators
    for _ in range(200):
        a = random_tetra_corr(rng)
        e = bd_corr_to_probs(a)
        for state in (BellDiagonal.from_corr(a), BellDiagonal.from_probs(e), BellDiagonal(a, e)):
            assert bd_is_chsh_local(state) == bd_is_chsh_local(a), a
    assert bd_is_chsh_local(BellDiagonal.from_corr((-T, -T, -T)))


def test_local_set_is_convex(rng):
    for _ in range(N_SAMPLES):
        a1 = random_local_corr(rng)
        a2 = random_local_corr(rng)
        lam = rng.uniform()
        assert bd_is_chsh_local(lam * a1 + (1.0 - lam) * a2)


@given(w=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_werner_line_locality_threshold(w):
    a = w * BELL_CORNERS[3]
    assert bd_is_chsh_local(a) == (w <= 1.0 / math.sqrt(2.0) + 1e-12)


def _is_local(x, tol=1e-12) -> bool:
    return in_tetrahedron(x, tol=tol) and max_pair_sum(x) <= 1.0 + tol


def _shrink_into_local_set(x) -> np.ndarray:
    """Scale x toward the origin, an interior point, until it is local."""
    scale = min(1.0, 1.0 / math.sqrt(max_pair_sum(x)))
    for c in BELL_CORNERS:
        if c @ x < -1.0:
            scale = min(scale, -1.0 / (c @ x))
    return scale * x


def _slsqp_distance(a) -> float:
    """Reference distance from a to the local set: scipy SLSQP from the origin
    and from the radially shrunk input. SLSQP may stop up to ~1e-10 outside
    the set, so each result is first shrunk into it; the reference is then
    the distance to a local point, an upper bound on the true distance."""
    optimize = pytest.importorskip("scipy.optimize")
    cons = [
        {"type": "ineq", "fun": lambda x, i=i, j=j: 1.0 - x[i] ** 2 - x[j] ** 2}
        for i, j in ((0, 1), (0, 2), (1, 2))
    ] + [{"type": "ineq", "fun": lambda x, c=c: 1.0 + c @ x} for c in BELL_CORNERS]
    best = math.inf
    for x0 in (np.zeros(3), a / math.sqrt(max_pair_sum(a))):
        res = optimize.minimize(
            lambda x: np.sum((x - a) ** 2),
            x0,
            jac=lambda x: 2.0 * (x - a),
            constraints=cons,
            method="SLSQP",
            options={"ftol": 1e-15, "maxiter": 500},
        )
        x = _shrink_into_local_set(res.x)
        assert _is_local(x)
        best = min(best, float(np.linalg.norm(x - a)))
    return best


def _face_and_edge_corr(rng) -> np.ndarray:
    """A nonlocal input with one or two Bell weights exactly 0, so a facet
    constraint of the local set is active at the input itself."""
    while True:
        e = rng.dirichlet(np.full(4, 0.3))
        e[rng.choice(4, size=rng.integers(1, 3), replace=False)] = 0.0
        a = np.array(bd_probs_to_corr(e / e.sum()))
        if max_pair_sum(a) > 1.0 + 1e-3:
            return a


def test_hs_closest_local_is_the_slsqp_projection(rng):
    inputs = [random_nonlocal_corr(rng) for _ in range(200)]
    inputs += [_face_and_edge_corr(rng) for _ in range(100)]
    for a in inputs:
        # the HS measure is half the distance to the projection, closest_local
        res = bd_measure(DistanceKind.HS, a)
        ref = _slsqp_distance(a)
        assert 2 * res.value == pytest.approx(ref, abs=1e-9)
        # the reference is a local point, so it bounds the projection; the
        # slack covers rounding in the two distance computations only
        assert 2 * res.value <= ref + 1e-15
        assert 2 * res.value == pytest.approx(np.linalg.norm(res.closest_local.a - a), abs=1e-15)


def _boundary_point(y) -> np.ndarray:
    """Push a local point y radially out to the boundary of the local set."""
    return _shrink_into_local_set(1e6 * y)


def test_hs_closest_local_meets_the_variational_inequality(rng):
    # p is the projection iff (a - p) . (y - p) <= 0 for every local y
    probes = [random_local_corr(rng) for _ in range(300)]
    probes += [_boundary_point(y) for y in probes[:150]]
    probes += [T * c for c in BELL_CORNERS] + list(np.eye(3)) + list(-np.eye(3))
    probes = [y for y in probes if _is_local(y)]
    assert len(probes) >= 400
    for _ in range(60):
        a = random_nonlocal_corr(rng)
        p = bd_measure(DistanceKind.HS, a).closest_local.a
        assert max(float((a - p) @ (y - p)) for y in probes) <= 1e-12


def test_hs_closest_local_is_feasible_and_idempotent(rng):
    surfaces = set()
    for _ in range(300):
        a = random_nonlocal_corr(rng)
        res = bd_measure(DistanceKind.HS, a)
        p = res.closest_local.a
        surfaces.add(res.surface)
        assert _is_local(p)
        assert max_pair_sum(p) == pytest.approx(1.0, abs=1e-12)
        again = bd_measure(DistanceKind.HS, p)
        assert again.surface is None and 2 * again.value == 0.0
        assert np.array_equal(again.closest_local.a, p)
    # single disks, two-disk arcs and vertices all occur
    assert {"disk_12", "disk_12+disk_13", "vertex"} <= surfaces
    local = random_local_corr(rng)
    assert 2 * bd_measure(DistanceKind.HS, local).value == 0.0
    with pytest.raises(NonPhysical):
        bd_measure(DistanceKind.HS, np.array([0.9, -0.9, 0.2]))


def test_surface_name():
    assert surface_name([]) is None
    assert surface_name([(2, 1)]) == "disk_23"
    # two pieces in lexicographic order, whatever order they come in
    assert surface_name([(1, 2), (0, 2)]) == "disk_13+disk_23"
    assert surface_name([(0, 2), (1, 0)]) == "disk_12+disk_13"
    assert surface_name([(1, 2), (0, 1), (0, 2)]) == "vertex"


def _index_scan_map_back(order, w, pairs):
    """The map back as one index scan per weight and the axis rule run on
    every call: the oracle that from_chamber's direct placement and surface
    table must equal."""
    e = [w[order.index(k)] for k in range(4)]
    axes = [(order[0] ^ order[j]) - 1 for j in (1, 2, 3)]
    return e, surface_name([(axes[i], axes[j]) for i, j in pairs])


def test_from_chamber_equals_the_index_scan_for_every_order_and_piece(rng):
    # every pair set the chamber solve (solver._PAIRS) and the trace form
    # (one cylinder, the arc of two, the vertex) end on
    pieces = {*solver._PAIRS.values(), ((0, 1),), ((0, 1), (0, 2)), solver.DISK_PAIRS}
    weights = [(0.4, 0.3, 0.2, 0.1), (0.5, 0.5, 0.0, 0.0)] + [tuple(rng.dirichlet(np.ones(4))) for _ in range(20)]
    orders = list(itertools.permutations(range(4)))
    assert len(orders) == 24 and len(pieces) == 3
    for w in weights:
        w = tuple(map(float, w))
        for order in orders:
            for pairs in pieces:
                state, surface = from_chamber(order, w, pairs)
                e, name = _index_scan_map_back(order, w, pairs)
                assert state.e == tuple(e) and state.a == bd_probs_to_corr(e)
                assert surface == name, (order, pairs)


def test_bell_corners_and_werner_line_map_to_threshold_vertex():
    for corner in BELL_CORNERS:
        for w in np.linspace(0.72, 1.0, 8):
            res = bd_measure(DistanceKind.HS, w * corner)
            assert res.surface == "vertex"
            assert res.closest_local.a == pytest.approx(T * corner, abs=1e-15)
            assert 2 * res.value == pytest.approx(math.sqrt(3.0) * (w - T), abs=1e-14)


def _arc_tangent_residual(a, res) -> float:
    """Component of a - p, with p the HS measure's closest correlators, along
    the arc through p where the two named cylinders meet, whose tangent is
    the cross product of their normals."""
    p = res.closest_local.a
    normals = np.zeros((2, 3))
    for row, name in enumerate(res.surface.split("+")):
        for c in name[len("disk_"):]:
            normals[row, int(c) - 1] = p[int(c) - 1]
    tangent = np.cross(normals[0], normals[1])
    return abs(float((a - p) @ tangent)) / float(np.linalg.norm(tangent))


def test_arc_projection_is_stationary_on_its_arc(rng):
    res = bd_measure(DistanceKind.HS, ARC_INPUT)
    assert res.surface == "disk_12+disk_23"
    assert _arc_tangent_residual(ARC_INPUT, res) <= 1e-13
    arcs = 0
    for _ in range(300):
        a = random_nonlocal_corr(rng)
        res = bd_measure(DistanceKind.HS, a)
        if "+" in res.surface:
            arcs += 1
            assert _arc_tangent_residual(a, res) <= 1e-13
    assert arcs >= 50
