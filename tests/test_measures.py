import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import ARC_INPUT, random_local_corr, random_nonlocal_corr, random_tetra_corr
from nlgeo.errors import DimensionMismatch, NonPhysical, OutOfRange
from nlgeo.locality import BOUNDARY_TOL, cglmp_threshold, in_tetrahedron, max_pair_sum
from nlgeo.measures import (
    OBJECTIVE_KINDS,
    BdObjective,
    bd_grid,
    bd_measure,
    bd_measure_hs,
    bd_measure_numeric,
    bd_sweep,
    formula_agrees,
    isotropic_measure,
    isotropic_reference_formula,
    isotropic_values,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
    werner_values,
)
from nlgeo import qstate
from nlgeo.cli import main
from nlgeo.metrics import (
    DistanceKind,
    dist_bures,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    rel_entropy,
)
from nlgeo.qstate import (
    BELL_CORNERS,
    bd_corr_to_probs,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
)

T = 1.0 / math.sqrt(2.0)
KINDS = list(DistanceKind)

# closed-form anchors, frozen from the formulas
W09 = {
    DistanceKind.HS: 0.16705042771020032,
    DistanceKind.HELLINGER: 0.044105605422868344,
    DistanceKind.BURES: 0.044105605422868344,
    DistanceKind.TRACE: 0.14466991411008942,
    DistanceKind.RELATIVE_ENTROPY: 0.11068806850889959,
}
WMAX = {
    DistanceKind.HS: 0.2536529680886442,
    DistanceKind.HELLINGER: 0.2332741175950237,
    DistanceKind.BURES: 0.2332741175950237,
    DistanceKind.TRACE: 0.2196699141100894,
    DistanceKind.RELATIVE_ENTROPY: 0.357843570218608,
}

METRIC_BY_KIND = {
    DistanceKind.HS: dist_hs,
    DistanceKind.HELLINGER: dist_hellinger_sq,
    DistanceKind.BURES: lambda r1, r2: dist_bures(r1, r2) ** 2,
    DistanceKind.TRACE: dist_trace,
    DistanceKind.RELATIVE_ENTROPY: rel_entropy,
}


def tetra_symmetries():
    """The 24 signed permutations of the correlators preserving the tetrahedron."""
    corners = {tuple(c) for c in BELL_CORNERS}
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for r, (c, s) in enumerate(zip(perm, signs)):
                m[r, c] = s
            if {tuple(m @ c) for c in BELL_CORNERS} == corners:
                out.append(m)
    return out


def test_werner_closed_form_anchors():
    for kind, expected in W09.items():
        assert werner_measure(kind, 0.9).value == pytest.approx(expected, abs=1e-14)
    for kind, expected in WMAX.items():
        res = werner_measure(kind, 1.0)
        assert res.value == pytest.approx(expected, abs=1e-14)
        assert res.method == "closed_form"
        assert res.closest_local.w == pytest.approx(T, abs=1e-15)


def test_werner_measure_matches_matrix_level_definitions():
    loc = make_werner(T)
    for w in (0.75, 0.9, 1.0):
        rho = make_werner(w)
        for kind in KINDS:
            direct = METRIC_BY_KIND[kind](rho, loc)
            assert werner_measure(kind, w).value == pytest.approx(direct, abs=1e-9), kind


def test_werner_below_threshold_returns_input():
    for kind in KINDS:
        for w in (-0.2, 0.0, 0.5, T):
            res = werner_measure(kind, w)
            assert res.value == 0.0
            assert res.closest_local.w == w
            assert res.iterations == 0


def test_werner_measure_range_errors():
    for bad in (-0.34, 1.2):
        with pytest.raises(OutOfRange):
            werner_measure(DistanceKind.HS, bad)


def test_werner_max_is_the_normalizer():
    for kind in KINDS:
        assert werner_max(kind) == werner_measure(kind, 1.0).value


def _werner_scalar(kind, w):
    """The scalar closed forms, written out with math as the reference."""
    if w <= T + BOUNDARY_TOL:
        return 0.0
    if kind is DistanceKind.HS:
        return (math.sqrt(3.0) / 2.0) * (w - T)
    if kind in (DistanceKind.HELLINGER, DistanceKind.BURES):
        return 2.0 - 0.5 * (
            3.0 * math.sqrt((1.0 - w) * (1.0 - T)) + math.sqrt((1.0 + 3.0 * w) * (1.0 + 3.0 * T))
        )
    if kind is DistanceKind.TRACE:
        return 0.75 * (w - T)
    p = [(1.0 + 3.0 * w) / 4.0] + [(1.0 - w) / 4.0] * 3
    q = [(1.0 + 3.0 * T) / 4.0] + [(1.0 - T) / 4.0] * 3
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 1e-15:
            total += pi * math.log2(pi / qi)
    return max(total, 0.0)


def test_werner_values_match_scalar_closed_forms():
    ws = np.concatenate(
        [np.linspace(T, 1.0, 2001), [1.0, T - 1e-13, T + 1e-13, T, 0.5, 0.0, -0.3]]
    )
    for kind in KINDS:
        got = werner_values(kind, ws)
        assert got.tolist() == [_werner_scalar(kind, float(w)) for w in ws], kind
        for w in ws[::97]:
            assert werner_measure(kind, float(w)).value == werner_values(kind, [w])[0]
        for bad in ([0.9, 1.2], [-0.34, 0.9], [0.9, math.nan]):
            with pytest.raises(OutOfRange):
                werner_values(kind, bad)
        # WernerParam admits rounding slack above 1, where 1 - w < 0
        assert werner_values(kind, [1.0 + 5e-13])[0] == pytest.approx(werner_max(kind), abs=1e-11)


def test_iso_builds_no_density_matrix(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("iso must not build or diagonalize a density matrix")

    monkeypatch.setattr(qstate, "make_isotropic", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    kinds = [flag for k in KINDS for flag in ("--kind", k.value)]
    assert main(["iso", "--d", "3", "--n", "20", *kinds, "--out", str(tmp_path / "iso.csv")]) == 0
    # one array evaluation per kind gives the same values in either loop order
    grid = [0.75, 0.8, 0.95, 1.0]
    by_omega = {(k, om): isotropic_measure(k, 3, om).value for om in grid for k in KINDS}
    by_kind = {(k, om): isotropic_measure(k, 3, om).value for k in KINDS for om in grid}
    assert by_omega == by_kind


def test_isotropic_values_match_dense_definitions():
    dense = {
        DistanceKind.HS: dist_hs,
        DistanceKind.HELLINGER: dist_hellinger_sq,
        DistanceKind.BURES: lambda r, s: dist_bures(r, s) ** 2,
        DistanceKind.TRACE: dist_trace,
        DistanceKind.RELATIVE_ENTROPY: rel_entropy,
    }
    for d in (2, 3, 5, 8):
        thr = cglmp_threshold(d).omega_threshold
        loc = make_isotropic(d, thr)
        omegas = np.concatenate(
            [np.linspace(thr - 0.05, 0.999, 13), [thr, thr + 1e-9, 1.0 - 1e-4, 1.0 - 1e-6]]
        )
        for kind in KINDS:
            got = isotropic_values(kind, d, omegas)
            want = [dense[kind](make_isotropic(d, om), loc) if om > thr else 0.0 for om in omegas]
            # the dense Bures path takes the fidelity of a nearly rank-1 matrix
            # root, which alone costs up to ~7e-12 at d = 8 near omega = 1
            tol = 1e-11 if kind is DistanceKind.BURES else 1e-12
            assert np.max(np.abs(got - want)) <= tol, (d, kind)
        # at omega = 1 the dense path is off by up to ~3e-7, so check identities
        at_one = {k: isotropic_values(k, d, [1.0])[0] for k in KINDS}
        assert at_one[DistanceKind.BURES] == at_one[DistanceKind.HELLINGER]
        assert at_one[DistanceKind.HS] == math.sqrt(1.0 - 1.0 / d**2) * (1.0 - thr)
        assert at_one[DistanceKind.TRACE] == (d**2 - 1.0) / d**2 * (1.0 - thr)
        assert isotropic_values(DistanceKind.BURES, d, omegas).tolist() == isotropic_values(
            DistanceKind.HELLINGER, d, omegas
        ).tolist()


def test_isotropic_values_at_d2_are_werner_values():
    ws = np.concatenate([np.linspace(0.0, 1.0, 1001), [T, T + 1e-13, T + 1e-11]])
    for kind in KINDS:
        assert np.max(np.abs(isotropic_values(kind, 2, ws) - werner_values(kind, ws))) <= 1e-15, kind


def test_isotropic_values_range_errors():
    for kind in KINDS:
        for d, bad in ((3, [0.9, math.nan]), (3, [0.9, 1.2]), (3, [-0.2, 0.9]), (2, [-0.34])):
            with pytest.raises(OutOfRange):
                isotropic_values(kind, d, bad)
        with pytest.raises(OutOfRange):
            isotropic_values(kind, 1, [0.5])
        # IsotropicParam admits rounding slack above 1, where 1 - omega < 0
        assert math.isfinite(isotropic_values(kind, 3, [1.0 + 5e-13])[0])


def test_bures_equals_hellinger_on_werner_line():
    for w in np.linspace(0.72, 1.0, 9):
        he = werner_measure(DistanceKind.HELLINGER, w).value
        bu = werner_measure(DistanceKind.BURES, w).value
        assert abs(he - bu) <= 1e-15


def test_bures_is_the_hellinger_result(rng):
    # on commuting states the two squared distances agree, so a Bures
    # request returns the Hellinger solve under its own kind
    inputs = [random_nonlocal_corr(rng) for _ in range(6)]
    inputs += [w * BELL_CORNERS[k] for k in (0, 3) for w in (0.75, 0.9, 1.0)]
    inputs += [random_local_corr(rng) for _ in range(5)]
    for a in inputs:
        bu = bd_measure(DistanceKind.BURES, a)
        he = bd_measure(DistanceKind.HELLINGER, a)
        assert bu.kind is DistanceKind.BURES
        # field for field, apart from kind; the closest state by its arrays
        assert dataclasses.replace(
            bu, kind=DistanceKind.HELLINGER, closest_local=None
        ) == dataclasses.replace(he, closest_local=None), a
        assert np.array_equal(bu.closest_local.a, he.closest_local.a)


def test_hs_and_bures_have_no_objective():
    a = np.array([0.84, 0.63, -0.5])
    with pytest.raises(OutOfRange):
        bd_measure_numeric(DistanceKind.HS, a)
    for kind in (DistanceKind.HS, DistanceKind.BURES):
        with pytest.raises(OutOfRange):
            BdObjective(kind, a)


def test_hs_case_path_anchor():
    res = bd_measure_hs(np.array([0.84, 0.63, -0.5]))
    assert res.method == "lagrange_case"
    assert res.surface == "disk_12"
    assert res.value == pytest.approx(0.5 * (math.hypot(0.84, 0.63) - 1.0), abs=1e-15)
    assert res.closest_local.a == pytest.approx([0.8, 0.6, -0.5], abs=1e-12)
    confirm = bd_measure(DistanceKind.HS, np.array([0.84, 0.63, -0.5]))
    assert confirm.value == pytest.approx(res.value, abs=1e-8)


def test_hs_case_formula_whenever_taken(rng):
    single_disk = {"disk_12": (0, 1), "disk_13": (0, 2), "disk_23": (1, 2)}
    seen = 0
    for _ in range(400):
        a = random_nonlocal_corr(rng)
        res = bd_measure_hs(a)
        assert res.method == "lagrange_case"
        if res.surface not in single_disk:
            continue
        seen += 1
        i, j = single_disk[res.surface]
        assert res.value == pytest.approx(
            0.5 * (math.hypot(a[i], a[j]) - 1.0), abs=1e-12
        )
        assert in_tetrahedron(res.closest_local.a, tol=1e-12)
        assert max_pair_sum(res.closest_local.a) <= 1.0 + 1e-12
    assert seen >= 5  # the sampler must actually exercise the closed-form branch


def test_hs_corner_is_exact():
    # near a Bell corner no single disk is active: the projection is the
    # threshold vertex on the corner's ray
    res = bd_measure_hs(0.9 * BELL_CORNERS[0])
    assert res.method == "lagrange_case"
    assert res.surface == "vertex"
    assert res.converged and res.iterations == 0
    assert res.value == pytest.approx(W09[DistanceKind.HS], abs=1e-14)
    assert res.closest_local.a == pytest.approx(T * BELL_CORNERS[0], abs=1e-15)
    top = bd_measure_hs(np.array(two_bell_mix_corr(1.0)))
    assert top.method == "lagrange_case"
    assert top.value == pytest.approx(WMAX[DistanceKind.HS], abs=1e-14)


# Bell weights w = (1 + S a) / 4; the reference below is written from them
# and does not use nlgeo's objectives or solver.
S = np.array([[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
PAIRS = ((0, 1), (0, 2), (1, 2))

# ROADMAP's false-convergence inputs: the penalty solver reported converged
# values above the SLSQP reference on them
FALSE_CONVERGENCE = (
    (DistanceKind.RELATIVE_ENTROPY, (-0.93466, -0.33381, -0.39911)),
    (DistanceKind.HELLINGER, (-0.99139, 0.14711, 0.13851)),
    (DistanceKind.HELLINGER, (0.65514, -0.55277, 0.89761)),
)


def _classical_distance(kind, p, q) -> float:
    if kind is DistanceKind.HELLINGER:
        return 2.0 - 2.0 * float(np.sum(np.sqrt(p * q)))
    if kind is DistanceKind.TRACE:
        return 0.5 * float(np.sum(np.abs(p - q)))
    pos = p > 0.0
    return float(np.sum(p[pos] * np.log2(p[pos] / q[pos])))


def _into_local_set(x):
    """Shrink x toward the maximally mixed point until it is strictly in L."""
    scale = 1.0 / math.sqrt(max(max_pair_sum(x), 1.0))
    for v in S @ x:
        if v < -1.0:
            scale = min(scale, -1.0 / v)
    return (1.0 - 1e-12) * scale * x


def slsqp_value(kind, a) -> float:
    """Best SLSQP value over three starts, each result made feasible and scored.

    Every returned value is attained by a point of L, so it bounds the true
    minimum from above. The trace kind is solved as a linear objective in
    auxiliary variables u >= |w - e|.
    """
    from scipy.optimize import minimize

    e = np.clip(0.25 * (1.0 + S @ a), 0.0, None)
    n = 4 if kind is DistanceKind.TRACE else 0
    pad = np.zeros((4, n))

    def disks(z):
        return np.array([1.0 - z[i] ** 2 - z[j] ** 2 for i, j in PAIRS])

    def disks_jac(z):
        jac = np.zeros((3, 3 + n))
        for row, (i, j) in enumerate(PAIRS):
            jac[row, i], jac[row, j] = -2.0 * z[i], -2.0 * z[j]
        return jac

    cons = [
        {"type": "ineq", "fun": lambda z: 1.0 + S @ z[:3], "jac": lambda z: np.hstack([S, pad])},
        {"type": "ineq", "fun": disks, "jac": disks_jac},
    ]
    if kind is DistanceKind.TRACE:
        gap = np.hstack([-0.25 * S, np.eye(4)])
        cons += [
            {"type": "ineq", "fun": lambda z: z[3:] - 0.25 * (1.0 + S @ z[:3]) + e, "jac": lambda z: gap},
            {"type": "ineq", "fun": lambda z: z[3:] + 0.25 * (1.0 + S @ z[:3]) - e,
             "jac": lambda z: np.hstack([0.25 * S, np.eye(4)])},
        ]

        def fun(z):
            return 0.5 * float(np.sum(z[3:])), np.concatenate([np.zeros(3), np.full(4, 0.5)])

    elif kind is DistanceKind.HELLINGER:

        def fun(z):
            w = np.clip(0.25 * (1.0 + S @ z), 1e-300, None)
            return _classical_distance(kind, e, w), -0.25 * S.T @ np.sqrt(e / w)

    else:

        def fun(z):
            w = np.clip(0.25 * (1.0 + S @ z), 1e-300, None)
            return _classical_distance(kind, e, w), -0.25 * S.T @ (e / (w * math.log(2.0)))

    starts = [np.zeros(3), a / math.sqrt(max_pair_sum(a)), T * S[int(np.argmax(S @ a))]]
    best = math.inf
    for x0 in starts:
        x0 = 0.999 * _into_local_set(np.array(x0, dtype=float))
        z0 = np.concatenate([x0, np.abs(0.25 * (1.0 + S @ x0) - e)]) if n else x0
        res = minimize(
            fun, z0, jac=True, method="SLSQP", constraints=cons,
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = _into_local_set(res.x[:3])
        best = min(best, _classical_distance(kind, e, 0.25 * (1.0 + S @ x)))
    return best


def _face_and_edge_inputs(rng, n):
    """Nonlocal inputs with one or two Bell weights exactly 0.

    The weights are multiples of 2^-20, so the correlators, and the weights
    recomputed from them, are exact in floating point.
    """
    out = []
    while len(out) < n:
        zeros = 1 + len(out) % 2
        keep = rng.permutation(4)[zeros:]
        e = np.zeros(4)
        e[keep] = np.round(rng.dirichlet(np.full(4 - zeros, 0.5)) * 2.0**20) / 2.0**20
        e[keep[0]] = 1.0 - (np.sum(e) - e[keep[0]])
        a = S.T @ e
        if min(e[keep]) > 0.0 and max_pair_sum(a) > 1.0 + 1e-3:
            assert np.array_equal(0.25 * (1.0 + S @ a), e)
            out.append(a)
    return out


def test_numeric_not_above_slsqp(rng):
    # optimality off the Werner line: the one barrier solve is never worse
    # than an independent SLSQP reference, and its point lies in L
    inputs = [(k, random_nonlocal_corr(rng)) for _ in range(100) for k in OBJECTIVE_KINDS]
    inputs += [(k, a) for a in _face_and_edge_inputs(rng, 30) for k in OBJECTIVE_KINDS]
    inputs += [(k, np.array(a)) for k, a in FALSE_CONVERGENCE]
    for kind, a in inputs:
        res = bd_measure_numeric(kind, a)
        assert res.converged, (kind, a)
        assert res.value <= slsqp_value(kind, a) + 1e-9, (kind, a)
        assert in_tetrahedron(res.closest_local.a, tol=BOUNDARY_TOL)
        assert max_pair_sum(res.closest_local.a) <= 1.0 + BOUNDARY_TOL


def test_all_infinite_starts_raise_not_converged():
    # on this relative-entropy input every start of the former multi-start
    # solver scored inf and the solve raised NotConverged; the barrier solve
    # stays strictly inside L, where the divergence is finite
    a = np.array([0.9990814418247234, -0.06587608316916732, 0.06497482141988592])
    res = bd_measure(DistanceKind.RELATIVE_ENTROPY, a)
    assert res.converged
    assert math.isfinite(res.value) and res.value > 0.0
    assert res.value <= slsqp_value(DistanceKind.RELATIVE_ENTROPY, a) + 1e-9


def test_zero_on_local(rng):
    for _ in range(1000):
        a = random_local_corr(rng)
        for kind in KINDS:
            res = bd_measure(kind, a)
            assert res.value == 0.0
            assert res.method == "closed_form"
            assert res.iterations <= 1
            assert np.array_equal(res.closest_local.a, a)


def test_nonphysical_rejected_everywhere():
    bad = np.array([0.9, -0.9, 0.2])
    with pytest.raises(NonPhysical):
        bd_measure_hs(bad)
    for kind in KINDS:
        with pytest.raises(NonPhysical):
            bd_measure(kind, bad)


def test_wrong_length_correlators_rejected_everywhere():
    for a in ((0.9, 0.9), (0.9, 0.9, 0.1, 0.0)):
        with pytest.raises(DimensionMismatch):
            in_tetrahedron(a)
        for kind in KINDS:
            with pytest.raises(DimensionMismatch):
                bd_measure(kind, a)


def test_numeric_matches_werner_closed_forms():
    for kind in KINDS:
        for w in np.linspace(0.72, 1.0, 5):
            res = bd_measure(kind, w * BELL_CORNERS[3])
            assert res.converged
            assert res.value == pytest.approx(werner_measure(kind, w).value, abs=1e-6)


def test_bell_state_closest_local_structure():
    # at a Bell corner the minimizer recovers the threshold state on that ray
    res = bd_measure_numeric(DistanceKind.HELLINGER, np.array(BELL_CORNERS[0]))
    assert res.value == pytest.approx(WMAX[DistanceKind.HELLINGER], abs=1e-6)
    e = res.closest_local.e
    expected = np.array([(1 + 3 * T) / 4] + [(1 - T) / 4] * 3)
    assert e == pytest.approx(expected, abs=1e-4)


def test_boundary_attainment(rng):
    for _ in range(12):
        a = random_nonlocal_corr(rng)
        for kind in KINDS:
            res = bd_measure(kind, a)
            assert max_pair_sum(res.closest_local.a) == pytest.approx(1.0, abs=1e-8), kind
            assert in_tetrahedron(res.closest_local.a, tol=1e-9)


def test_value_reproduced_by_metrics(rng):
    for _ in range(8):
        a = random_nonlocal_corr(rng)
        rho = make_bell_diagonal(a=a)
        for kind in KINDS:
            res = bd_measure(kind, a)
            close = make_bell_diagonal(a=np.clip(res.closest_local.a, -1.0, 1.0))
            direct = METRIC_BY_KIND[kind](rho, close)
            assert direct == pytest.approx(res.value, abs=1e-8), kind


def test_measure_invariant_under_tetra_symmetries():
    syms = tetra_symmetries()
    assert len(syms) == 24
    # a single cylinder, an arc where two cylinders meet, and a vertex
    points = [np.array([0.84, 0.63, -0.5]), ARC_INPUT, 0.88 * BELL_CORNERS[1]]
    kinds = [k for k in KINDS if k is not DistanceKind.BURES]  # bu shares he
    for a in points:
        for kind in kinds:
            base = bd_measure(kind, a).value
            for m in syms:
                assert bd_measure(kind, m @ a).value == pytest.approx(base, abs=1e-8)


def test_monotone_along_rays_hs(rng):
    for _ in range(50):
        a = random_nonlocal_corr(rng)
        e = bd_corr_to_probs(a)
        slopes = 4.0 * e - 1.0
        lam_max = min(-1.0 / s for s in slopes if s < 0)
        values = [
            bd_measure_hs(lam * a).value
            for lam in np.linspace(0.0, min(lam_max, 1.0 / max_pair_sum(a) * 1.6), 20)
        ]
        assert all(b >= a_ - 1e-9 for a_, b in zip(values, values[1:]))


def test_monotone_along_rays_numeric():
    a = np.array([0.3, -0.3, 1.0])
    for kind in (DistanceKind.TRACE, DistanceKind.RELATIVE_ENTROPY, DistanceKind.HELLINGER):
        values = [
            bd_measure_numeric(kind, lam * a).value for lam in np.linspace(0.6, 1.0, 8)
        ]
        assert all(b >= a_ - 1e-7 for a_, b in zip(values, values[1:]))


def test_relative_entropy_finite_for_interior_inputs(rng):
    for _ in range(20):
        a = 0.98 * random_nonlocal_corr(rng, margin=0.05)
        if not max_pair_sum(a) > 1.0:
            continue
        res = bd_measure_numeric(DistanceKind.RELATIVE_ENTROPY, a)
        assert math.isfinite(res.value)
        assert res.value > 0.0


def test_isotropic_d2_matches_werner():
    for omega in (0.75, 0.9, 1.0):
        for kind in (
            DistanceKind.HS,
            DistanceKind.HELLINGER,
            DistanceKind.TRACE,
            DistanceKind.RELATIVE_ENTROPY,
        ):
            iso = isotropic_measure(kind, 2, omega)
            assert iso.value == pytest.approx(werner_measure(kind, omega).value, abs=1e-9)
    assert isotropic_measure(DistanceKind.BURES, 2, 0.9).value == pytest.approx(
        werner_measure(DistanceKind.BURES, 0.9).value, abs=1e-9
    )
    assert isotropic_measure(DistanceKind.BURES, 2, 1.0).value == pytest.approx(
        werner_measure(DistanceKind.BURES, 1.0).value, abs=1e-12
    )


def test_isotropic_zero_at_and_below_threshold():
    for kind in KINDS:
        assert isotropic_measure(kind, 3, 0.696152).value == 0.0
        assert isotropic_measure(kind, 2, 0.5).value == 0.0
    res = isotropic_measure(DistanceKind.HS, 3, 0.4)
    assert res.closest_local.omega == 0.4


def _consistency(kind, d, omega):
    """The value, the quoted formula and their flag, as iso writes them."""
    value = float(isotropic_values(kind, d, [omega])[0])
    reference = isotropic_reference_formula(kind, d, omega)
    return value, reference, formula_agrees(value, reference)


def test_isotropic_consistency_flags():
    for d in (2, 3, 5):
        thr = cglmp_threshold(d).omega_threshold
        for omega in np.linspace(thr + 0.05, 1.0, 4):
            _, _, flag = _consistency(DistanceKind.HS, d, omega)
            assert flag is True, (d, omega)
    for kind in (DistanceKind.TRACE, DistanceKind.HELLINGER, DistanceKind.RELATIVE_ENTROPY):
        value, reference, flag = _consistency(kind, 2, 0.9)
        assert flag is False
        assert reference is not None and reference != pytest.approx(value, abs=1e-9)
    value, reference, flag = _consistency(DistanceKind.BURES, 2, 0.9)
    assert reference is None and flag is None


def test_isotropic_printed_trace_formula_value():
    # the printed trace expression doubles the definition-based d=2 value
    ref = isotropic_reference_formula(DistanceKind.TRACE, 2, 1.0)
    assert ref == pytest.approx(0.4393398282201788, abs=1e-12)
    assert ref == pytest.approx(2.0 * WMAX[DistanceKind.TRACE], abs=1e-12)


def test_isotropic_range_errors():
    with pytest.raises(OutOfRange):
        isotropic_measure(DistanceKind.HS, 1, 0.5)
    with pytest.raises(OutOfRange):
        isotropic_measure(DistanceKind.HS, 3, 1.2)


def test_two_bell_mix_family():
    assert two_bell_mix_corr(0.5) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
    assert two_bell_mix_corr(1.0) == pytest.approx([1.0, -1.0, 1.0], abs=1e-15)
    with pytest.raises(OutOfRange):
        two_bell_mix_corr(1.2)
    # every member is physical
    for p in np.linspace(0.0, 1.0, 11):
        make_bell_diagonal(a=two_bell_mix_corr(p)).validate()


def test_bd_sweep_two_bell_mix():
    for kind in KINDS:
        rows = bd_sweep(kind, "two_bell_mix", 5)
        assert rows.shape == (5, 2)
        assert rows[0, 0] == 0.5 and rows[-1, 0] == 1.0
        assert rows[0, 1] == 0.0  # p = 1/2 is the local point
        assert rows[-1, 1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(rows[:, 1] >= 0.0) and np.all(rows[:, 1] <= 1.0 + 1e-6)


def test_bd_sweep_werner_line():
    rows = bd_sweep(DistanceKind.TRACE, "werner_line", 7)
    assert rows[0, 1] == 0.0
    assert rows[-1, 1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(rows[:, 1]) >= -1e-9)


def test_bd_sweep_argument_errors():
    with pytest.raises(OutOfRange):
        bd_sweep(DistanceKind.HS, "unknown", 5)
    with pytest.raises(OutOfRange):
        bd_sweep(DistanceKind.HS, "two_bell_mix", 1)


def test_bd_grid_structure_and_anchors():
    rows = bd_grid(DistanceKind.HS, 4)
    assert len(rows) == 15  # triangular node count for n = 4
    assert rows[0][:2] == (0.0, 0.0)
    # row-major: e1 varies slowest
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    for e1, e2, value in rows:
        assert e1 + e2 <= 1.0 + 1e-12
        assert 0.0 <= value <= 1.0 + 1e-9
    by_node = {(round(r[0], 12), round(r[1], 12)): r[2] for r in rows}
    for vertex in ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)):
        assert by_node[vertex] == pytest.approx(1.0, abs=1e-9)
    assert by_node[(0.25, 0.25)] == 0.0  # central local plateau
    with pytest.raises(OutOfRange):
        bd_grid(DistanceKind.HS, 0)


def test_max_iters_validation():
    # the solver checks the budget, so only a nonlocal input reaches the check
    with pytest.raises(OutOfRange):
        bd_measure(DistanceKind.TRACE, 0.9 * BELL_CORNERS[3], max_iters=0)
    res = bd_measure_numeric(DistanceKind.TRACE, 0.9 * BELL_CORNERS[3], max_iters=50)
    assert res.value == pytest.approx(W09[DistanceKind.TRACE], abs=1e-9)


def test_gradient_matches_finite_differences(rng):
    # light smoke; the acceptance suite runs the full 100-point gate
    for kind in OBJECTIVE_KINDS:
        a = random_nonlocal_corr(rng)
        obj = BdObjective(kind, a)
        for _ in range(5):
            x = 0.97 * random_local_corr(rng)
            if kind is DistanceKind.TRACE and np.min(
                np.abs(bd_corr_to_probs(a) - bd_corr_to_probs(x))
            ) < 1e-3:
                continue  # keep clear of the kink
            g = obj.gradient(x)
            fd = np.empty(3)
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-6
                fd[i] = (obj.value(x + step) - obj.value(x - step)) / 2e-6
            denom = max(np.linalg.norm(g), 1e-9)
            assert np.linalg.norm(fd - g) / denom < 1e-4, kind
            # the Hessian against differences of the gradient; the trace kind
            # at its smoothing width, the only place it is curved
            eps = 1e-2
            h = np.array(obj.hessian_at(tuple(x), eps))
            assert np.array_equal(h, h.T)
            fd_h = np.empty((3, 3))
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-6
                gp = np.array(obj.gradient_at(tuple(x + step), eps))
                gm = np.array(obj.gradient_at(tuple(x - step), eps))
                fd_h[:, i] = (gp - gm) / 2e-6
            assert np.linalg.norm(fd_h - h) / max(np.linalg.norm(h), 1e-9) < 1e-4, kind
