import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import random_local_corr, random_nonlocal_corr, random_tetra_corr
from nlgeo.errors import NonPhysical, NotConverged, OutOfRange
from nlgeo.locality import cglmp_threshold, in_tetrahedron, max_pair_sum
from nlgeo.measures import (
    OBJECTIVE_KINDS,
    BdObjective,
    OptimizerConfig,
    bd_grid,
    bd_measure,
    bd_measure_hs,
    bd_measure_numeric,
    bd_sweep,
    isotropic_consistency,
    isotropic_measure,
    isotropic_reference_formula,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
)
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


def test_all_infinite_starts_raise_not_converged():
    # every start of this relative-entropy solve scores inf; the solver must
    # say so instead of failing on a missing minimizer
    a = np.array([0.9990814418247234, -0.06587608316916732, 0.06497482141988592])
    cfg = OptimizerConfig(seeds=1)
    for seed in range(4):
        with pytest.raises(NotConverged):
            bd_measure(DistanceKind.RELATIVE_ENTROPY, a, cfg, seed=seed)


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
    points = [np.array([0.84, 0.63, -0.5]), 0.88 * BELL_CORNERS[1]]
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
    # bures is checked apart: rank deficiency at omega = 1 costs a few 1e-9
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
        werner_measure(DistanceKind.BURES, 1.0).value, abs=5e-8
    )


def test_isotropic_zero_at_and_below_threshold():
    for kind in KINDS:
        assert isotropic_measure(kind, 3, 0.696152).value == 0.0
        assert isotropic_measure(kind, 2, 0.5).value == 0.0
    res = isotropic_measure(DistanceKind.HS, 3, 0.4)
    assert res.closest_local.omega == 0.4


def test_isotropic_consistency_flags():
    for d in (2, 3, 5):
        thr = cglmp_threshold(d).omega_threshold
        for omega in np.linspace(thr + 0.05, 1.0, 4):
            _, _, flag = isotropic_consistency(DistanceKind.HS, d, omega)
            assert flag is True, (d, omega)
    for kind in (DistanceKind.TRACE, DistanceKind.HELLINGER, DistanceKind.RELATIVE_ENTROPY):
        value, reference, flag = isotropic_consistency(kind, 2, 0.9)
        assert flag is False
        assert reference is not None and reference != pytest.approx(value, abs=1e-9)
    value, reference, flag = isotropic_consistency(DistanceKind.BURES, 2, 0.9)
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


def test_optimizer_config_validation():
    with pytest.raises(OutOfRange):
        OptimizerConfig(param_tol=0.0)
    with pytest.raises(OutOfRange):
        OptimizerConfig(max_iters=0)
    with pytest.raises(OutOfRange):
        OptimizerConfig(seeds=0)
    cfg = OptimizerConfig(max_iters=50, seeds=2)
    res = bd_measure_numeric(DistanceKind.TRACE, 0.9 * BELL_CORNERS[3], cfg=cfg)
    assert res.value == pytest.approx(W09[DistanceKind.TRACE], abs=1e-4)


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
