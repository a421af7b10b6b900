import decimal
import itertools
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ARC_INPUT,
    count_calls,
    hs_oracle,
    in_tetrahedron,
    nearest_in_chamber,
    random_local_corr,
    random_nonlocal_corr,
    random_tetra_corr,
)
from nlgeo.errors import DimensionMismatch, NonPhysical, NotConverged, OutOfRange
from nlgeo.locality import (
    BOUNDARY_TOL,
    bd_is_chsh_local,
    bell_chamber,
    cglmp_threshold,
    max_pair_sum,
)
from nlgeo.measures import (
    KERNELS,
    OBJECTIVE_KINDS,
    bd_grid,
    bd_measure,
    bd_measure_numeric,
    bd_sweep,
    isotropic_measure,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
    WERNER_THRESHOLD,
)
from nlgeo import arrays, dense, locality, measures, qstate, solver
from nlgeo.arrays import formula_agrees, isotropic_reference_formula, isotropic_values
from nlgeo.cli import main
from nlgeo.kinds import DistanceKind
from nlgeo.metrics import (
    dist_bures,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    rel_entropy,
)
from nlgeo.qstate import (
    BELL_CORNERS as CORNER_TUPLES,
    BellDiagonal,
    bd_corr_to_probs,
    bd_probs_to_corr,
    physical_probs,
)
from nlgeo.dense import make_bell_diagonal, make_isotropic, make_werner
from nlgeo.validation import MULTISEED_TOL
from test_solver import gradient_at, value_at, weights_hessian

T = 1.0 / math.sqrt(2.0)
# the corners as arrays, for the arithmetic below (nlgeo keeps them as tuples)
BELL_CORNERS = np.array(CORNER_TUPLES)
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


def test_werner_measure_at_minus_a_third_is_zero():
    for kind in KINDS:
        res = werner_measure(kind, -1.0 / 3.0)
        assert res.value == 0.0 and res.closest_local.w == -1.0 / 3.0
        for bad in (-1.0 / 3.0 - 1e-11, 1.2, math.nan):
            with pytest.raises(OutOfRange):
                werner_measure(kind, bad)


@pytest.mark.parametrize("kind", KINDS)
def test_werner_measure_is_the_d2_isotropic_measure_bit_for_bit(kind):
    t = cglmp_threshold(2).omega_threshold
    ws = np.linspace(-1.0 / 3.0, 1.0, 401).tolist()
    ws += [t, math.nextafter(t, 0.0), math.nextafter(t, 1.0), t - 1e-13, t + 1e-13, 1.0]
    values = [werner_measure(kind, w).value for w in ws]
    assert values == [isotropic_measure(kind, 2, w).value for w in ws]
    assert isotropic_values(kind, 2, ws).tolist() == values
    # the Werner record at the threshold is the isotropic one's weight
    assert werner_measure(kind, 0.9).closest_local.w == isotropic_measure(kind, 2, 0.9).closest_local.omega == t


def test_werner_max_is_the_normalizer():
    for kind in KINDS:
        assert werner_max(kind) == werner_measure(kind, 1.0).value


def _werner_scalar(kind, w):
    """The scalar closed forms, written out with math as the reference."""
    t = cglmp_threshold(2).omega_threshold
    if w <= t + BOUNDARY_TOL:
        return 0.0
    if kind is DistanceKind.HS:
        return (math.sqrt(3.0) / 2.0) * (w - t)
    if kind in (DistanceKind.HELLINGER, DistanceKind.BURES):
        return 2.0 - 0.5 * (
            3.0 * math.sqrt((1.0 - w) * (1.0 - t)) + math.sqrt((1.0 + 3.0 * w) * (1.0 + 3.0 * t))
        )
    if kind is DistanceKind.TRACE:
        return 0.75 * (w - t)
    # the spectral kernel's order: the big weight's term plus three times the
    # small weight's term (a weight <= 1e-15 contributes nothing)
    big, small = (1.0 + 3.0 * w) / 4.0, (1.0 - w) / 4.0
    small_term = small * math.log2(small / ((1.0 - t) / 4.0)) if small > 1e-15 else 0.0
    return max(big * math.log2(big / ((1.0 + 3.0 * t) / 4.0)) + 3.0 * small_term, 0.0)


def test_werner_values_match_scalar_closed_forms():
    ws = np.concatenate(
        [np.linspace(T, 1.0, 2001), [1.0, T - 1e-13, T + 1e-13, T, 0.5, 0.0, -0.3]]
    )
    # the Werner values of werner-sweep are the d = 2 isotropic ones
    for kind in KINDS:
        got = isotropic_values(kind, 2, ws)
        assert got.tolist() == [_werner_scalar(kind, float(w)) for w in ws], kind
        for w in ws[::97]:
            assert werner_measure(kind, float(w)).value == isotropic_values(kind, 2, [w])[0]
        for bad in ([0.9, 1.2], [-0.34, 0.9], [0.9, math.nan]):
            with pytest.raises(OutOfRange):
                isotropic_values(kind, 2, bad)
        # WernerParam admits rounding slack above 1, where 1 - w < 0
        assert isotropic_values(kind, 2, [1.0 + 5e-13])[0] == pytest.approx(werner_max(kind), abs=1e-11)


def test_iso_builds_no_density_matrix(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("iso must not build or diagonalize a density matrix")

    references = []

    def counted(*args):
        references.append(args)
        return isotropic_reference_formula(*args)

    monkeypatch.setattr(dense, "make_isotropic", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(arrays, "isotropic_reference_formula", counted)
    kinds = [flag for k in KINDS for flag in ("--kind", k.value)]
    assert main(["iso", "--d", "3", "--n", "20", *kinds, "--out", str(tmp_path / "iso.csv")]) == 0
    # the quoted forms too are one array evaluation per kind
    assert len(references) == len(KINDS)
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
        assert isotropic_values(kind, 2, ws).tolist() == [werner_measure(kind, w).value for w in ws], kind


def test_isotropic_values_range_errors():
    for kind in KINDS:
        for d, bad in ((3, [0.9, math.nan]), (3, [0.9, 1.2]), (3, [-0.2, 0.9]), (2, [-0.34])):
            with pytest.raises(OutOfRange):
                isotropic_values(kind, d, bad)
            with pytest.raises(OutOfRange):
                isotropic_reference_formula(kind, d, bad)
        with pytest.raises(OutOfRange):
            isotropic_values(kind, 1, [0.5])
        # IsotropicParam admits rounding slack above 1, where 1 - omega < 0
        assert math.isfinite(isotropic_values(kind, 3, [1.0 + 5e-13])[0])
    above = {k: isotropic_reference_formula(k, 3, 1.0 + 5e-13) for k in KINDS}
    for kind in (DistanceKind.HS, DistanceKind.HELLINGER, DistanceKind.TRACE):
        assert math.isfinite(above[kind]), kind
    assert above[DistanceKind.RELATIVE_ENTROPY] == -math.inf
    assert above[DistanceKind.BURES] is None


def _exact_re(d, t, omega):
    """Relative entropy in bits between the spectra at omega and t, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d2 = Decimal(d * d)
        (p, s), (q, r) = [
            (((d2 - 1) * Decimal(x) + 1) / d2, (1 - Decimal(x)) / d2) for x in (omega, t)
        ]
        total = p * (p / q).ln() + ((d2 - 1) * s * (s / r).ln() if s > 0 else 0)
        return float(total / Decimal(2).ln())


def test_relative_entropy_within_1e_15_of_decimal_reference():
    # pins the accuracy of the relative-entropy closed forms, whatever the
    # order in which they sum the spectrum's terms
    re = DistanceKind.RELATIVE_ENTROPY
    cases = [(2, WERNER_THRESHOLD, lambda ws: np.array([werner_measure(re, w).value for w in ws]))]
    for d in (2, 3, 5, 8):
        t = cglmp_threshold(d).omega_threshold
        cases.append((d, t, lambda ws, d=d: isotropic_values(re, d, ws)))
    for d, t, values in cases:
        ws = np.concatenate([np.linspace(t, 1.0, 401)[1:], [t + 1e-10, t + 1e-6]])
        got = values(ws).tolist()
        worst = max(abs(g - _exact_re(d, t, w)) for g, w in zip(got, ws.tolist()))
        assert worst <= 1e-15, (d, t, worst)


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
        assert bu._replace(kind=DistanceKind.HELLINGER, closest_local=None) == he._replace(
            closest_local=None
        ), a
        assert np.array_equal(bu.closest_local.a, he.closest_local.a)


def test_hs_and_bures_have_no_objective():
    # nor has the trace kind: HS and trace are exact
    a = np.array([0.84, 0.63, -0.5])
    for kind in (DistanceKind.HS, DistanceKind.TRACE):
        with pytest.raises(OutOfRange):
            bd_measure_numeric(kind, a)
    # Bures is measured by the Hellinger kernel, its entry in KERNELS
    assert KERNELS[DistanceKind.BURES] is KERNELS[DistanceKind.HELLINGER]
    assert DistanceKind.TRACE not in KERNELS


def test_hs_case_path_anchor():
    res = bd_measure(DistanceKind.HS, np.array([0.84, 0.63, -0.5]))
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
        res = bd_measure(DistanceKind.HS, a)
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
    res = bd_measure(DistanceKind.HS, 0.9 * BELL_CORNERS[0])
    assert res.method == "lagrange_case"
    assert res.surface == "vertex"
    # the chamber solve starts at the input's own angle, pi/4 on the corner's
    # ray, and finds the vertex there: one angle step
    assert res.converged and res.iterations == 1
    assert res.value == pytest.approx(W09[DistanceKind.HS], abs=1e-14)
    assert res.closest_local.a == pytest.approx(T * BELL_CORNERS[0], abs=1e-15)
    top = bd_measure(DistanceKind.HS, np.array(two_bell_mix_corr(1.0)))
    assert top.method == "lagrange_case"
    assert top.value == pytest.approx(WMAX[DistanceKind.HS], abs=1e-14)


def test_hs_disk_input_is_solved_at_its_own_angle():
    # the projection onto the cylinder (1, 2) keeps the input's angle on it,
    # where the chamber solve starts: one angle step (four from pi/4)
    res = bd_measure(DistanceKind.HS, (0.84, 0.63, -0.5))
    assert res.converged and res.iterations == 1 and res.surface == "disk_12"
    assert max(abs(p - q) for p, q in zip(res.closest_local.a, (0.8, 0.6, -0.5))) <= 1e-15
    assert abs(res.value - 0.025) <= 1e-15


def test_hs_and_trace_match_the_test_side_oracle(rng):
    # the chamber of the Bell weights against the chamber of |a| (conftest):
    # the HS solve, as measure and as projection (twice the value), against
    # the exact candidate projector, and the trace closed form on the
    # weights' chamber correlators against the same closed form on |a|
    # sorted, on seeded nonlocal inputs from near the corners (alpha = 0.02)
    # to the middle (alpha = 3, where 2 of the 3,000 draws are nonlocal) of
    # the tetrahedron
    inputs = [ARC_INPUT]
    for alpha in (0.02, 0.3, 1.0, 3.0):
        drawn = [bd_probs_to_corr(rng.dirichlet(np.full(4, alpha))) for _ in range(3000)]
        inputs += [a for a in drawn if not bd_is_chsh_local(a)][:150]
    surfaces = set()
    for a in inputs:
        oracle = hs_oracle(a)
        surfaces.add(oracle.surface)
        res = bd_measure(DistanceKind.HS, a)
        assert abs(res.value - 0.5 * oracle.distance) <= 4e-16, a
        assert abs(2 * res.value - oracle.distance) <= 8e-16, a
        assert max(abs(p - q) for p, q in zip(res.closest_local.a, oracle.point)) <= 1e-15, a
        assert res.surface == oracle.surface, a
        trace = nearest_in_chamber(a, measures._trace_in_chamber)
        res = bd_measure(DistanceKind.TRACE, a)
        assert abs(res.value - trace.distance) <= 4e-16, a
        assert max(abs(p - q) for p, q in zip(res.closest_local.a, trace.point)) <= 1e-15, a
        assert res.surface == trace.surface, a
    assert {"disk_12", "disk_13", "disk_23", "vertex"} <= surfaces and any("+" in s for s in surfaces)


def _named_pieces(surface) -> set:
    """The cylinders a surface name stands for."""
    if surface is None:
        return set()
    if surface == "vertex":
        return {"disk_12", "disk_13", "disk_23"}
    return set(surface.split("+"))


def test_numeric_surface_names_every_active_cylinder(rng):
    # at (0.85, 0.85, -0.85) every kind's closest state is the vertex where
    # the three cylinders meet, and so it is next to the singlet corner,
    # where the solve starts 6e-16 below pi/4 and must still score pi/4; at
    # (0.95, 0.9, -0.9) the Hellinger (and so the Bures) one lies on the arc
    # of two of them
    arc = "disk_12+disk_13"
    expected = {
        (0.85, 0.85, -0.85): dict.fromkeys(KINDS, "vertex"),
        (-0.9999999999999989, -0.9999999999999989, -1.0): dict.fromkeys(KINDS, "vertex"),
        (0.95, 0.9, -0.9): {
            DistanceKind.HS: "vertex",
            DistanceKind.HELLINGER: arc,
            DistanceKind.BURES: arc,
            DistanceKind.TRACE: "vertex",
            DistanceKind.RELATIVE_ENTROPY: "vertex",
        },
    }
    for a, surfaces in expected.items():
        for kind, surface in surfaces.items():
            assert bd_measure(kind, np.array(a)).surface == surface, (a, kind)
    # a numeric surface names the piece its solve ended on, which is exactly
    # the set of cylinders its point lies on, to rounding
    names = set()
    for _ in range(40):
        a = random_nonlocal_corr(rng)
        for kind in OBJECTIVE_KINDS:
            res = bd_measure_numeric(kind, a)
            x = res.closest_local.a
            active = {
                f"disk_{i + 1}{j + 1}"
                for i, j in itertools.combinations(range(3), 2)
                if abs(x[i] * x[i] + x[j] * x[j] - 1.0) <= 1e-15
            }
            assert _named_pieces(res.surface) == active, (a, kind)
            names.add(res.surface)
    assert {"disk_12", "disk_12+disk_13", "vertex"} <= names


def test_barely_nonlocal_surface_is_the_solved_piece():
    # the he value here is 3.3e-8. The barrier solve named the cylinders
    # within 1e-8 of its interior point, and the (1, 3) one sat at 1.07e-8 or
    # 8.2e-9 depending on the solver, so the surface was None or disk_13. The
    # exact solve ends on that cylinder
    a = (-0.5771306481563061, 0.5107935996609904, 0.8169623789986005)
    for kind in (DistanceKind.HELLINGER, DistanceKind.BURES, DistanceKind.RELATIVE_ENTROPY):
        res = bd_measure(kind, a)
        x = res.closest_local.a
        assert res.converged and res.surface == "disk_13", kind
        assert x[0] * x[0] + x[2] * x[2] - 1.0 == 0.0, kind


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
    # optimality off the Werner line: the exact he and re solves, and the
    # exact trace form, are never worse than an independent SLSQP reference, and
    # their point lies in L
    kinds = (*OBJECTIVE_KINDS, DistanceKind.TRACE)
    inputs = [(k, random_nonlocal_corr(rng)) for _ in range(100) for k in kinds]
    inputs += [(k, a) for a in _face_and_edge_inputs(rng, 30) for k in kinds]
    inputs += [(k, np.array(a)) for k, a in FALSE_CONVERGENCE]
    for kind, a in inputs:
        res = bd_measure(kind, a)
        assert res.converged, (kind, a)
        assert res.value <= slsqp_value(kind, a) + 1e-9, (kind, a)
        assert in_tetrahedron(res.closest_local.a, tol=BOUNDARY_TOL)
        assert max_pair_sum(res.closest_local.a) <= 1.0 + BOUNDARY_TOL


# a facet class on which a warm-started stage without the fraction-to-boundary
# floor failed: the zero weight's slack fell from 1.2e-11 to 2e-15 in one
# Armijo step, and the barrier Hessian lost positive definiteness
FACET_E = (0.02, 0.3, 0.68, 0.0)


@pytest.mark.parametrize("kind", (DistanceKind.HELLINGER, DistanceKind.TRACE, DistanceKind.RELATIVE_ENTROPY))
def test_facet_class_permutations_converge_and_agree(kind):
    values = []
    for e in itertools.permutations(FACET_E):
        res = bd_measure(kind, bd_probs_to_corr(np.array(e)))
        assert res.converged, e
        values.append(res.value)
    assert max(values) - min(values) <= MULTISEED_TOL


def test_numeric_values_hold_under_tighter_stop_tests(rng, monkeypatch):
    # the stop tests leave the point within about 1e-11 of the optimum, and
    # the value, flat there, within rounding of it: stop tests tightened to
    # rounding level move no value by more than a few ulps of 2, the scale
    # of the Hellinger sum 2 - 2 sum_k sqrt(e_k w_k)
    inputs = [random_nonlocal_corr(rng) for _ in range(20)]
    facet = (FACET_E, (0.0, 0.68, 0.3, 0.02), (0.46, 0.0, 0.0, 0.54), (0.1, 0.0, 0.06, 0.84))
    inputs += [bd_probs_to_corr(np.array(e)) for e in facet]
    values = [[bd_measure_numeric(k, a).value for k in OBJECTIVE_KINDS] for a in inputs]
    monkeypatch.setattr(solver, "T_TOL", 1e-15)
    monkeypatch.setattr(solver, "U_TOL", 1e-15)
    for a, row in zip(inputs, values):
        for kind, value in zip(OBJECTIVE_KINDS, row):
            ref = bd_measure_numeric(kind, a)
            assert ref.converged and abs(value - ref.value) <= 1e-15, (kind, a, value - ref.value)


def test_mean_newton_steps_per_solve(rng):
    # a deterministic count: the angle's Newton steps, the first one at the
    # input's own angle included, are about 4.0 per solve on these inputs
    # (4.7 from pi/4; the barrier solve took about 24 Newton steps over 8
    # stages)
    inputs = [random_nonlocal_corr(rng) for _ in range(40)]
    steps = [bd_measure_numeric(k, a).iterations for a in inputs for k in OBJECTIVE_KINDS]
    assert np.mean(steps) <= 4.5


def test_former_all_infinite_starts_input_converges():
    # on this relative-entropy input every start of the former multi-start
    # solver scored inf and the solve raised NotConverged; the exact solve
    # keeps the closest weight of the input's small weight positive, so the
    # divergence is finite
    a = np.array([0.9990814418247234, -0.06587608316916732, 0.06497482141988592])
    res = bd_measure(DistanceKind.RELATIVE_ENTROPY, a)
    assert res.converged
    assert math.isfinite(res.value) and res.value > 0.0
    assert res.value <= slsqp_value(DistanceKind.RELATIVE_ENTROPY, a) + 1e-9


# Bell weights from 0 through subnormal to small, and the shares of the other
# three weights: near-pure states and two-Bell mixtures
EXTREME_WEIGHTS = (0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-16, 1e-15, 1e-14, 1e-10, 1e-6)
EXTREME_SHARES = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.5, 0.5, 0.0),
    (0.9, 0.1, 0.0),
    (0.0, 0.8, 0.2),
    (0.3, 0.0, 0.7),
)


def test_extreme_inputs_converge_inside_the_local_set():
    # no physical input may end in a traceback: each extreme weight in each
    # position, next to each share pattern, for every kind
    for v, k, shares in itertools.product(EXTREME_WEIGHTS, range(4), EXTREME_SHARES):
        rest = [(1.0 - v) * s for s in shares]
        a = bd_probs_to_corr(rest[:k] + [v] + rest[k:])
        for kind in KINDS:
            res = bd_measure(kind, a)
            assert math.isfinite(res.value) and res.converged, (kind, a)
            # an exact closest state lies in L, on the cylinders its surface
            # names (none for a local input, which is its own closest state)
            x = res.closest_local.a
            assert bd_is_chsh_local(x) and in_tetrahedron(x), (kind, a)
            for name in _named_pieces(res.surface):
                i, j = int(name[-2]) - 1, int(name[-1]) - 1
                assert abs(x[i] * x[i] + x[j] * x[j] - 1.0) <= 1e-15, (kind, a, res.surface)


# The trace measure. For Bell-diagonal states with correlators x and a,
# (1/2) sum_k |w_k - e_k| = (1/2) N(x - a) with N(v) = max(||v||_inf, ||v||_1 / 2),
# the largest of c . v over the 14 dual vertices c below. N's unit ball is
# the cuboctahedron with the 12 vertices BALL.
DUAL = np.array(
    [*np.eye(3), *-np.eye(3), *(0.5 * np.array(s) for s in itertools.product((1.0, -1.0), repeat=3))]
)
BALL = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=3) if sorted(map(abs, v)) == [0, 1, 1]])


def _arcs():
    """The arcs c0 + u cos t + v sin t of the local set's boundary: the 6
    where two cylinders meet and the 12 where a cylinder meets a facet
    S_m . x = -1 (both written through the index pair (i, j) of a cylinder)."""
    eye = np.eye(3)
    arcs = []
    for i in range(3):
        j, k = (n for n in range(3) if n != i)
        arcs += [(np.zeros(3), eye[i], eye[j] + sign * eye[k]) for sign in (1.0, -1.0)]
    for (i, j), s in itertools.product(PAIRS, S):
        (l,) = {0, 1, 2} - {i, j}
        # x_l = -s_l (1 + s_i x_i + s_j x_j), as s_l^2 = 1
        arcs.append((-s[l] * eye[l], eye[i] - s[i] * s[l] * eye[l], eye[j] - s[j] * s[l] * eye[l]))
    return [np.array(part) for part in zip(*arcs)]


ARC_C0, ARC_U, ARC_V = _arcs()


def _on_local_set(points) -> np.ndarray:
    """The rows of points that lie in L, up to rounding of the boundary pieces."""
    tol = 1e-14
    pair = np.max(points[:, [0, 0, 1]] ** 2 + points[:, [1, 2, 2]] ** 2, axis=1)
    keep = (np.min(points @ S.T, axis=1) >= -1.0 - tol) & (pair <= 1.0 + tol)
    return points[keep]


def _fixed_candidates() -> np.ndarray:
    """Candidates that do not depend on the input: the 10 vertices of L and,
    on each arc, the stationary points of every c . x(t), where a square or
    triangle facet of N's ball can touch the arc."""
    vertices = [T * c for c in BELL_CORNERS] + [*np.eye(3), *-np.eye(3)]
    phase = np.arctan2(ARC_V @ DUAL.T, ARC_U @ DUAL.T)[..., None] + np.array([0.0, math.pi])
    t = phase.reshape(len(ARC_U), -1)[..., None]
    on_arcs = ARC_C0[:, None] + ARC_U[:, None] * np.cos(t) + ARC_V[:, None] * np.sin(t)
    return _on_local_set(np.vstack([np.array(vertices), on_arcs.reshape(-1, 3)]))


FIXED = _fixed_candidates()
DUAL_PAIRS = np.array([DUAL[p] - DUAL[q] for p, q in itertools.combinations(range(len(DUAL)), 2)])


def trace_oracle(a) -> float:
    """Smallest trace distance from a to every candidate point of L.

    Minimizing the polyhedral norm N(x - a) over L, a vertex, edge or facet of
    N's ball meets a boundary piece of L at the optimum, so the candidates
    are: the 12 rays a + rho v, v in BALL, onto each cylinder and each facet
    plane; on each of the 18 arcs, the kinks where two dual vertices c . (x - a)
    are equal and the stationary points of each; and the 10 vertices of L.
    Every candidate is a point of L, so each is an upper bound.
    """
    points = [FIXED]
    for i, j in PAIRS:
        # (a_i + rho v_i)^2 + (a_j + rho v_j)^2 = 1 for each ball vertex v
        qa = BALL[:, i] ** 2 + BALL[:, j] ** 2
        qb = 2.0 * (a[i] * BALL[:, i] + a[j] * BALL[:, j])
        disc = qb * qb - 4.0 * qa * (a[i] ** 2 + a[j] ** 2 - 1.0)
        ok = disc >= 0.0
        for sign in (1.0, -1.0):
            rho = (-qb[ok] + sign * np.sqrt(disc[ok])) / (2.0 * qa[ok])
            points.append(a + rho[:, None] * BALL[ok])
    for s in S:
        # s . (a + rho v) = -1
        dot = BALL @ s
        ok = dot != 0.0
        points.append(a + ((-1.0 - s @ a) / dot[ok])[:, None] * BALL[ok])
    # kinks: (c - d) . (c0 - a) + (c - d) . u cos t + (c - d) . v sin t = 0
    amp_u, amp_v = ARC_U @ DUAL_PAIRS.T, ARC_V @ DUAL_PAIRS.T
    const = (ARC_C0 - a) @ DUAL_PAIRS.T
    radius = np.hypot(amp_u, amp_v)
    ok = (radius > 1e-12) & (np.abs(const) <= radius)
    phase = np.arctan2(amp_v, amp_u)[ok]
    turn = np.arccos(-const[ok] / radius[ok])
    arc = np.nonzero(ok)[0]
    for t in (phase + turn, phase - turn):
        points.append(ARC_C0[arc] + ARC_U[arc] * np.cos(t)[:, None] + ARC_V[arc] * np.sin(t)[:, None])
    feasible = _on_local_set(np.vstack(points))
    return 0.5 * float(np.min(np.max((feasible - a) @ DUAL.T, axis=1)))


def _trace_inputs(rng):
    """100 seeded nonlocal Dirichlet inputs for each concentration, and every
    nonlocal node of the grid-50 facet census (e4 = 0, as bd_grid samples it)."""
    inputs = []
    for alpha in (0.1, 0.3, 1.0, 3.0):
        corr = rng.dirichlet(np.full(4, alpha), size=40_000) @ S
        pair = np.max(corr[:, [0, 0, 1]] ** 2 + corr[:, [1, 2, 2]] ** 2, axis=1)
        inputs += list(corr[pair > 1.0 + BOUNDARY_TOL][:100])
    n = 50
    for i in range(n + 1):
        for j in range(n + 1 - i):
            a = bd_probs_to_corr(np.array([i / n, j / n, (n - i - j) / n, 0.0]))
            if max_pair_sum(a) > 1.0 + BOUNDARY_TOL:
                inputs.append(a)
    return inputs


LOCAL_AND_NONLOCAL = (((0.5, 0.4, -0.3), True), ((0.84, 0.63, -0.5), False))


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_one_physicality_check_per_measure(kind, monkeypatch):
    # a deterministic count of the private check that the public
    # physical_probs wraps: the input check passes an a that a local branch
    # reuses as is
    calls, bound = count_calls(monkeypatch, qstate, "_physical")
    assert qstate in bound
    for a, local in LOCAL_AND_NONLOCAL:
        calls.clear()
        assert (bd_measure(kind, a).value == 0.0) is local
        assert len(calls) == 1, (kind, a)


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_one_weighing_per_measure(kind, monkeypatch):
    # a deterministic count, as for the physicality check, of the private
    # weighing that the public bd_corr_to_probs wraps: the input is weighed
    # once, and the chamber and a local result reuse those weights; the
    # trace closed form's point comes as correlators and is weighed too
    calls, bound = count_calls(monkeypatch, qstate, "_weights")
    assert {qstate, measures} <= bound
    for a, local in LOCAL_AND_NONLOCAL:
        calls.clear()
        assert (bd_measure(kind, a).value == 0.0) is local
        assert len(calls) == (2 if kind is DistanceKind.TRACE and not local else 1), (kind, a)


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_one_float_conversion_per_measure(kind, monkeypatch):
    # only the caller's correlators are converted: the chamber's correlators,
    # the trace point's weights and the solve's weights are floats nlgeo made
    calls, bound = count_calls(monkeypatch, qstate, "float_vector")
    assert {qstate, locality} <= bound
    for a, local in LOCAL_AND_NONLOCAL:
        calls.clear()
        assert (bd_measure(kind, a).value == 0.0) is local
        assert calls == [(a, 3, "correlator")], (kind, a)


def test_trace_closed_form_is_the_enumerated_minimum(rng):
    # the oracle's arcs lie on two boundary pieces of L each
    t = rng.uniform(0.0, 2.0 * math.pi, (1, 50, 1))
    x = (ARC_C0[:, None] + ARC_U[:, None] * np.cos(t) + ARC_V[:, None] * np.sin(t)).reshape(-1, 3)
    pair = x[:, [0, 0, 1]] ** 2 + x[:, [1, 2, 2]] ** 2
    active = np.sum(np.abs(pair - 1.0) <= 1e-14, axis=1) + np.sum(np.abs(x @ S.T + 1.0) <= 1e-14, axis=1)
    assert np.all(active >= 2)
    # the three chamber candidates never lose to any boundary candidate
    # (the facets and the other arcs included), and never beat them either
    surfaces = set()
    for a in _trace_inputs(rng):
        res = bd_measure(DistanceKind.TRACE, a)
        surfaces.add(res.surface)
        assert abs(res.value - trace_oracle(a)) <= 1e-13, a
    assert {"disk_12", "disk_12+disk_13", "vertex"} <= surfaces



@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_trace_distance_is_a_norm_of_the_correlators(coords):
    # (1/2) sum_k |w_k - e_k| = (1/2) max(||x - a||_inf, ||x - a||_1 / 2)
    x, a = np.array(coords[:3]), np.array(coords[3:])
    direct = 0.5 * float(np.sum(np.abs(np.subtract(bd_corr_to_probs(x), bd_corr_to_probs(a)))))
    assert measures._trace_distance(x, a) == pytest.approx(direct, abs=1e-15)


def test_trace_closest_state_is_local_and_gives_the_value(rng):
    inputs = [random_nonlocal_corr(rng) for _ in range(200)]
    inputs += _face_and_edge_inputs(rng, 40) + [ARC_INPUT]
    for a in inputs:
        res = bd_measure(DistanceKind.TRACE, a)
        assert (res.method, res.iterations, res.converged) == ("lagrange_case", 0, True)
        x = res.closest_local.a
        assert in_tetrahedron(x, tol=1e-15)
        assert max_pair_sum(x) <= 1.0 + 1e-15
        # the surface names exactly the cylinders the point lies on
        active = {f"disk_{i + 1}{j + 1}" for i, j in PAIRS if abs(x[i] ** 2 + x[j] ** 2 - 1.0) <= 1e-12}
        assert _named_pieces(res.surface) == active, a
        direct = dist_trace(make_bell_diagonal(a=a), make_bell_diagonal(a=x))
        assert res.value == pytest.approx(direct, abs=1e-13), a


def test_trace_on_the_werner_line_is_the_vertex():
    for corner in BELL_CORNERS:
        for w in np.linspace(T + 1e-3, 1.0, 15):
            res = bd_measure(DistanceKind.TRACE, w * corner)
            assert res.surface == "vertex"
            assert res.value == pytest.approx(0.75 * (w - T), abs=1e-15)
            assert np.array_equal(res.closest_local.a, T * corner)

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
    for kind in KINDS:
        with pytest.raises(NonPhysical):
            bd_measure(kind, bad)


def test_wrong_length_correlators_rejected_everywhere():
    # a number or None is no vector at all: DimensionMismatch, not TypeError;
    # nor is a string, whose characters float would read as the digits 1, 0, 0
    for a in ((0.9, 0.9), (0.9, 0.9, 0.1, 0.0), 0.5, None, "100", b"100"):
        # qstate.float_vector makes the one shape check that each relies on
        for check in (bd_corr_to_probs, BellDiagonal.from_corr, physical_probs, max_pair_sum, bd_is_chsh_local):
            with pytest.raises(DimensionMismatch):
                check(a)
        for kind in KINDS:
            with pytest.raises(DimensionMismatch):
                bd_measure(kind, a)


def test_an_item_that_is_no_real_number_is_named_as_such():
    # a vector of the right length holding a complex or None is not told it
    # has the wrong length; a wrong length still is
    for a in ([0.84 + 0j, 0.63, -0.5], [None, 0, 0]):
        for kind in KINDS:
            with pytest.raises(DimensionMismatch, match=r"^correlator vector must hold 3 real numbers, got \["):
                bd_measure(kind, a)
    with pytest.raises(DimensionMismatch, match=r"^probability vector must hold 4 real numbers, got \["):
        bd_probs_to_corr([None, 0.0, 0.0, 1.0])
    for a in ((0.9, 0.9), [None, 0], [0.84 + 0j, 0.63, -0.5, 0.0], 0.5, None, "100"):
        with pytest.raises(DimensionMismatch, match=r"^correlator vector must have length 3, got "):
            bd_measure(DistanceKind.HS, a)


# items that float would take though they are no real numbers: text, which it
# reads as digits, and complex numbers, whose imaginary part numpy's drop with
# a ComplexWarning (an error under this suite's filterwarnings)
NOT_REAL_ITEMS = {
    "digit strings": ["0.84", "0.63", "-0.5"],
    "a word": ["a", 0, 0],
    "bytes": [b"1", 0, 0],
    "numpy strings": np.array(["0.84", "0.63", "-0.5"]),
    "numpy complex128": np.array([0.84 + 0.5j, 0.63, -0.5]),
    "numpy complex64": np.array([0.84 + 0.5j, 0.63, -0.5], dtype=np.complex64),
    "a complex128 item": [np.complex128(0.84), 0.63, -0.5],
}


@pytest.mark.parametrize("case", sorted(NOT_REAL_ITEMS))
def test_text_and_complex_items_are_no_real_numbers(case):
    a = NOT_REAL_ITEMS[case]
    for kind in KINDS:
        with pytest.raises(DimensionMismatch, match=r"^correlator vector must hold 3 real numbers, got "):
            bd_measure(kind, a)
    for check in (bd_corr_to_probs, BellDiagonal.from_corr, physical_probs, max_pair_sum, bd_is_chsh_local):
        with pytest.raises(DimensionMismatch, match=r"^correlator vector must hold 3 real numbers, got "):
            check(a)
    with pytest.raises(DimensionMismatch, match=r"^probability vector must hold 4 real numbers, got "):
        bd_probs_to_corr([*a, 0.0])


def test_a_column_array_is_no_vector_of_numbers():
    # its items are rows, not numbers, whether iterated or taken by tolist
    for kind in KINDS:
        with pytest.raises(DimensionMismatch, match=r"^correlator vector must hold 3 real numbers, got "):
            bd_measure(kind, np.array([[0.84], [0.63], [-0.5]]))


# real items of every type the layer takes, each made afresh (an iterator is
# spent by one measure): the correlators (0.84, 0.63, -0.5), or (1, 0, 0) in ints
REAL_ITEMS = {
    "ints": lambda: [1, 0, 0],
    "numpy float64": lambda: np.array([0.84, 0.63, -0.5]),
    "numpy float64 items": lambda: [np.float64(0.84), np.float64(0.63), -0.5],
    "numpy int64": lambda: np.array([1, 0, 0]),
    "numpy float32": lambda: np.array([0.84, 0.63, -0.5], dtype=np.float32),
    "an iterator": lambda: iter([0.84, 0.63, -0.5]),
    "a generator": lambda: (x for x in (0.84, 0.63, -0.5)),
    "decimals": lambda: [Decimal("0.84"), Decimal("0.63"), Decimal("-0.5")],
}


@pytest.mark.parametrize("case", sorted(REAL_ITEMS))
def test_real_items_of_any_numeric_type_are_measured(case):
    expected = tuple(map(float, REAL_ITEMS[case]()))
    out = qstate.float_vector(REAL_ITEMS[case](), 3, "correlator")
    assert out == expected and all(type(x) is float for x in out)
    for kind in KINDS:
        assert bd_measure(kind, REAL_ITEMS[case]()) == bd_measure(kind, expected)


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


# the largest gap between a reported value and the dense distance to the
# reported closest state, measured over 1,200 seeded inputs: hs 1.4e-16,
# tr 1.9e-16, he 6.0e-12, re 9.6e-12 and bu 4.3e-9, the last from the dense
# fidelity's matrix square root
DENSE_GAP = {
    DistanceKind.HS: 1e-14,
    DistanceKind.TRACE: 1e-14,
    DistanceKind.HELLINGER: 1e-10,
    DistanceKind.RELATIVE_ENTROPY: 1e-10,
    DistanceKind.BURES: 1e-8,
}


def test_value_reproduced_by_metrics(rng):
    for _ in range(60):
        a = random_nonlocal_corr(rng)
        rho = make_bell_diagonal(a=a)
        for kind in KINDS:
            res = bd_measure(kind, a)
            close = make_bell_diagonal(a=np.clip(res.closest_local.a, -1.0, 1.0))
            direct = METRIC_BY_KIND[kind](rho, close)
            assert abs(direct - res.value) <= DENSE_GAP[kind], (kind, a, direct - res.value)


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
        e = np.array(bd_corr_to_probs(a))
        slopes = 4.0 * e - 1.0
        lam_max = min(-1.0 / s for s in slopes if s < 0)
        values = [
            bd_measure(DistanceKind.HS, lam * a).value
            for lam in np.linspace(0.0, min(lam_max, 1.0 / max_pair_sum(a) * 1.6), 20)
        ]
        assert all(b >= a_ - 1e-9 for a_, b in zip(values, values[1:]))


def test_monotone_along_rays_numeric():
    a = np.array([0.3, -0.3, 1.0])
    for kind in (DistanceKind.TRACE, DistanceKind.RELATIVE_ENTROPY, DistanceKind.HELLINGER):
        values = [bd_measure(kind, lam * a).value for lam in np.linspace(0.6, 1.0, 8)]
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
        rows = np.array(bd_sweep(kind, "two_bell_mix", 5))
        assert rows.shape == (5, 2)
        assert rows[0, 0] == 0.5 and rows[-1, 0] == 1.0
        assert rows[0, 1] == 0.0  # p = 1/2 is the local point
        assert rows[-1, 1] == pytest.approx(1.0, abs=1e-6)
        assert np.all(rows[:, 1] >= 0.0) and np.all(rows[:, 1] <= 1.0 + 1e-6)


def test_bd_sweep_werner_line():
    rows = np.array(bd_sweep(DistanceKind.TRACE, "werner_line", 7))
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


# every public entry that takes a kind, on a local and a nonlocal input
KIND_ENTRIES = {
    "werner_measure": lambda kind, local: werner_measure(kind, 0.5 if local else 0.9),
    "isotropic_measure": lambda kind, local: isotropic_measure(kind, 3, 0.5 if local else 0.9),
    # werner-sweep's array values, which are the d = 2 isotropic ones
    "werner_values": lambda kind, local: isotropic_values(kind, 2, [0.5 if local else 0.9]),
    "isotropic_values": lambda kind, local: isotropic_values(kind, 3, [0.5 if local else 0.9]),
    "isotropic_reference_formula": lambda kind, local: isotropic_reference_formula(kind, 3, 0.5 if local else 0.9),
    "bd_measure": lambda kind, local: bd_measure(kind, (0.3, 0.3, -0.3) if local else (0.84, 0.63, -0.5)),
    # each sweep and grid holds local and nonlocal points
    "bd_sweep": lambda kind, local: bd_sweep(kind, "two_bell_mix" if local else "werner_line", 3),
    "bd_grid": lambda kind, local: bd_grid(kind, 2),
}


@pytest.mark.parametrize("local", [True, False])
@pytest.mark.parametrize("kind", ["hs", None, np.array(["hs", "tr"])])
@pytest.mark.parametrize("entry", sorted(KIND_ENTRIES))
def test_an_unknown_kind_raises_out_of_range(entry, kind, local):
    # neither the relative-entropy fallthrough nor the local shortcut may
    # answer for a kind that is not a DistanceKind, and a dispatch by `in`
    # would raise ValueError on the array kind
    with pytest.raises(OutOfRange, match=re.escape(repr(kind))):
        KIND_ENTRIES[entry](kind, local)


@pytest.mark.parametrize("kind", KINDS)
def test_a_whole_number_count_need_not_be_an_int(kind):
    # the counts that are not whole numbers: test_qstate's dimension test
    assert bd_grid(kind, 2.0) == bd_grid(kind, np.int64(2)) == bd_grid(kind, 2)
    assert bd_sweep(kind, "two_bell_mix", 3.0) == bd_sweep(kind, "two_bell_mix", 3)


@pytest.mark.parametrize("kind", KINDS)
def test_bd_grid_solves_each_symmetry_class_once(kind, monkeypatch):
    # 16 sorted triples sum to 11; the 8 nonlocal ones enter the chamber once
    # each, and a local one reads 0.0 from the locality test alone
    calls, _ = count_calls(monkeypatch, measures, "_in_chamber")
    n = 11
    rows = bd_grid(kind, n)
    assert len(rows) == 78 and len(calls) == 8
    assert not any(bd_is_chsh_local(state) for _, state in calls)
    by_class = {}
    for e1, e2, value in rows:
        i, j = round(e1 * n), round(e2 * n)
        by_class.setdefault(tuple(sorted((i, j, n - i - j))), set()).add(value)
    assert len(by_class) == 16
    # up to 6 permuted nodes per class, all holding the bit-identical value
    assert all(len(values) == 1 for values in by_class.values())
    assert sum(values == {0.0} for values in by_class.values()) == 8
    assert len({v for values in by_class.values() for v in values}) > 2


# nonlocal symmetry classes of bd_grid at each size: the chamber measures it makes
GRID_NONLOCAL_CLASSES = {10: 6, 11: 8, 20: 17, 50: 84}


@pytest.mark.parametrize("kind", KINDS)
def test_bd_grid_converts_nothing_and_measures_only_nonlocal_classes(kind, monkeypatch):
    # every node is floats the grid made, so none passes float_vector, and
    # only the nonlocal classes reach the chamber
    conversions, _ = count_calls(monkeypatch, qstate, "float_vector")
    measured, _ = count_calls(monkeypatch, measures, "_in_chamber")
    for n, nonlocal_classes in GRID_NONLOCAL_CLASSES.items():
        conversions.clear()
        measured.clear()
        bd_grid(kind, n)
        assert (len(conversions), len(measured)) == (0, nonlocal_classes), n


@pytest.mark.parametrize("kind", KINDS)
def test_bd_grid_class_on_the_chsh_boundary_reads_zero_without_a_solve(kind, monkeypatch):
    # e = (1, 2, 7)/10 has correlators (-0.4, 0.6, 0.8) up to rounding, whose
    # pair sum 0.36 + 0.64 is 1.0 in floats too: local, as the boundary is
    boundary = (0.1, 0.2, 0.7)
    assert max_pair_sum(bd_probs_to_corr([*boundary, 0.0])) == 1.0
    measured, _ = count_calls(monkeypatch, measures, "_in_chamber")
    cells = {(e1, e2): value for e1, e2, value in bd_grid(kind, 10)}
    for e1, e2, _ in itertools.permutations(boundary):
        assert cells[(e1, e2)] == 0.0
    # the class's first node is e itself; the nonlocal classes were measured
    assert measured and bd_probs_to_corr([*boundary, 0.0]) not in [state.a for _, state in measured]


def _node_by_node_grid(kind, grid_n):
    """bd_grid's rows filled node by node, in row-major order: each node is
    keyed by its sorted integer triple, whose class is measured by bd_measure
    at its first node and looked up at every other. Returns the rows and
    the correlators of the nonlocal classes, which bd_grid solves, in the
    order they were first met."""
    norm = werner_max(kind)
    frac = [i / grid_n for i in range(grid_n + 1)]
    values, rows, solved = {}, [], []
    for i in range(grid_n + 1):
        for j in range(grid_n + 1 - i):
            key = tuple(sorted((i, j, grid_n - i - j)))
            if key not in values:
                a = bd_probs_to_corr([frac[k] for k in key] + [0.0])
                res = bd_measure(kind, a)
                values[key] = res.value / norm
                if res.method != "closed_form":
                    solved.append(a)
            rows.append((frac[i], frac[j], values[key]))
    return rows, solved


@pytest.mark.parametrize("kind", KINDS)
def test_bd_grid_matches_a_node_by_node_fill(kind, monkeypatch):
    # the class-first fill against the node-by-node one, at the sizes where
    # the loop bounds lo <= grid_n // 3 and mid <= (grid_n - lo) // 2 are
    # least forgiving: the same rows, bit for bit, and the same solves in
    # the same order, so NotConverged names the same row. Each node enters
    # the chamber as the state the input check would build, bit for bit
    solved = []
    in_chamber = measures._in_chamber

    def recording(kind, state):
        assert repr(state) == repr(BellDiagonal.from_corr(state.a))
        solved.append(state.a)
        return in_chamber(kind, state)

    for grid_n in (1, 2, 3, 4, 7, 11):
        rows, order = _node_by_node_grid(kind, grid_n)
        solved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_in_chamber", recording)
            assert bd_grid(kind, grid_n) == rows, grid_n
        assert solved == order, grid_n


@pytest.mark.parametrize("kind", KINDS)
def test_bd_grid_refinement_keeps_a_shared_node(kind):
    # e = (0.8, 0.1, 0.1) is a node of grids 10, 20 and 50, with the same floats
    values = {v for n in (10, 20, 50) for e1, e2, v in bd_grid(kind, n) if (e1, e2) == (0.8, 0.1)}
    assert len(values) == 1 and values.pop() > 0.0


def test_bd_grid_unconverged_names_the_first_row_of_its_class(monkeypatch):
    in_chamber = measures._in_chamber

    def failing(kind, state):
        res = in_chamber(kind, state)
        weights = sorted(round(11 * x) for x in state.e[:3])
        return res._replace(converged=False) if weights == [1, 2, 8] else res

    monkeypatch.setattr(measures, "_in_chamber", failing)
    with pytest.raises(NotConverged) as err:
        bd_grid(DistanceKind.TRACE, 11)
    # (1, 2, 8) is the first node of its class in row-major order
    assert str(err.value) == f"tr solve at e = {[1 / 11, 2 / 11, 8 / 11, 0.0]} did not converge"


def test_max_iters_validation(monkeypatch):
    # a tenth of the budget still reaches the closed form
    monkeypatch.setattr(solver, "MAX_ITERS", 50)
    res = bd_measure_numeric(DistanceKind.HELLINGER, 0.9 * BELL_CORNERS[3])
    assert res.converged
    assert res.value == pytest.approx(W09[DistanceKind.HELLINGER], abs=1e-9)


@pytest.mark.parametrize("max_iters", [None, 1])
def test_numeric_value_is_the_objective_at_the_returned_point(rng, monkeypatch, max_iters):
    # the value is the one the solve's end state holds; it equals the
    # objective scored afresh at the returned point's weights (in the order
    # of the objective's chamber), bit for bit, also when a starved solve
    # (a budget of one angle step) ends unconverged
    if max_iters is not None:
        monkeypatch.setattr(solver, "MAX_ITERS", max_iters)
    for _ in range(20):
        a = random_nonlocal_corr(rng)
        for kind in OBJECTIVE_KINDS:
            res = bd_measure_numeric(kind, a)
            assert res.converged is (max_iters is None), (kind, a)
            chamber = bell_chamber(bd_corr_to_probs(a))
            terms, _ = KERNELS[kind](chamber.e)
            rescored = terms(*(res.closest_local.e[k] for k in chamber.order))[0]
            assert float.hex(res.value) == float.hex(rescored), (kind, a)


def test_gradient_matches_finite_differences(rng):
    # light smoke; the acceptance suite runs the full 100-point gate
    for kind in OBJECTIVE_KINDS:
        a = random_nonlocal_corr(rng)
        terms, _ = KERNELS[kind](bell_chamber(bd_corr_to_probs(a)).e)
        for _ in range(5):
            x = 0.97 * random_local_corr(rng)
            g = np.array(gradient_at(terms, tuple(x)))
            fd = np.empty(3)
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-6
                fd[i] = (value_at(terms, tuple(x + step)) - value_at(terms, tuple(x - step))) / 2e-6
            denom = max(np.linalg.norm(g), 1e-9)
            assert np.linalg.norm(fd - g) / denom < 1e-4, kind
            # the Hessian against differences of the gradient
            h = np.array(weights_hessian(terms(*bd_corr_to_probs(x))[5:]))
            assert np.array_equal(h, h.T)
            fd_h = np.empty((3, 3))
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-6
                gp = np.array(gradient_at(terms, tuple(x + step)))
                gm = np.array(gradient_at(terms, tuple(x - step)))
                fd_h[:, i] = (gp - gm) / 2e-6
            assert np.linalg.norm(fd_h - h) / max(np.linalg.norm(h), 1e-9) < 1e-4, kind
