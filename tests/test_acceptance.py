"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline;
without -s they appear in the captured output of failing tests only.
"""

import math

import numpy as np

from conftest import haar_unitary, random_density, random_tetra_corr
from nlgeo import (
    DensityMatrix,
    DistanceKind,
    PauliRep,
    bd_grid,
    bd_is_chsh_local,
    bd_measure,
    bd_probs_to_corr,
    bd_project,
    bd_sweep,
    cglmp_threshold,
    chsh_verdict,
    dist_bures,
    dist_hellinger,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    density_to_pauli,
    isotropic_measure,
    isotropic_reference_formula,
    make_bell_diagonal,
    pauli_to_density,
    rel_entropy,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
    WERNER_THRESHOLD,
    bd_corr_to_probs,
)
from nlgeo.arrays import formula_agrees, isotropic_values
from nlgeo.locality import bell_chamber
from nlgeo.measures import KERNELS, OBJECTIVE_KINDS
from test_solver import gradient_at, value_at

T = 1.0 / math.sqrt(2.0)
KINDS = tuple(DistanceKind)


def _verdict(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {criterion} {label}: {detail}"


def test_criterion_1_werner_maxima_match_closed_forms():
    expected = {
        DistanceKind.HS: (math.sqrt(3.0) / 2.0) * (1.0 - T),
        DistanceKind.TRACE: 0.75 * (1.0 - T),
        DistanceKind.HELLINGER: 2.0 - math.sqrt(1.0 + 3.0 * T),
        DistanceKind.BURES: 2.0 - math.sqrt(1.0 + 3.0 * T),
        DistanceKind.RELATIVE_ENTROPY: 2.0 - math.log2(1.0 + 3.0 * T),
    }
    worst = 0.0
    for kind, want in expected.items():
        res = werner_measure(kind, 1.0)
        assert res.method == "closed_form"
        worst = max(worst, abs(res.value - want), abs(werner_max(kind) - want))
    _verdict(1, "Werner maxima at w=1", worst <= 1e-13, f"max error {worst:.3g}")


def test_criterion_2_numeric_minimizer_matches_werner_closed_forms():
    ws = np.linspace(WERNER_THRESHOLD, 1.0, 21)[1:]
    corner = np.array([-1.0, -1.0, -1.0])
    worst = 0.0
    for kind in KINDS:
        for w in ws:
            res = bd_measure(kind, w * corner)
            assert res.converged, f"{kind.value} w={w}"
            worst = max(worst, abs(res.value - werner_measure(kind, w).value))
    _verdict(
        2,
        "bd_measure vs closed-form Werner, 20 points x 5 kinds",
        worst <= 1e-13,
        f"max |numeric - closed| {worst:.3g}",
    )


def test_criterion_3_cglmp_thresholds():
    thr2 = cglmp_threshold(2)
    thr3 = cglmp_threshold(3)
    err2 = abs(thr2.omega_threshold - T)
    err_i2 = abs(thr2.i_d_qm - 2.0 * math.sqrt(2.0))
    err3 = abs(thr3.omega_threshold - (6.0 * math.sqrt(3.0) - 9.0) / 2.0)
    ok = err2 <= 1e-13 and err_i2 <= 1e-13 and err3 <= 1e-13
    _verdict(
        3,
        "CGLMP visibility thresholds",
        ok,
        f"|2/I_2 - 1/sqrt2| {err2:.3g}, |I_2 - 2sqrt2| {err_i2:.3g}, "
        f"|2/I_3 - (6sqrt3-9)/2| {err3:.3g}",
    )


def test_criterion_4_two_bell_mixture_endpoints_and_normalizers():
    worst = 0.0
    for kind in KINDS:
        rows = np.array(bd_sweep(kind, "two_bell_mix", 9))
        assert rows[0, 0] == 0.5 and rows[-1, 0] == 1.0
        # p = 1/2 sits inside the local set, so the measure is exactly zero
        assert rows[0, 1] == 0.0, kind.value
        worst = max(worst, abs(rows[-1, 1] - 1.0))
        # the family maximum at p = 1 is the Werner maximum itself
        top = bd_measure(kind, two_bell_mix_corr(1.0))
        worst = max(worst, abs(top.value - werner_max(kind)))
    _verdict(
        4,
        "two-Bell mixture: 0 at p=1/2, 1 at p=1, Werner normalizers",
        worst <= 1e-13,
        f"max endpoint error {worst:.3g}",
    )


def test_criterion_5_hs_grid_vertices_zero_region_and_refinement():
    def as_map(grid_n):
        return {
            (round(e1 * grid_n), round(e2 * grid_n)): v
            for e1, e2, v in bd_grid(DistanceKind.HS, grid_n)
        }

    g10 = as_map(10)
    vert_err = max(
        abs(g10[(10, 0)] - 1.0), abs(g10[(0, 10)] - 1.0), abs(g10[(0, 0)] - 1.0)
    )
    zero_ok, n_zero = True, 0
    for (i, j), v in g10.items():
        e = np.array([i / 10.0, j / 10.0, (10 - i - j) / 10.0, 0.0])
        if bd_is_chsh_local(bd_probs_to_corr(e)):
            n_zero += 1
            zero_ok = zero_ok and v == 0.0
    g50 = as_map(50)
    refine_err = max(abs(g50[(5 * i, 5 * j)] - v) for (i, j), v in g10.items())
    ok = vert_err <= 1e-13 and zero_ok and n_zero >= 10 and refine_err <= 1e-13
    _verdict(
        5,
        "HS grid on the e4=0 facet",
        ok,
        f"vertex error {vert_err:.3g}, {n_zero} exact zeros ok={zero_ok}, "
        f"10->50 refinement drift {refine_err:.3g}",
    )


def test_criterion_6_property_suites(rng):
    failures: list[str] = []

    unsquared = {
        "hs": dist_hs,
        "he": dist_hellinger,
        "bu": dist_bures,
        "tr": dist_trace,
    }
    for _ in range(200):
        r1, r2, r3 = (random_density(rng, 4) for _ in range(3))
        for name, fn in unsquared.items():
            d12, d21, d13, d23 = fn(r1, r2), fn(r2, r1), fn(r1, r3), fn(r2, r3)
            if not (d12 >= 0.0 and abs(d12 - d21) <= 1e-10):
                failures.append(f"{name} symmetry")
            # the sqrt in he/bu lifts eigensolver roundoff to the 1e-7 scale
            if not fn(r1, r1) <= 1e-6:
                failures.append(f"{name} identity")
            if not d13 <= d12 + d23 + 1e-9:
                failures.append(f"{name} triangle")

    contractive = {
        "he_sq": dist_hellinger_sq,
        "bu": dist_bures,
        "tr": dist_trace,
        "re": rel_entropy,
    }
    for _ in range(200):
        r1, r2 = random_density(rng, 4), random_density(rng, 4)
        lam = rng.uniform()
        f1 = (1.0 - lam) * r1 + lam * np.eye(4) / 4.0
        f2 = (1.0 - lam) * r2 + lam * np.eye(4) / 4.0
        for name, fn in contractive.items():
            if not fn(f1, f2) <= fn(r1, r2) + 1e-10:
                failures.append(f"{name} contractivity")

    for _ in range(200):
        u = haar_unitary(rng, 4)
        p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        r1 = (u * p) @ u.conj().T
        r2 = (u * q) @ u.conj().T
        if abs(dist_bures(r1, r2) ** 2 - dist_hellinger_sq(r1, r2)) > 1e-10:
            failures.append("bures=hellinger commuting")

    for _ in range(200):
        e = rng.dirichlet(np.ones(4))
        if np.max(np.abs(bd_corr_to_probs(bd_probs_to_corr(e)) - e)) > 1e-12:
            failures.append("e->a->e roundtrip")
        a = random_tetra_corr(rng)
        if np.max(np.abs(bd_probs_to_corr(bd_corr_to_probs(a)) - a)) > 1e-12:
            failures.append("a->e->a roundtrip")
    for _ in range(100):
        rho = DensityMatrix(dim=2, mat=random_density(rng, 4))
        back = pauli_to_density(density_to_pauli(rho))
        if np.max(np.abs(back.mat - rho.mat)) > 1e-12:
            failures.append("density<->pauli roundtrip")
        bd = bd_project(rho)
        again = bd_project(make_bell_diagonal(e=bd.e))
        if np.max(np.abs(np.subtract(again.a, bd.a))) > 1e-12:
            failures.append("bd_project idempotence")

    for _ in range(1000):
        a = random_tetra_corr(rng)
        alpha = np.zeros((4, 4))
        alpha[0, 0] = 1.0
        alpha[1, 1], alpha[2, 2], alpha[3, 3] = a
        if chsh_verdict(PauliRep(alpha)).is_local != bd_is_chsh_local(a):
            failures.append("chsh verdict agreement")

    _verdict(
        6,
        "property suites (axioms, contractivity, commuting, roundtrips, verdicts)",
        not failures,
        f"{len(failures)} failures" + (f": {sorted(set(failures))}" if failures else ""),
    )


def test_criterion_7_gradients_match_finite_differences(rng):
    step = 1e-6
    worst = 0.0
    for kind in OBJECTIVE_KINDS:
        done = 0
        while done < 100:
            ea = rng.dirichlet(np.ones(4))
            ex = rng.dirichlet(np.full(4, 2.0))
            # keep the evaluation point strictly inside the tetrahedron
            if ex.min() < 0.01:
                continue
            terms, _ = KERNELS[kind](bell_chamber(bd_corr_to_probs(bd_probs_to_corr(ea))).e)
            x = np.array(bd_probs_to_corr(ex))
            g = np.array(gradient_at(terms, tuple(x)))
            if np.linalg.norm(g) < 1e-6:
                continue
            fd = np.empty(3)
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                fd[i] = (value_at(terms, tuple(xp)) - value_at(terms, tuple(xm))) / (2.0 * step)
            worst = max(worst, np.linalg.norm(fd - g) / np.linalg.norm(fd))
            done += 1
    _verdict(
        7,
        "analytic gradients vs central differences, 100 points x 2 objectives",
        worst < 1e-4,
        f"max relative error {worst:.3g}",
    )


def test_criterion_8_isotropic_consistency_flags():
    def flag(kind, d, omega):
        value = float(isotropic_values(kind, d, [omega])[0])
        return formula_agrees(value, isotropic_reference_formula(kind, d, omega))

    hs_flags = [flag(DistanceKind.HS, d, 0.9) for d in (2, 3, 5)]
    printed = [
        flag(kind, 2, 0.9)
        for kind in (
            DistanceKind.TRACE,
            DistanceKind.HELLINGER,
            DistanceKind.RELATIVE_ENTROPY,
        )
    ]
    worst = 0.0
    for kind in KINDS:
        for omega in (0.75, 0.8, 0.9):
            v = isotropic_measure(kind, 2, omega).value
            worst = max(worst, abs(v - werner_measure(kind, omega).value))
    ok = all(hs_flags) and not any(printed) and worst <= 1e-9
    _verdict(
        8,
        "isotropic flags: HS formula agrees, printed tr/he/re at d=2 do not",
        ok,
        f"hs d=2,3,5 {hs_flags}, printed tr/he/re d=2 {printed}, "
        f"d=2 vs Werner max error {worst:.3g}",
    )
