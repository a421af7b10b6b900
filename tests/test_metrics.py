import math

import numpy as np
import pytest

from conftest import haar_unitary, random_density
from nlgeo.errors import DimensionMismatch
from nlgeo.metrics import (
    DistanceKind,
    dist_bures,
    dist_hellinger,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    fidelity,
    rel_entropy,
)

N_TRIPLES = 200
N_PAIRS = 200

METRICS = {
    "hs": dist_hs,
    "he": dist_hellinger,
    "bu": dist_bures,
    "tr": dist_trace,
}
CONTRACTIVE = {
    "he": dist_hellinger_sq,
    "bu": dist_bures,
    "tr": dist_trace,
    "re": rel_entropy,
}


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - p) * rho + p * np.eye(d) / d


def test_metric_axioms(rng):
    for _ in range(N_TRIPLES):
        r1, r2, r3 = (random_density(rng, 4) for _ in range(3))
        for name, dist in METRICS.items():
            d12, d21 = dist(r1, r2), dist(r2, r1)
            assert d12 >= 0.0, name
            assert abs(d12 - d21) <= 1e-10, name
            # sqrt in he/bu lifts eigensolver roundoff to the 1e-7 scale
            assert dist(r1, r1) <= 1e-6, name
            assert dist(r1, r3) <= d12 + dist(r2, r3) + 1e-9, name


def test_unitary_invariance(rng):
    for _ in range(100):
        r1, r2 = random_density(rng, 4), random_density(rng, 4)
        u = haar_unitary(rng, 4)
        v1, v2 = u @ r1 @ u.conj().T, u @ r2 @ u.conj().T
        for name, dist in METRICS.items():
            assert abs(dist(v1, v2) - dist(r1, r2)) <= 1e-10, name
        assert abs(rel_entropy(v1, v2) - rel_entropy(r1, r2)) <= 1e-9


def test_contractivity_under_depolarizing(rng):
    for _ in range(N_PAIRS):
        r1, r2 = random_density(rng, 3), random_density(rng, 3)
        p = rng.uniform(0.05, 0.95)
        c1, c2 = depolarize(r1, p), depolarize(r2, p)
        for name, dist in CONTRACTIVE.items():
            assert dist(c1, c2) <= dist(r1, r2) + 1e-10, name


def test_hs_is_not_contractive_in_general():
    # the Hilbert-Schmidt distance may grow under partial trace on one side,
    # so it is excluded from the contractivity suite; pin one joint-convexity
    # counterexample direction instead: depolarizing does contract it, but
    # tensoring with an ancilla changes it, unlike the trace distance
    r1 = np.diag([1.0, 0.0])
    r2 = np.diag([0.0, 1.0])
    anc = np.eye(2) / 2.0
    d_plain = dist_hs(r1, r2)
    d_anc = dist_hs(np.kron(r1, anc), np.kron(r2, anc))
    assert abs(d_plain - d_anc) > 0.1


def test_joint_convexity_trace_and_relative_entropy(rng):
    for _ in range(100):
        r1, r2 = random_density(rng, 3), random_density(rng, 3)
        s1, s2 = random_density(rng, 3), random_density(rng, 3)
        lam = rng.uniform(0.0, 1.0)
        mr = lam * r1 + (1 - lam) * r2
        ms = lam * s1 + (1 - lam) * s2
        assert dist_trace(mr, ms) <= lam * dist_trace(r1, s1) + (1 - lam) * dist_trace(
            r2, s2
        ) + 1e-10
        assert rel_entropy(mr, ms) <= lam * rel_entropy(r1, s1) + (
            1 - lam
        ) * rel_entropy(r2, s2) + 1e-9


def test_commuting_case_reduces_to_spectra(rng):
    for _ in range(100):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        u = haar_unitary(rng, 5)
        rp = (u * p) @ u.conj().T
        rq = (u * q) @ u.conj().T
        assert abs(dist_hs(rp, rq) - np.linalg.norm(p - q)) <= 1e-10
        assert abs(dist_trace(rp, rq) - 0.5 * np.abs(p - q).sum()) <= 1e-10
        he_expected = np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)
        assert abs(dist_hellinger_sq(rp, rq) - he_expected) <= 1e-10
        # Bures and Hellinger coincide when the states commute
        assert abs(dist_bures(rp, rq) ** 2 - he_expected) <= 1e-10
        re_expected = np.sum(p * np.log2(p / q))
        assert abs(rel_entropy(rp, rq) - re_expected) <= 1e-9


def test_fidelity_properties(rng):
    for _ in range(50):
        rho = random_density(rng, 4)
        sig = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-10)
        assert 0.0 <= fidelity(rho, sig) <= 1.0
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0
    pure = np.outer(ket, ket.conj())
    assert fidelity(pure, rho) == pytest.approx(np.real(rho[1, 1]), abs=1e-12)


def test_relative_entropy_support_rules():
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ketp = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    p0 = np.outer(ket0, ket0.conj())
    pp = np.outer(ketp, ketp.conj())
    assert rel_entropy(p0, pp) == math.inf
    assert rel_entropy(p0, p0) == pytest.approx(0.0, abs=1e-12)
    full = np.eye(2) / 2.0
    assert rel_entropy(p0, full) == pytest.approx(1.0, abs=1e-12)  # log2 units
    assert rel_entropy(full, p0) == math.inf


def test_log_base_two_convention(rng):
    # relative entropy of rho vs maximally mixed equals log2(d) - S(rho)
    rho = random_density(rng, 4)
    evals = np.linalg.eigvalsh(rho)
    entropy = -np.sum(evals * np.log2(evals))
    expected = 2.0 - entropy
    assert rel_entropy(rho, np.eye(4) / 4.0) == pytest.approx(expected, abs=1e-10)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dist_hs(np.eye(2) / 2.0, np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatch):
        rel_entropy(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_distance_kind_enum():
    assert {k.value for k in DistanceKind} == {"hs", "he", "bu", "tr", "re"}
