import numpy as np
import pytest

from nlgeo.qstate import bd_probs_to_corr
from nlgeo.locality import max_pair_sum

SEED = 20260814

# a nonlocal input whose HS projection lies on the arc where the cylinders
# (1, 2) and (2, 3) meet
ARC_INPUT = np.array([-0.6174579677587797, -0.9860375554040087, -0.6034955233912539])


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
    return bd_probs_to_corr(rng.dirichlet(np.ones(4)))


def random_local_corr(rng) -> np.ndarray:
    while True:
        a = random_tetra_corr(rng)
        if max_pair_sum(a) <= 1.0:
            return a


def random_nonlocal_corr(rng, margin: float = 1e-3) -> np.ndarray:
    # concentrate the weights near the vertices, where nonlocal states live
    while True:
        a = bd_probs_to_corr(rng.dirichlet(np.full(4, 0.3)))
        if max_pair_sum(a) > 1.0 + margin:
            return a


@pytest.fixture
def make_density():
    return random_density


@pytest.fixture
def make_unitary():
    return haar_unitary
