"""Dense two-qubit and two-qudit states: density matrices and their Pauli form.

Two-qubit states are handled here as the raw density matrix and as the real
4x4 Pauli coefficient matrix. The family constructors for Werner, isotropic
and Bell-diagonal states validate physicality on the way in, and the
symmetrizing maps (Bell-diagonal projection, isotropic twirl) reduce
arbitrary states onto those families, whose float parametrizations live in
qstate.

This is the numpy layer of the package: nothing on the Bell-diagonal path
imports it, and nlgeo loads it on the first use of one of its names. All
functions are pure; module-level arrays are constants and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPhysical, NotHermitian, NotPSD, OutOfRange
from .qstate import BELL_CORNERS, BellDiagonal, IsotropicParam, WernerParam

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10

_S0 = np.eye(2, dtype=complex)
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (_S0, _S1, _S2, _S3)


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite state: a d^2 x d^2 complex matrix plus its local dimension d."""

    dim: int
    mat: np.ndarray

    def validate(self) -> "DensityMatrix":
        """Check shape, hermiticity, unit trace and positivity; raise on violation."""
        m = self.mat
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionMismatch(
                f"expected a {n}x{n} matrix for local dimension {self.dim}, got {m.shape}"
            )
        # every check is written so that a nan fails it; a non-finite entry
        # makes m - m^H nan, so it never reaches eigvalsh
        if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_ATOL:
            raise NotHermitian("density matrix is not Hermitian within 1e-12")
        tr = np.trace(m)
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise NonPhysical(f"density matrix trace {tr} differs from one")
        if not np.linalg.eigvalsh(m)[0] >= PSD_EIG_FLOOR:
            raise NotPSD("density matrix has an eigenvalue below -1e-10")
        return self


@dataclass(frozen=True)
class PauliRep:
    """Real 4x4 Pauli coefficient matrix alpha with alpha[0, 0] = 1.

    alpha[i, j] is the expectation of sigma_i x sigma_j. Row 0 past the corner
    holds the second qubit's local expectations, column 0 the first qubit's,
    and the lower right 3x3 block is the correlation matrix.
    """

    alpha: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.alpha, dtype=float)
        if a.shape != (4, 4):
            raise DimensionMismatch("alpha must be a 4x4 real matrix")
        if a[0, 0] != 1.0:
            raise OutOfRange("alpha[0, 0] must be exactly 1")
        if not np.all(np.isfinite(a)):
            raise OutOfRange("alpha entries must be finite")
        object.__setattr__(self, "alpha", a)

    @property
    def corr(self) -> np.ndarray:
        return self.alpha[1:, 1:]


def pauli_to_density(rep: PauliRep) -> DensityMatrix:
    """Assemble rho = (1/4) sum_ij alpha_ij sigma_i x sigma_j.

    Total on real 4x4 coefficients; positivity is not checked here, callers
    validate the result when physicality matters.
    """
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            m += rep.alpha[i, j] * np.kron(PAULI[i], PAULI[j])
    return DensityMatrix(dim=2, mat=m / 4.0)


def density_to_pauli(rho: DensityMatrix) -> PauliRep:
    """Extract alpha_ij = Tr[rho (sigma_i x sigma_j)] from a two-qubit state."""
    if rho.dim != 2 or rho.mat.shape != (4, 4):
        raise DimensionMismatch("Pauli extraction requires a two-qubit state")
    alpha = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            alpha[i, j] = np.trace(rho.mat @ np.kron(PAULI[i], PAULI[j])).real
    alpha[0, 0] = 1.0
    return PauliRep(alpha)


def _eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    if not np.max(np.abs(m - m.conj().T)) <= 1e-10:
        raise NotHermitian("matrix is not Hermitian within 1e-10")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], vecs[:, ::-1]


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower raises NotPSD.
    """
    vals, vecs = _eig_hermitian(m)
    if vals[-1] < PSD_EIG_FLOOR:
        raise NotPSD(f"eigenvalue {vals[-1]} below the PSD floor")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return (root + root.conj().T) / 2.0


def bd_project(rho: DensityMatrix) -> BellDiagonal:
    """Project a two-qubit state onto the Bell-diagonal family.

    Averages rho with its conjugations under the simultaneous local pi
    rotations sigma_1 x sigma_1 and sigma_2 x sigma_2; the surviving
    correlators are exactly the diagonal entries of the correlation matrix.
    """
    if rho.dim != 2 or rho.mat.shape != (4, 4):
        raise DimensionMismatch("Bell-diagonal projection requires a two-qubit state")
    r1 = np.kron(PAULI[1], PAULI[1])
    r2 = np.kron(PAULI[2], PAULI[2])
    m = (rho.mat + r1 @ rho.mat @ r1) / 2.0
    m = (m + r2 @ m @ r2) / 2.0
    corr = density_to_pauli(DensityMatrix(dim=2, mat=m)).corr
    return BellDiagonal.from_corr(np.diag(corr).tolist())


def phi_plus_ket(d: int) -> np.ndarray:
    """Maximally entangled ket (1/sqrt d) sum_i |ii> as a d^2 vector."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def twirl_isotropic(rho: DensityMatrix) -> IsotropicParam:
    """Isotropic parameter of the U x U* twirl of rho.

    The twirl preserves the maximally entangled fidelity F, so omega follows
    in closed form as (d^2 F - 1)/(d^2 - 1) with no Haar integration.
    """
    d = rho.dim
    phi = phi_plus_ket(d)
    fid = np.real(phi.conj() @ rho.mat @ phi)
    omega = (d * d * fid - 1.0) / (d * d - 1.0)
    omega = min(max(omega, -1.0 / (d * d - 1.0)), 1.0)
    return IsotropicParam(d=d, omega=omega)


def make_bell_diagonal(a=None, e=None) -> DensityMatrix:
    """Two-qubit density matrix (1/4)(id + sum_i a_i sigma_i x sigma_i).

    Exactly one of the correlator vector a and the weight vector e must be
    given. Raises NonPhysical or InvalidProbability outside the tetrahedron.
    """
    if (a is None) == (e is None):
        raise OutOfRange("pass exactly one of a and e")
    bd = BellDiagonal.from_corr(a) if a is not None else BellDiagonal.from_probs(e)
    alpha = np.zeros((4, 4))
    alpha[0, 0] = 1.0
    alpha[1:, 1:] = np.diag(bd.a)
    return pauli_to_density(PauliRep(alpha)).validate()


def make_werner(w: float) -> DensityMatrix:
    """Werner state of parameter w, in the singlet direction a = (-w, -w, -w)."""
    WernerParam(w)
    return make_bell_diagonal(a=[w * c for c in BELL_CORNERS[3]])


def make_isotropic(d: int, omega: float) -> DensityMatrix:
    """Isotropic state omega |phi+><phi+| + (1 - omega)/d^2 id."""
    d = IsotropicParam(d=d, omega=omega).d
    phi = phi_plus_ket(d)
    m = omega * np.outer(phi, phi.conj()) + (1.0 - omega) / (d * d) * np.eye(d * d)
    return DensityMatrix(dim=d, mat=m).validate()
