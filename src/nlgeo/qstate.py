"""State representations for two-qubit and two-qudit systems.

Two-qubit states are handled in three interchangeable forms: the raw density
matrix, the real 4x4 Pauli coefficient matrix, and (for Bell-diagonal states)
the correlator/probability parametrization. Family constructors for Werner,
isotropic and Bell-diagonal states validate physicality on the way in, and the
symmetrizing maps (Bell-diagonal projection, isotropic twirl) reduce arbitrary
states onto those families.

All functions are pure; module-level arrays are constants and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidProbability,
    NonPhysical,
    NotHermitian,
    NotPSD,
    OutOfRange,
)

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10
PROB_NEG_ATOL = 1e-12
PROB_SUM_ATOL = 1e-9

_S0 = np.eye(2, dtype=complex)
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (_S0, _S1, _S2, _S3)

# Bell kets over the product basis |00>, |01>, |10>, |11>.
BELL_KETS = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)

# Linear maps between Bell-basis weights e (4-vector) and diagonal
# correlators a (3-vector): a = CORR_FROM_PROBS @ e and
# e = PROBS_FROM_CORR @ (1, a1, a2, a3).
CORR_FROM_PROBS = np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0],
    ]
)
PROBS_FROM_CORR = 0.25 * np.array(
    [
        [1.0, 1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0, -1.0],
    ]
)

# Correlator directions of the four extremal Bell points; row k is the vertex
# with e_{k+1} = 1. Row 3 is the singlet direction (-1, -1, -1).
BELL_CORNERS = CORR_FROM_PROBS.T.copy()


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
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL:
            raise NotHermitian("density matrix is not Hermitian within 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise NonPhysical(f"density matrix trace {tr} differs from one")
        if np.linalg.eigvalsh(m)[0] < PSD_EIG_FLOOR:
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
        object.__setattr__(self, "alpha", a)

    @property
    def row_vec(self) -> np.ndarray:
        return self.alpha[0, 1:]

    @property
    def col_vec(self) -> np.ndarray:
        return self.alpha[1:, 0]

    @property
    def corr(self) -> np.ndarray:
        return self.alpha[1:, 1:]

    @classmethod
    def from_blocks(
        cls, row_vec: np.ndarray, col_vec: np.ndarray, corr: np.ndarray
    ) -> "PauliRep":
        alpha = np.empty((4, 4))
        alpha[0, 0] = 1.0
        alpha[0, 1:] = row_vec
        alpha[1:, 0] = col_vec
        alpha[1:, 1:] = corr
        return cls(alpha)


@dataclass(frozen=True)
class BellDiagonal:
    """Bell-diagonal state given by correlators a (3) and Bell weights e (4)."""

    a: np.ndarray
    e: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.array(self.a, dtype=float))
        object.__setattr__(self, "e", np.array(self.e, dtype=float))

    @classmethod
    def from_corr(cls, a) -> "BellDiagonal":
        a = np.asarray(a, dtype=float)
        if a.shape != (3,):
            raise DimensionMismatch("correlator vector must have length 3")
        e = bd_corr_to_probs(a)
        if e.min() < -PROB_NEG_ATOL:
            raise NonPhysical(f"correlators {a.tolist()} lie outside the physical tetrahedron")
        return cls(a=a, e=e)

    @classmethod
    def from_probs(cls, e) -> "BellDiagonal":
        a = bd_probs_to_corr(e)
        return cls(a=a, e=np.asarray(e, dtype=float))


@dataclass(frozen=True)
class WernerParam:
    """Werner family parameter w, admissible on (-1/3, 1]."""

    w: float

    def __post_init__(self) -> None:
        if not (-1.0 / 3.0 < self.w <= 1.0 + 1e-12):
            raise OutOfRange(f"Werner parameter {self.w} outside (-1/3, 1]")


@dataclass(frozen=True)
class IsotropicParam:
    """Isotropic family parameter: local dimension d and mixing weight omega."""

    d: int
    omega: float

    def __post_init__(self) -> None:
        if int(self.d) != self.d or self.d < 2:
            raise OutOfRange(f"local dimension must be an integer >= 2, got {self.d}")
        lo = -1.0 / (self.d * self.d - 1.0)
        if not (lo - 1e-12 <= self.omega <= 1.0 + 1e-12):
            raise OutOfRange(f"omega {self.omega} outside [{lo}, 1] for d={self.d}")


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


def bd_probs_to_corr(e) -> np.ndarray:
    """Map Bell weights e to correlators a. Raises InvalidProbability on bad e."""
    e = np.asarray(e, dtype=float)
    if e.shape != (4,):
        raise DimensionMismatch("probability vector must have length 4")
    if e.min() < -PROB_NEG_ATOL:
        raise InvalidProbability(f"negative weight in {e.tolist()}")
    if abs(e.sum() - 1.0) > PROB_SUM_ATOL:
        raise InvalidProbability(f"weights {e.tolist()} sum to {e.sum()}, not 1")
    return CORR_FROM_PROBS @ e


def bd_corr_to_probs(a) -> np.ndarray:
    """Map correlators a to Bell weights e.

    Total function: returns the affine image even when some e_i < 0, so that
    callers can test physicality themselves.
    """
    a = np.asarray(a, dtype=float)
    return PROBS_FROM_CORR @ np.concatenate(([1.0], a))


def _eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
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
    return BellDiagonal.from_corr(np.diag(corr).copy())


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


def make_werner(w: float, corner: int = 4) -> DensityMatrix:
    """Werner state of parameter w placed at one of the four Bell corners.

    corner selects the extremal direction (1 to 4); the default 4 is the
    singlet direction a = (-w, -w, -w). The measures downstream do not depend
    on this choice.
    """
    WernerParam(w)
    if corner not in (1, 2, 3, 4):
        raise OutOfRange(f"corner must be 1..4, got {corner}")
    return make_bell_diagonal(a=w * BELL_CORNERS[corner - 1])


def make_isotropic(d: int, omega: float) -> DensityMatrix:
    """Isotropic state omega |phi+><phi+| + (1 - omega)/d^2 id."""
    IsotropicParam(d=d, omega=omega)
    phi = phi_plus_ket(d)
    m = omega * np.outer(phi, phi.conj()) + (1.0 - omega) / (d * d) * np.eye(d * d)
    return DensityMatrix(dim=d, mat=m).validate()
