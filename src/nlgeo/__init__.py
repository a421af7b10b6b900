"""Geometric and entropic measures of Bell nonlocality.

The package quantifies how far a quantum state sits from the set of states
admitting a local model, with closed forms for the Werner and isotropic
families and, for general Bell-diagonal two-qubit states, the exact
projection (Hilbert-Schmidt) and a constrained numeric minimizer (the other
kinds).
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    InvalidProbability,
    NlgeoError,
    NonPhysical,
    NotConverged,
    NotHermitian,
    NotPSD,
    OutOfRange,
)
from .locality import (
    CglmpThreshold,
    ChshVerdict,
    bd_is_chsh_local,
    cglmp_qk,
    cglmp_threshold,
    chsh_verdict,
    in_tetrahedron,
)
from .measures import (
    MeasureResult,
    bd_grid,
    bd_measure,
    bd_sweep,
    isotropic_measure,
    isotropic_reference_formula,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
    WERNER_THRESHOLD,
)
from .metrics import (
    DistanceKind,
    dist_bures,
    dist_hellinger,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    fidelity,
    rel_entropy,
)
from .qstate import (
    BellDiagonal,
    DensityMatrix,
    IsotropicParam,
    PauliRep,
    WernerParam,
    bd_corr_to_probs,
    bd_probs_to_corr,
    bd_project,
    density_to_pauli,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    matrix_sqrt_psd,
    pauli_to_density,
    phi_plus_ket,
    twirl_isotropic,
)

__all__ = [
    "__version__",
    "NlgeoError",
    "DimensionMismatch",
    "NotHermitian",
    "NotPSD",
    "InvalidProbability",
    "OutOfRange",
    "NonPhysical",
    "NotConverged",
    "DensityMatrix",
    "PauliRep",
    "BellDiagonal",
    "WernerParam",
    "IsotropicParam",
    "pauli_to_density",
    "density_to_pauli",
    "bd_probs_to_corr",
    "bd_corr_to_probs",
    "matrix_sqrt_psd",
    "bd_project",
    "twirl_isotropic",
    "make_werner",
    "make_isotropic",
    "make_bell_diagonal",
    "phi_plus_ket",
    "DistanceKind",
    "dist_hs",
    "dist_hellinger",
    "dist_hellinger_sq",
    "fidelity",
    "dist_bures",
    "dist_trace",
    "rel_entropy",
    "ChshVerdict",
    "CglmpThreshold",
    "chsh_verdict",
    "cglmp_qk",
    "cglmp_threshold",
    "bd_is_chsh_local",
    "in_tetrahedron",
    "MeasureResult",
    "werner_measure",
    "werner_max",
    "isotropic_measure",
    "isotropic_reference_formula",
    "bd_measure",
    "bd_sweep",
    "bd_grid",
    "two_bell_mix_corr",
    "WERNER_THRESHOLD",
]
