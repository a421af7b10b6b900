"""Geometric and entropic measures of Bell nonlocality.

The package quantifies how far a quantum state sits from the set of states
admitting a local model, with closed forms for the Werner and isotropic
families and, for general Bell-diagonal two-qubit states, exact measures of
every kind in one symmetry chamber of their Bell weights.

The Bell-diagonal path runs on Python floats, so ``import nlgeo`` does not
import numpy; the dense layer and the array closed forms do, on first use.
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
from .kinds import DistanceKind
from .locality import (
    CglmpThreshold,
    ChshVerdict,
    bd_is_chsh_local,
    cglmp_qk,
    cglmp_threshold,
    chsh_verdict,
)
from .measures import (
    MeasureResult,
    bd_grid,
    bd_measure,
    bd_sweep,
    isotropic_measure,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
    WERNER_THRESHOLD,
)
from .qstate import (
    BellDiagonal,
    IsotropicParam,
    WernerParam,
    bd_corr_to_probs,
    bd_probs_to_corr,
)

# The numpy layers, imported on the first use of one of their names (PEP 562):
# the dense states and distances, and the isotropic closed forms over arrays.
_LAZY = {
    "DensityMatrix": "dense",
    "PauliRep": "dense",
    "pauli_to_density": "dense",
    "density_to_pauli": "dense",
    "matrix_sqrt_psd": "dense",
    "bd_project": "dense",
    "twirl_isotropic": "dense",
    "make_werner": "dense",
    "make_isotropic": "dense",
    "make_bell_diagonal": "dense",
    "phi_plus_ket": "dense",
    "dist_hs": "metrics",
    "dist_hellinger": "metrics",
    "dist_hellinger_sq": "metrics",
    "fidelity": "metrics",
    "dist_bures": "metrics",
    "dist_trace": "metrics",
    "rel_entropy": "metrics",
    "isotropic_reference_formula": "arrays",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
