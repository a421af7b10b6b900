"""Geometric and entropic measures of Bell nonlocality.

The package quantifies how far a quantum state sits from the set of states
admitting a local model, with closed forms for the Werner and isotropic
families and, for general Bell-diagonal two-qubit states, exact measures of
every kind in one symmetry chamber of their Bell weights.

The Bell-diagonal path runs on Python floats, so ``import nlgeo`` does not
import numpy; the dense layer and the array closed forms do, on first use.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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


# __all__ is derived, so that each public name is written once: in an import
# line above or in _LAZY
__all__ = [
    "__version__",
    *(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)),
    *_LAZY,
]
