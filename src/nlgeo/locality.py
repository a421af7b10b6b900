"""Locality criteria: the CHSH singular-value test for two qubits and the
CGLMP visibility threshold for two qudits, plus the symmetry chamber of the
Bell weights (nlgeo.solver) and the map from it back to a Bell-diagonal
state, in which nlgeo.measures measures every kind.

Everything here but chsh_verdict, which takes a dense PauliRep and imports
numpy on its first call, works on Python floats: correlators come in as any
sequence of three numbers, and points go out as tuples."""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import itemgetter

from .errors import OutOfRange
from .qstate import BellDiagonal, _correlators, _shown, float_vector, whole_number

BOUNDARY_TOL = 1e-12


def surface_name(pairs) -> str | None:
    """Name of the boundary piece where the cylinders a_i^2 + a_j^2 = 1 of the
    index pairs (i, j) meet: None for no pair, "disk_ij" for one (indices
    from 1), "disk_ij+disk_kl" in lexicographic order for two, and "vertex"
    for all three."""
    names = sorted([f"disk_{i + 1}{j + 1}" if i < j else f"disk_{j + 1}{i + 1}" for i, j in pairs])
    if len(names) == 3:
        return "vertex"
    return "+".join(names) or None


class ChshVerdict(namedtuple("ChshVerdict", "singulars criterion_value is_local")):
    """Outcome of the CHSH criterion: correlation singular values d1 >= d2 >= d3,
    the value d1^2 + d2^2, and whether the state admits a local model."""

    __slots__ = ()


class CglmpThreshold(namedtuple("CglmpThreshold", "d i_d_qm omega_threshold")):
    """Quantum CGLMP maximum I_d and the visibility 2/I_d separating local from
    nonlocal isotropic states."""

    __slots__ = ()


def chsh_verdict(rep) -> ChshVerdict:
    """Apply the CHSH test to a two-qubit Pauli representation.

    The state admits a local model for all CHSH experiments iff the two
    largest singular values of the correlation matrix satisfy
    d1^2 + d2^2 <= 1. The boundary counts as local. rep is a dense.PauliRep.
    """
    import numpy as np

    s = np.linalg.svd(rep.corr, compute_uv=False)
    value = float(s[0] ** 2 + s[1] ** 2)
    return ChshVerdict(
        singulars=(float(s[0]), float(s[1]), float(s[2])),
        criterion_value=value,
        is_local=value <= 1.0 + BOUNDARY_TOL,
    )


def _qk(d: int, k: int) -> float:
    """Joint outcome weight q_k = 1 / (2 d^3 sin^2(pi (k + 1/4) / d)), for a
    d that cglmp_threshold has checked."""
    s = math.sin(math.pi * (k + 0.25) / d)
    return 1.0 / (2.0 * d**3 * s * s)


def cglmp_threshold(d: int) -> CglmpThreshold:
    """Quantum CGLMP value I_d and the isotropic locality threshold 2/I_d.

    I_d = 4d sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d-1)) (q_k - q_{-(k+1)}),
    evaluated literally; at d = 2 the sum is the single k = 0 term and the
    threshold reduces to the CHSH value 1/sqrt(2), correctly rounded, which
    is measures.WERNER_THRESHOLD. The sum runs in a Python loop, so the cost
    grows like d: about 0.1 s at d = 10^5 and 1 s at 10^6.
    It runs once per d per process: the result is cached on the checked int,
    so 3, 3.0 and np.int64(3) share one entry.
    """
    d = whole_number(d, 2, "local dimension")
    try:
        return _cglmp_threshold(d)
    except OverflowError:
        raise OutOfRange(f"local dimension {_shown(d)}: its cube is too large for a float") from None


@functools.cache
def _cglmp_threshold(d: int) -> CglmpThreshold:
    total = 0.0
    for k in range(d // 2):
        coeff = 1.0 - 2.0 * k / (d - 1.0)
        total += coeff * (_qk(d, k) - _qk(d, -(k + 1)))
    i_d = 4.0 * d * total
    return CglmpThreshold(d=d, i_d_qm=i_d, omega_threshold=2.0 / i_d)


def max_pair_sum(a) -> float:
    """Largest of a_i^2 + a_j^2 over the three index pairs."""
    return _pair_sum(*float_vector(a, 3, "correlator"))


def _pair_sum(a1: float, a2: float, a3: float) -> float:
    s1, s2, s3 = a1**2, a2**2, a3**2
    return max(s1 + s2, s1 + s3, s2 + s3)


def bd_is_chsh_local(a) -> bool:
    """CHSH locality of a Bell-diagonal state: every pair sum a_i^2 + a_j^2 <= 1.

    a is the state's correlators, which pass BellDiagonal.from_corr:
    DimensionMismatch unless a holds 3 of them and NonPhysical outside the
    tetrahedron. Or a is the BellDiagonal state itself, as every measure
    passes it, which was checked when it was built. The boundary counts as
    local.
    """
    state = a if isinstance(a, BellDiagonal) else BellDiagonal.from_corr(a)
    return _chsh_local(state.a)


def _chsh_local(a) -> bool:
    """bd_is_chsh_local of correlator floats a that nlgeo made or checked itself."""
    return _pair_sum(*a) <= 1.0 + BOUNDARY_TOL


class Chamber(namedtuple("Chamber", "e order")):
    """Bell weights e in descending order; e[k] is that of Bell state order[k]."""

    __slots__ = ()


def bell_chamber(e) -> Chamber:
    """The symmetry chamber of Bell weights e, which the caller has checked
    (BellDiagonal.from_corr): the weights themselves are permuted, never their
    correlators, so the sorted weights are the input's bit for bit."""
    order = tuple(sorted((0, 1, 2, 3), key=e.__getitem__, reverse=True))
    return Chamber(itemgetter(*order)(e), order)


def from_chamber(order, w, pairs):
    """The Bell-diagonal state whose weight of the Bell state order[k] is
    w[k], and the surface_name of the chamber's cylinder pairs. The weights
    are placed by order in one assignment, and the name comes from a table
    filled on first use, one entry per (order, pairs): at most the 24 orders
    times the three pair sets that the solve and the trace form end on."""
    e = [0.0] * 4
    e[order[0]], e[order[1]], e[order[2]], e[order[3]] = w
    return BellDiagonal._of(_correlators(e), tuple(e)), _chamber_surface(order, pairs)


@functools.cache
def _chamber_surface(order, pairs):
    # the chamber's axis j splits its weights into {0, j + 1} and the other
    # two, and the axis (m ^ n) - 1 of the state splits them into {m, n}
    axes = [(order[0] ^ order[j]) - 1 for j in (1, 2, 3)]
    return surface_name([(axes[i], axes[j]) for i, j in pairs])
