"""Nonlocality measures: minimal distance from a state to the local set.

For Werner and isotropic inputs the minimizing local state stays inside the
family, which reduces every measure to a one-parameter evaluation at the
family's locality threshold. For general Bell-diagonal states the
Hilbert-Schmidt measure is half the distance to the exact Euclidean
projection onto the CHSH-local region. The Hellinger, trace and
relative-entropy measures are minimized numerically over that region. The
Bures measure reuses the Hellinger solve: Bell-diagonal states commute, and
on commuting states the two squared distances are equal.

Hellinger and Bures measures are reported as squared distances; relative
entropy is in bits. A local input yields exactly 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysical, NotConverged, OutOfRange
from .locality import (
    BOUNDARY_TOL,
    DISK_PAIRS,
    bd_is_chsh_local,
    cglmp_threshold,
    in_tetrahedron,
    project_local,
    radial_candidates,
)
from .metrics import (
    DistanceKind,
    dist_bures,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    rel_entropy,
)
from .qstate import (
    BELL_CORNERS,
    PROBS_FROM_CORR,
    BellDiagonal,
    IsotropicParam,
    WernerParam,
    bd_corr_to_probs,
    bd_probs_to_corr,
    make_isotropic,
)
from . import solver

WERNER_THRESHOLD = 1.0 / math.sqrt(2.0)

# Jacobian of the weight vector e with respect to the correlators a.
_JAC_E = PROBS_FROM_CORR[:, 1:].copy()

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Tolerances and budgets for the numeric minimizer."""

    param_tol: float = 1e-9
    value_tol: float = 1e-10
    max_iters: int = 500
    seeds: int = 8
    penalty_growth: float = 10.0

    def __post_init__(self) -> None:
        if (
            self.param_tol <= 0
            or self.value_tol <= 0
            or self.max_iters <= 0
            or self.seeds <= 0
            or self.penalty_growth <= 1.0
        ):
            raise OutOfRange("optimizer configuration values must be positive (growth > 1)")


@dataclass(frozen=True)
class MeasureResult:
    """A computed measure together with its minimizer and solve diagnostics.

    value is the measure itself (squared distance for Hellinger and Bures),
    closest_local identifies the minimizing local state, method is one of
    closed_form, lagrange_case (the exact HS projection) and numeric, and
    surface names the active boundary piece when one is identified.
    """

    kind: DistanceKind
    value: float
    closest_local: object
    method: str
    surface: str | None
    iterations: int
    converged: bool
    residual: float


def _zero_result(kind: DistanceKind, closest: object) -> MeasureResult:
    return MeasureResult(
        kind=kind,
        value=0.0,
        closest_local=closest,
        method="closed_form",
        surface=None,
        iterations=0,
        converged=True,
        residual=0.0,
    )


def _rel_entropy_spectra(p: np.ndarray, q: np.ndarray) -> float:
    """sum p_i log2(p_i / q_i) with the 0 log 0 = 0 convention."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 1e-15:
            if qi <= 1e-15:
                return math.inf
            total += pi * math.log2(pi / qi)
    return max(total, 0.0)


def _werner_spectrum(w: float) -> np.ndarray:
    return np.array([(1.0 + 3.0 * w) / 4.0] + [(1.0 - w) / 4.0] * 3)


def werner_measure(kind: DistanceKind, w: float) -> MeasureResult:
    """Measure of the Werner state with parameter w, in closed form.

    The closest local state is the Werner state at the CHSH threshold
    1/sqrt(2) for every kind; local inputs (w <= 1/sqrt(2)) give zero.
    """
    WernerParam(w)
    t = WERNER_THRESHOLD
    if w <= t + BOUNDARY_TOL:
        return _zero_result(kind, WernerParam(w))
    if kind is DistanceKind.HS:
        value = (math.sqrt(3.0) / 2.0) * (w - t)
    elif kind in (DistanceKind.HELLINGER, DistanceKind.BURES):
        value = 2.0 - 0.5 * (
            3.0 * math.sqrt((1.0 - w) * (1.0 - t))
            + math.sqrt((1.0 + 3.0 * w) * (1.0 + 3.0 * t))
        )
    elif kind is DistanceKind.TRACE:
        value = 0.75 * (w - t)
    else:
        value = _rel_entropy_spectra(_werner_spectrum(w), _werner_spectrum(t))
    return MeasureResult(
        kind=kind,
        value=value,
        closest_local=WernerParam(t),
        method="closed_form",
        surface=None,
        iterations=0,
        converged=True,
        residual=0.0,
    )


def werner_max(kind: DistanceKind) -> float:
    """Largest Werner measure, attained at w = 1; used as the normalization."""
    return werner_measure(kind, 1.0).value


def isotropic_measure(kind: DistanceKind, d: int, omega: float) -> MeasureResult:
    """Measure of the d-dimensional isotropic state, from the definitions.

    The minimizing local state is the isotropic state at the CGLMP visibility
    threshold 2/I_d; each distance is evaluated on the two density matrices
    with the metrics module rather than through a pre-simplified expression.
    """
    IsotropicParam(d=d, omega=omega)
    thr = cglmp_threshold(d).omega_threshold
    if omega <= thr + BOUNDARY_TOL:
        return _zero_result(kind, IsotropicParam(d=d, omega=omega))
    rho = make_isotropic(d, omega)
    loc = make_isotropic(d, thr)
    if kind is DistanceKind.HS:
        value = dist_hs(rho, loc)
    elif kind is DistanceKind.HELLINGER:
        value = dist_hellinger_sq(rho, loc)
    elif kind is DistanceKind.BURES:
        value = dist_bures(rho, loc) ** 2
    elif kind is DistanceKind.TRACE:
        value = dist_trace(rho, loc)
    else:
        value = rel_entropy(rho, loc)
    return MeasureResult(
        kind=kind,
        value=value,
        closest_local=IsotropicParam(d=d, omega=thr),
        method="closed_form",
        surface=None,
        iterations=0,
        converged=True,
        residual=0.0,
    )


def isotropic_reference_formula(kind: DistanceKind, d: int, omega: float) -> float | None:
    """Commonly quoted closed forms for the isotropic measures, verbatim.

    Kept as a cross-check against isotropic_measure; for some kinds the quoted
    prefactors disagree with the definition-based values, which the
    consistency flag downstream makes visible. No quoted form exists for the
    Bures kind, so it returns None.
    """
    IsotropicParam(d=d, omega=omega)
    if kind is DistanceKind.BURES:
        return None
    thr = cglmp_threshold(d).omega_threshold
    if omega <= thr + BOUNDARY_TOL:
        return 0.0
    d2 = float(d * d)
    if kind is DistanceKind.HS:
        return math.sqrt(1.0 - 1.0 / d2) * (omega - thr)
    if kind is DistanceKind.TRACE:
        return 2.0 * (d2 - 1.0) / d2 * (omega - thr)
    if kind is DistanceKind.HELLINGER:
        return 2.0 - (2.0 / d) * (
            (d2 - 1.0) * math.sqrt((1.0 - omega) * (1.0 - thr))
            + math.sqrt(((d2 - 1.0) * omega + 1.0) * ((d2 - 1.0) * thr + 1.0))
        )
    p_omega = ((d2 - 1.0) * omega + 1.0) / d2
    p_thr = ((d2 - 1.0) * thr + 1.0) / d2
    with np.errstate(divide="ignore"):
        return float(
            p_omega * np.log2(p_omega)
            + (d2 - 1.0) / d2 * np.log2((1.0 - omega) / d2)
            + p_thr * np.log2(p_thr)
            + (d2 - 1.0) / d2 * np.log2((1.0 - thr) / d2)
        )


def isotropic_consistency(
    kind: DistanceKind, d: int, omega: float, tol: float = 1e-9
) -> tuple[float, float | None, bool | None]:
    """Definition-based value, quoted closed form, and their agreement flag."""
    value = isotropic_measure(kind, d, omega).value
    reference = isotropic_reference_formula(kind, d, omega)
    if reference is None:
        return value, None, None
    if math.isinf(reference) or math.isinf(value):
        return value, reference, bool(reference == value)
    return value, reference, bool(abs(value - reference) <= tol * max(1.0, abs(value)))


# The kinds with a numeric objective. HS is the exact projection
# (bd_measure_hs), and Bures equals Hellinger on commuting states, so neither
# has an objective of its own.
OBJECTIVE_KINDS = (DistanceKind.HELLINGER, DistanceKind.TRACE, DistanceKind.RELATIVE_ENTROPY)


class BdObjective:
    """Distance objective between a fixed Bell-diagonal state and a variable
    one, in correlator coordinates x.

    value/gradient are the exact objective (a subgradient at trace kinks);
    value_at/gradient_at accept a smoothing width used only by the trace kind
    and work on plain float triples for the solver's benefit. The minimized
    quantity is the squared Hellinger distance, the trace distance itself, or
    the relative entropy in bits; any other kind raises OutOfRange.
    """

    def __init__(self, kind: DistanceKind, a: np.ndarray):
        if kind not in OBJECTIVE_KINDS:
            raise OutOfRange(f"no numeric objective for kind {kind.value!r}")
        self.kind = kind
        self.a = np.asarray(a, dtype=float)
        self.e = bd_corr_to_probs(self.a)
        self._sqrt_e = tuple(math.sqrt(max(ei, 0.0)) for ei in self.e)
        self._e = tuple(float(ei) for ei in self.e)

    def value_at(self, x, eps: float = 0.0) -> float:
        k = self.kind
        ex = solver.probs(x)
        if k is DistanceKind.HELLINGER:
            s = 0.0
            for si, xi in zip(self._sqrt_e, ex):
                if xi > 0.0:
                    s += si * math.sqrt(xi)
            return max(2.0 - 2.0 * s, 0.0)
        if k is DistanceKind.TRACE:
            if eps > 0.0:
                total = 0.0
                for ei, xi in zip(self._e, ex):
                    d = xi - ei
                    total += math.sqrt(d * d + eps * eps)
                return 0.5 * total
            return 0.5 * sum(abs(xi - ei) for ei, xi in zip(self._e, ex))
        total = 0.0
        for ei, xi in zip(self._e, ex):
            if ei > 1e-15:
                if xi <= 0.0:
                    return math.inf
                total += ei * math.log2(ei / xi)
        return total

    def gradient_at(self, x, eps: float = 0.0) -> tuple[float, float, float]:
        k = self.kind
        ex = solver.probs(x)
        de = [0.0, 0.0, 0.0, 0.0]
        if k is DistanceKind.HELLINGER:
            for i in range(4):
                if self._e[i] > 1e-15:
                    de[i] = -self._sqrt_e[i] / math.sqrt(max(ex[i], 1e-12))
        elif k is DistanceKind.TRACE:
            if eps > 0.0:
                for i in range(4):
                    d = ex[i] - self._e[i]
                    de[i] = 0.5 * d / math.sqrt(d * d + eps * eps)
            else:
                for i in range(4):
                    d = ex[i] - self._e[i]
                    de[i] = 0.5 * (0.0 if d == 0.0 else math.copysign(1.0, d))
        else:
            for i in range(4):
                if self._e[i] > 1e-15:
                    de[i] = -self._e[i] / (max(ex[i], 1e-300) * _LN2)
        return (
            0.25 * (de[0] + de[1] - de[2] - de[3]),
            0.25 * (de[0] - de[1] + de[2] - de[3]),
            0.25 * (-de[0] + de[1] + de[2] - de[3]),
        )

    def value(self, x) -> float:
        """Exact objective at x (no smoothing)."""
        return self.value_at((float(x[0]), float(x[1]), float(x[2])), 0.0)

    def gradient(self, x) -> np.ndarray:
        """Exact gradient at x; a subgradient at trace kinks."""
        return np.array(self.gradient_at((float(x[0]), float(x[1]), float(x[2])), 0.0))


def bd_measure_hs(a) -> MeasureResult:
    """Hilbert-Schmidt measure of a Bell-diagonal state.

    Half the Euclidean distance from the correlators a to the local set, from
    the exact projection (locality.project_local); surface names the active
    boundary piece of the closest local state.
    """
    proj = project_local(a)
    if proj.surface is None:
        return _zero_result(DistanceKind.HS, BellDiagonal.from_corr(a))
    return MeasureResult(
        kind=DistanceKind.HS,
        value=0.5 * proj.distance,
        closest_local=BellDiagonal.from_corr(proj.point),
        method="lagrange_case",
        surface=proj.surface,
        iterations=0,
        converged=True,
        residual=0.0,
    )


def _starts(kind: DistanceKind, a: np.ndarray, n_seeds: int, rng) -> list:
    """Deterministic seeds first, then random perturbations up to n_seeds."""
    seeds = []
    max_pair = max(solver.pair_violations(a)) + 1.0
    ray = np.asarray(a, dtype=float) / math.sqrt(max(max_pair, 1.0))
    seeds.append(ray)
    corner = BELL_CORNERS[int(np.argmax(BELL_CORNERS @ a))]
    seeds.append(WERNER_THRESHOLD * corner)
    for _, _, cand, _ in radial_candidates(a):
        seeds.append(cand)
    while len(seeds) < n_seeds:
        seeds.append(ray + rng.normal(scale=0.15, size=3))
    out = [solver.project_tetrahedron(s) for s in seeds[:n_seeds]]
    if kind is DistanceKind.RELATIVE_ENTROPY:
        # pull strictly inside so the divergence starts finite
        out = [(0.999 * s[0], 0.999 * s[1], 0.999 * s[2]) for s in out]
    return out


def _stationarity_residual(obj: BdObjective, x: np.ndarray) -> float:
    """Norm of the gradient after removing its active-constraint components."""
    grad = obj.gradient(x)
    if not np.all(np.isfinite(grad)):
        return math.inf
    cols = []
    for (i, j), v in zip(DISK_PAIRS, solver.pair_violations(x)):
        if abs(v) <= 1e-8:
            g = np.zeros(3)
            g[i] = 2.0 * x[i]
            g[j] = 2.0 * x[j]
            cols.append(g)
    ex = bd_corr_to_probs(x)
    for k in range(4):
        if ex[k] <= 1e-10:
            cols.append(-_JAC_E[k])
    if not cols:
        return float(np.linalg.norm(grad))
    mat = np.column_stack(cols)
    lam, *_ = np.linalg.lstsq(mat, -grad, rcond=None)
    return float(np.linalg.norm(grad + mat @ lam))


def bd_measure_numeric(
    kind: DistanceKind,
    a,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
) -> MeasureResult:
    """Measure of a Bell-diagonal state by constrained minimization.

    Multi-start projected descent with quadratic penalty continuation on the
    disk constraints; the tetrahedron is enforced exactly by projection. The
    trace objective is smoothed during descent and evaluated exactly at the
    solution. Deterministic for a fixed seed.

    Solves the Hellinger, trace and relative-entropy kinds. Bures equals
    Hellinger on commuting states, so a Bures request gets the Hellinger
    solve under its own kind. HS raises OutOfRange: it is the exact
    projection, bd_measure_hs.
    """
    if kind is DistanceKind.HS:
        raise OutOfRange("HS is the exact projection; use bd_measure or bd_measure_hs")
    cfg = cfg or OptimizerConfig()
    a = np.asarray(a, dtype=float)
    if not in_tetrahedron(a):
        raise NonPhysical(f"correlators {a.tolist()} outside the tetrahedron")
    if bd_is_chsh_local(a):
        return _zero_result(kind, BellDiagonal.from_corr(a))
    obj = BdObjective(DistanceKind.HELLINGER if kind is DistanceKind.BURES else kind, a)
    rng = np.random.default_rng(seed)
    eps0 = 1e-3 if kind is DistanceKind.TRACE else 0.0
    best_value = math.inf
    best_x = None
    best_iters = 0
    best_converged = False
    for x0 in _starts(kind, a, cfg.seeds, rng):
        report = solver.minimize_over_local_set(
            obj.value_at,
            obj.gradient_at,
            x0,
            param_tol=cfg.param_tol,
            value_tol=cfg.value_tol,
            max_iters=cfg.max_iters,
            penalty_growth=cfg.penalty_growth,
            eps0=eps0,
        )
        x = solver.polish_feasible(report.x)
        value = obj.value(x)
        if value < best_value:
            best_value = value
            best_x = x
            best_iters = report.iterations
            best_converged = report.tol_stopped and report.max_violation <= 1e-9
    if best_x is None:
        raise NotConverged(f"no start gave a finite {kind.value} objective")
    surface = None
    for (i, j), v in zip(DISK_PAIRS, solver.pair_violations(best_x)):
        if abs(v) <= 1e-8:
            surface = f"disk_{i + 1}{j + 1}"
            break
    return MeasureResult(
        kind=kind,
        value=best_value,
        closest_local=BellDiagonal.from_corr(best_x),
        method="numeric",
        surface=surface,
        iterations=best_iters,
        converged=best_converged,
        residual=_stationarity_residual(obj, best_x),
    )


def bd_measure(
    kind: DistanceKind,
    a,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
) -> MeasureResult:
    """Dispatch: exact projection for HS, numeric minimization otherwise."""
    if kind is DistanceKind.HS:
        return bd_measure_hs(a)
    return bd_measure_numeric(kind, a, cfg, seed=seed)


def two_bell_mix_corr(p: float) -> np.ndarray:
    """Correlators (2p - 1, -(2p - 1), 1) of the mix of two Bell states."""
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"mixing weight {p} outside [0, 1]")
    return np.array([2.0 * p - 1.0, -(2.0 * p - 1.0), 1.0])


def bd_sweep(
    kind: DistanceKind,
    family: str,
    n_points: int,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Normalized measure along a one-parameter Bell-diagonal family.

    family "two_bell_mix" sweeps p in [1/2, 1] over a = (2p-1, -(2p-1), 1);
    family "werner_line" sweeps w in [1/sqrt 2, 1] along the singlet corner.
    Values are divided by the Werner maximum of the same kind, so every sweep
    ends at 1 at the maximally nonlocal endpoint. Returns rows (parameter,
    normalized value).
    """
    if n_points < 2:
        raise OutOfRange("a sweep needs at least two points")
    norm = werner_max(kind)
    rows = np.empty((n_points, 2))
    if family == "two_bell_mix":
        params = np.linspace(0.5, 1.0, n_points)
        corr = [two_bell_mix_corr(p) for p in params]
    elif family == "werner_line":
        params = np.linspace(WERNER_THRESHOLD, 1.0, n_points)
        corr = [w * BELL_CORNERS[3] for w in params]
    else:
        raise OutOfRange(f"unknown family {family!r}")
    for idx, (p, a) in enumerate(zip(params, corr)):
        rows[idx, 0] = p
        rows[idx, 1] = bd_measure(kind, a, cfg, seed=seed).value / norm
    return rows


def bd_grid(
    kind: DistanceKind,
    grid_n: int,
    cfg: OptimizerConfig | None = None,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """Normalized measure over the facet e4 = 0 of the tetrahedron.

    The slice is sampled at steps of 1/grid_n in (e1, e2) with
    e3 = 1 - e1 - e2, keeping only physical nodes, in row-major order.
    Cells are independent, so refining the grid leaves values at coincident
    nodes untouched.
    """
    if grid_n < 1:
        raise OutOfRange("grid_n must be at least 1")
    norm = werner_max(kind)
    rows = []
    for i in range(grid_n + 1):
        for j in range(grid_n + 1 - i):
            e = np.array([i / grid_n, j / grid_n, (grid_n - i - j) / grid_n, 0.0])
            a = bd_probs_to_corr(e)
            value = bd_measure(kind, a, cfg, seed=seed).value / norm
            rows.append((float(e[0]), float(e[1]), float(value)))
    return rows
