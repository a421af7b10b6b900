import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_density, random_tetra_corr
from nlgeo.errors import (
    DimensionMismatch,
    InvalidProbability,
    NlgeoError,
    NonPhysical,
    NotHermitian,
    NotPSD,
    OutOfRange,
)
from nlgeo.dense import (
    DensityMatrix,
    PauliRep,
    _eig_hermitian,
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
from nlgeo.qstate import (
    BELL_CORNERS,
    BellDiagonal,
    IsotropicParam,
    WernerParam,
    bd_corr_to_probs,
    bd_probs_to_corr,
    physical_probs,
)
from nlgeo.locality import bd_is_chsh_local, cglmp_threshold
from nlgeo.arrays import isotropic_reference_formula, isotropic_values
from nlgeo.measures import bd_grid, bd_measure, bd_sweep, isotropic_measure, two_bell_mix_corr, werner_measure
from nlgeo.kinds import DistanceKind
from nlgeo.metrics import (
    dist_bures,
    dist_hellinger,
    dist_hellinger_sq,
    dist_hs,
    dist_trace,
    fidelity,
    rel_entropy,
)

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

N_ROUNDTRIPS = 200


def _nan_off_diagonal() -> np.ndarray:
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = m[1, 0] = math.nan
    return m


NAN_CALLS = {
    "from_corr": lambda: BellDiagonal.from_corr((math.nan, 0.0, 0.0)),
    "from_probs": lambda: BellDiagonal.from_probs((math.nan, 0.0, 0.0, 1.0)),
    "bd_probs_to_corr": lambda: bd_probs_to_corr((math.nan, 0.0, 0.0, 1.0)),
    "validate_off_diagonal": lambda: DensityMatrix(2, _nan_off_diagonal()).validate(),
    "validate_all_nan": lambda: DensityMatrix(2, np.full((4, 4), math.nan)).validate(),
    "make_bell_diagonal_e": lambda: make_bell_diagonal(e=(math.nan, 0.0, 0.0, 1.0)),
    "make_bell_diagonal_a": lambda: make_bell_diagonal(a=(math.nan, 0.0, 0.0)),
    "matrix_sqrt_psd": lambda: matrix_sqrt_psd(np.full((4, 4), math.nan)),
    "pauli_rep": lambda: PauliRep(np.diag([1.0, math.nan, 0.0, 0.0])),
    "isotropic_dimension": lambda: IsotropicParam(d=math.nan, omega=0.5),
    "cglmp_dimension": lambda: cglmp_threshold(math.nan),
    "bd_measure": lambda: bd_measure(DistanceKind.RELATIVE_ENTROPY, (math.nan, 0.0, 0.0)),
}
# every distance functional, with the nan matrix as either argument
NAN_CALLS.update(
    {
        f"{f.__name__}_{order}": lambda f=f, args=args: f(*args)
        for f in (dist_hs, dist_hellinger_sq, dist_hellinger, fidelity, dist_bures, dist_trace, rel_entropy)
        for order, args in (
            ("first", (np.full((4, 4), math.nan), np.eye(4) / 4.0)),
            ("second", (np.eye(4) / 4.0, np.full((4, 4), math.nan))),
        )
    }
)


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_input_raises_package_error(name):
    # a comparison such as x < -tol is false for nan, so each check must be
    # written the other way round for nan to fail it
    with pytest.raises(NlgeoError):
        NAN_CALLS[name]()

# every check a correlator vector passes on its way into a measure
CORR_CHECKS = {
    "physical_probs": physical_probs,
    "from_corr": BellDiagonal.from_corr,
    "bd_is_chsh_local": bd_is_chsh_local,
    **{f"bd_measure_{k.value}": lambda a, k=k: bd_measure(k, a) for k in DistanceKind},
}


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("name", sorted(CORR_CHECKS))
def test_nan_in_each_correlator_slot_is_nonphysical(name, slot):
    a = [0.1, 0.2, 0.3]
    a[slot] = math.nan
    with pytest.raises(NonPhysical, match="outside the physical tetrahedron"):
        CORR_CHECKS[name](a)


@pytest.mark.parametrize("slot", range(4))
def test_a_negative_weight_in_each_slot_is_nonphysical(slot):
    # -0.4 times corner k gives weight k (1 - 1.2) / 4 = -0.05 and the others
    # (1 + 0.4) / 4, so each weight's own comparison must catch it: a nan
    # correlator makes all four weights nan at once
    a = [-0.4 * c for c in BELL_CORNERS[slot]]
    assert sum(ek < 0.0 for ek in bd_corr_to_probs(a)) == 1
    with pytest.raises(NonPhysical, match="outside the physical tetrahedron"):
        physical_probs(a)


@pytest.mark.parametrize("bad", [math.nan, -0.01])
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("check", [bd_probs_to_corr, BellDiagonal.from_probs], ids=["bd_probs_to_corr", "from_probs"])
def test_a_nan_or_negative_weight_in_each_slot_is_invalid(check, slot, bad):
    # the message tells the weight check from the sum check, which a nan
    # weight would fail as well
    e = [0.25, 0.25, 0.25, 0.25]
    e[slot] = bad
    if not math.isnan(bad):
        e[(slot + 1) % 4] -= bad  # the sum stays 1
    with pytest.raises(InvalidProbability, match="negative or nan weight"):
        check(e)


@pytest.mark.parametrize("check", [bd_probs_to_corr, BellDiagonal.from_probs], ids=["bd_probs_to_corr", "from_probs"])
def test_weights_that_do_not_sum_to_one_are_invalid(check):
    with pytest.raises(InvalidProbability, match=r"^weights \[0.6, 0.6, 0.0, 0.0\] sum to 1.2, not 1$"):
        check((0.6, 0.6, 0.0, 0.0))


# each public converter with an input of its length, in ints
CONVERTERS = {
    "bd_corr_to_probs": (bd_corr_to_probs, [1, 0, 0]),
    "physical_probs": (physical_probs, [1, 0, 0]),
    "bd_probs_to_corr": (bd_probs_to_corr, [0, 1, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(CONVERTERS))
def test_public_converters_convert_their_input(name):
    # the private helpers take floats as they are, so the public entries
    # must still take any sequence of real numbers and return Python floats
    convert, ints = CONVERTERS[name]
    expected = convert(tuple(map(float, ints)))
    assert all(type(x) is float for x in expected)
    for v in (ints, tuple(ints), np.array(ints), np.array(ints, dtype=float), iter(ints)):
        out = convert(v)
        assert type(out) is tuple and out == expected, v
        assert all(type(x) is float for x in out), v
    n = len(ints)
    for bad in ("1" * n, b"1" * n, ints[:-1], ints + [0], 1.0, None):
        with pytest.raises(DimensionMismatch):
            convert(bad)


def test_public_converters_treat_nan_as_before():
    # physical_probs and bd_probs_to_corr check, and nan fails their checks;
    # bd_corr_to_probs returns the affine image unchecked
    with pytest.raises(NonPhysical, match="outside the physical tetrahedron"):
        physical_probs([math.nan, 0.0, 0.0])
    with pytest.raises(InvalidProbability, match="negative or nan weight"):
        bd_probs_to_corr([math.nan, 0.0, 0.0, 1.0])
    assert all(math.isnan(x) for x in bd_corr_to_probs([math.nan, 0.0, 0.0]))


# the entries of a number that no float can hold: a huge int or fraction
# must raise the library's DimensionMismatch naming it, not OverflowError,
# and not an infinite float beside it
HUGE_ENTRIES = {
    "bd_measure": lambda x: bd_measure(DistanceKind.HS, [x, 0, 0]),
    "from_probs": lambda x: BellDiagonal.from_probs([x, 0, 0, 0]),
    "bd_corr_to_probs": lambda x: bd_corr_to_probs([math.inf, x, 0]),
}


@pytest.mark.parametrize("huge", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative", "fraction"])
@pytest.mark.parametrize("entry", sorted(HUGE_ENTRIES))
def test_a_number_no_float_can_hold_raises_dimension_mismatch_naming_it(entry, huge):
    with pytest.raises(DimensionMismatch, match=f"item {re.escape(repr(huge))} is too large for a float"):
        HUGE_ENTRIES[entry](huge)


# the family entries of a parameter that no float can hold: OutOfRange
# naming it, not OverflowError. Arrays are checked at their extremes only,
# so a long sweep pays nothing per entry
HUGE = 10**400
HUGE_PARAMS = {
    "werner_measure": lambda: werner_measure(DistanceKind.HS, HUGE),
    "isotropic_measure": lambda: isotropic_measure(DistanceKind.HS, 3, HUGE),
    "isotropic_measure_fraction": lambda: isotropic_measure(DistanceKind.HS, 3, Fraction(HUGE)),
    "isotropic_measure_dimension": lambda: isotropic_measure(DistanceKind.HS, HUGE, 0.5),
    "IsotropicParam_dimension": lambda: IsotropicParam(HUGE, 0.5),
    "cglmp_threshold": lambda: cglmp_threshold(HUGE),
    "isotropic_values": lambda: isotropic_values(DistanceKind.HS, 3, [0.9, HUGE]),
    "isotropic_values_negative": lambda: isotropic_values(DistanceKind.HS, 3, [[0.9], [-HUGE]]),
    "isotropic_reference_formula": lambda: isotropic_reference_formula(DistanceKind.HS, 3, [HUGE]),
    "isotropic_reference_formula_scalar": lambda: isotropic_reference_formula(DistanceKind.HS, 3, HUGE),
}


@pytest.mark.parametrize("entry", sorted(HUGE_PARAMS))
def test_a_parameter_no_float_can_hold_raises_out_of_range_naming_it(entry):
    with pytest.raises(OutOfRange, match=f"{HUGE}:? .*too large for a float"):
        HUGE_PARAMS[entry]()


# an int past CPython's limit on the digits str writes (4,300 by default) is
# named by its size, so the call raises the library's own error, not the
# ValueError that str raises while the message is built
LONG = 10**5000
LONG_INT_ENTRIES = {
    "werner_measure": (OutOfRange, "an int", lambda: werner_measure(DistanceKind.HS, LONG)),
    "bd_measure": (DimensionMismatch, "an int", lambda: bd_measure(DistanceKind.HS, [LONG, 0, 0])),
    "bd_grid": (OutOfRange, "a negative int", lambda: bd_grid(DistanceKind.HS, -LONG)),
    "isotropic_measure": (OutOfRange, "an int", lambda: isotropic_measure(DistanceKind.HS, LONG, 0.5)),
    "bd_measure_length": (DimensionMismatch, "a list", lambda: bd_measure(DistanceKind.HS, [LONG, 0])),
    "cglmp_threshold": (OutOfRange, "an int", lambda: cglmp_threshold(LONG)),
    "WernerParam": (OutOfRange, "an int", lambda: WernerParam(LONG)),
    "IsotropicParam_omega": (OutOfRange, "a negative int", lambda: IsotropicParam(3, -LONG)),
    "two_bell_mix_corr": (OutOfRange, "an int", lambda: two_bell_mix_corr(LONG)),
}


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="this interpreter writes ints of any length"
)
@pytest.mark.parametrize("entry", sorted(LONG_INT_ENTRIES))
def test_an_int_too_long_to_write_raises_the_library_error_naming_its_size(entry):
    error, named, call = LONG_INT_ENTRIES[entry]
    size = f"of {LONG.bit_length()} bits" if named.endswith("int") else "holding an int too long to write"
    with pytest.raises(error, match=f"{named} {size}"):
        call()


unit_interval = st.floats(min_value=0.0, max_value=1.0)


def test_pauli_density_roundtrip(rng):
    for _ in range(N_ROUNDTRIPS):
        rho = DensityMatrix(dim=2, mat=random_density(rng, 4))
        rep = density_to_pauli(rho)
        assert rep.alpha[0, 0] == 1.0
        back = pauli_to_density(rep)
        assert np.max(np.abs(back.mat - rho.mat)) <= 1e-12


def test_corr_prob_roundtrip(rng):
    for _ in range(N_ROUNDTRIPS):
        e = rng.dirichlet(np.ones(4))
        a = bd_probs_to_corr(e)
        assert np.max(np.abs(bd_corr_to_probs(a) - e)) <= 1e-12
        assert np.max(np.abs(np.subtract(bd_probs_to_corr(bd_corr_to_probs(a)), a))) <= 1e-12


def test_bell_corners_are_unit_weight_points():
    for i, corner in enumerate(BELL_CORNERS):
        e = bd_corr_to_probs(corner)
        expected = np.zeros(4)
        expected[i] = 1.0
        assert np.max(np.abs(e - expected)) <= 1e-15


def test_unit_weights_build_bell_projectors():
    # weight index vs the |phi+->, |psi+-> ordering of BELL_KETS
    perm = (2, 0, 1, 3)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        rho = make_bell_diagonal(e=e)
        ket = BELL_KETS[perm[i]]
        assert np.max(np.abs(rho.mat - np.outer(ket, ket.conj()))) <= 1e-14


def test_validate_rejects_bad_matrices(rng):
    rho = random_density(rng, 4)
    bad = rho.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(NotHermitian):
        DensityMatrix(dim=2, mat=bad).validate()
    with pytest.raises(NonPhysical):
        DensityMatrix(dim=2, mat=1.1 * rho).validate()
    evals, evecs = np.linalg.eigh(rho)
    evals = evals - 2.0 * evals[0]  # push the smallest eigenvalue negative
    spoiled = (evecs * evals) @ evecs.conj().T
    spoiled /= np.trace(spoiled).real
    with pytest.raises(NotPSD):
        DensityMatrix(dim=2, mat=spoiled).validate()
    with pytest.raises(DimensionMismatch):
        DensityMatrix(dim=3, mat=rho).validate()
    # the Pauli map and the Bell-diagonal projection take two qubits only
    qutrits = make_isotropic(3, 0.5)
    for two_qubit_only in (density_to_pauli, bd_project):
        with pytest.raises(DimensionMismatch):
            two_qubit_only(qutrits)
    # an eigenvalue below the PSD floor has no clamped square root
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.diag([1.0, -1e-6]))


def test_pauli_rep_requires_unit_identity_component():
    alpha = np.zeros((4, 4))
    alpha[0, 0] = 0.5
    with pytest.raises(OutOfRange):
        PauliRep(alpha)
    with pytest.raises(DimensionMismatch):
        PauliRep(np.eye(3))


def test_eig_hermitian_descending(rng):
    # matrix_sqrt_psd reads the smallest eigenvalue off the end
    rho = random_density(rng, 6)
    evals, evecs = _eig_hermitian(rho)
    assert np.all(np.diff(evals) <= 0)
    rebuilt = (evecs * evals) @ evecs.conj().T
    assert np.max(np.abs(rebuilt - rho)) <= 1e-12


def test_matrix_sqrt_psd(rng):
    rho = random_density(rng, 5)
    root = matrix_sqrt_psd(rho)
    assert np.max(np.abs(root @ root - rho)) <= 1e-12
    assert np.max(np.abs(root - root.conj().T)) <= 1e-14


def test_bd_project_extracts_diagonal_and_is_idempotent(rng):
    for _ in range(50):
        rho = DensityMatrix(dim=2, mat=random_density(rng, 4))
        bd = bd_project(rho)
        corr = density_to_pauli(rho).corr
        assert np.max(np.abs(bd.a - np.diag(corr))) <= 1e-12
        again = bd_project(make_bell_diagonal(a=bd.a))
        assert np.max(np.abs(np.subtract(again.a, bd.a))) <= 1e-12


def test_bd_project_product_state():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0  # |00>
    bd = bd_project(DensityMatrix(dim=2, mat=np.outer(ket, ket.conj())))
    assert np.max(np.abs(bd.a - np.array([0.0, 0.0, 1.0]))) <= 1e-15


def test_twirl_matches_haar_average(rng):
    # Monte Carlo over U x U* conjugations reproduces the closed-form twirl
    d = 3
    rho = DensityMatrix(dim=d, mat=random_density(rng, d * d))
    iso = twirl_isotropic(rho)
    target = make_isotropic(d, iso.omega).mat
    acc = np.zeros((d * d, d * d), dtype=complex)
    n = 4000
    for _ in range(n):
        u = haar_unitary(rng, d)
        big = np.kron(u, u.conj())
        acc += big @ rho.mat @ big.conj().T
    assert np.linalg.norm(acc / n - target) <= 0.05


def test_twirl_fixed_points():
    assert twirl_isotropic(make_isotropic(2, 1.0)).omega == pytest.approx(1.0, abs=1e-12)
    d = 3
    mixed = DensityMatrix(dim=d, mat=np.eye(d * d) / (d * d))
    assert twirl_isotropic(mixed).omega == pytest.approx(0.0, abs=1e-12)


def test_phi_plus_ket_normalized():
    for d in (2, 3, 5):
        v = phi_plus_ket(d)
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-14)
        assert v[0] == pytest.approx(1.0 / math.sqrt(d), abs=1e-14)


@given(w=st.floats(min_value=-0.333, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_werner_constructor_physical(w):
    make_werner(w).validate()


def test_werner_range_is_the_d2_isotropic_range():
    # w = -1/3 is physical, its singlet weight being 0, and both records
    # admit the same rounding slack at either end
    third = -1.0 / 3.0
    assert WernerParam(third).w == third
    make_werner(third).validate()
    for ok in (third - 5e-13, 1.0 + 5e-13):
        assert WernerParam(ok).w == IsotropicParam(2, ok).omega == ok
    for bad in (third - 1e-11, 1.2, math.nan):
        with pytest.raises(OutOfRange):
            WernerParam(bad)
        with pytest.raises(OutOfRange):
            IsotropicParam(2, bad)


def test_werner_corner_spectrum():
    # make_werner is the singlet corner; every Bell corner has its spectrum
    w = 0.8
    states = [make_werner(w)] + [make_bell_diagonal(a=[w * c for c in corner]) for corner in BELL_CORNERS]
    for state in states:
        evals = np.linalg.eigvalsh(state.mat)[::-1]
        expected = np.array([(1 + 3 * w) / 4] + [(1 - w) / 4] * 3)
        assert np.max(np.abs(evals - expected)) <= 1e-12


def test_bell_diagonal_spectrum_example():
    evals = np.linalg.eigvalsh(make_bell_diagonal(a=[-0.5, -0.5, -0.5]).mat)[::-1]
    assert np.max(np.abs(evals - np.array([0.625, 0.125, 0.125, 0.125]))) <= 1e-12


@given(
    omega=st.floats(min_value=0.0, max_value=1.0),
    d=st.sampled_from([2, 3, 4]),
)
@settings(max_examples=40, deadline=None)
def test_isotropic_constructor_physical(omega, d):
    lo = -1.0 / (d * d - 1)
    omega = lo + (1.0 - lo) * omega  # rescale to the full physical range
    make_isotropic(d, omega).validate()


def test_family_constructor_range_errors():
    with pytest.raises(OutOfRange):
        make_werner(-0.5)
    with pytest.raises(OutOfRange):
        make_werner(1.2)
    with pytest.raises(OutOfRange):
        IsotropicParam(d=1, omega=0.5)
    with pytest.raises(OutOfRange):
        make_isotropic(3, 1.0001)
    with pytest.raises(OutOfRange):
        make_isotropic(3, -0.2)
    with pytest.raises(OutOfRange):
        WernerParam(-0.34)


@pytest.mark.parametrize("d", [3.0, np.int64(3)])
def test_a_whole_number_dimension_acts_as_the_int(d):
    # every result equals that of d = 3 bit for bit, and records an int d;
    # repr tells 3.0 from 3 and round-trips every float exactly
    assert repr(IsotropicParam(d=d, omega=0.9)) == repr(IsotropicParam(d=3, omega=0.9))
    assert repr(cglmp_threshold(d)) == repr(cglmp_threshold(3))
    for kind in DistanceKind:
        assert repr(isotropic_measure(kind, d, 0.9)) == repr(isotropic_measure(kind, 3, 0.9)), kind
    state, ref = make_isotropic(d, 0.9), make_isotropic(3, 0.9)
    assert type(state.dim) is int and np.array_equal(state.mat, ref.mat)


@pytest.mark.parametrize("d", [2.5, math.nan, math.inf, True])
def test_a_dimension_that_is_not_a_whole_number_raises(d):
    calls = (
        lambda: IsotropicParam(d=d, omega=0.5),
        lambda: cglmp_threshold(d),
        lambda: isotropic_measure(DistanceKind.HS, d, 0.9),
        lambda: make_isotropic(d, 0.5),
        # counts go through the same check
        lambda: bd_grid(DistanceKind.HS, d),
        lambda: bd_sweep(DistanceKind.HS, "two_bell_mix", d),
    )
    for call in calls:
        with pytest.raises(OutOfRange):
            call()


def test_make_bell_diagonal_argument_checks():
    with pytest.raises(OutOfRange):
        make_bell_diagonal()
    with pytest.raises(OutOfRange):
        make_bell_diagonal(a=[0.1, 0.1, 0.1], e=[0.25, 0.25, 0.25, 0.25])
    with pytest.raises(NonPhysical):
        BellDiagonal.from_corr(np.array([0.9, -0.9, 0.2]))
    with pytest.raises(InvalidProbability):
        BellDiagonal.from_probs(np.array([0.5, 0.6, 0.0, -0.1]))


# Bell weights that sum to 1 within PROB_SUM_ATOL, but whose correlators
# (1.0000000008, 0, 0) lie outside the tetrahedron
SLACK_WEIGHTS = (0.5000000004, 0.5000000004, 0.0, 0.0)


def test_one_physicality_check_and_one_error():
    a = bd_probs_to_corr(SLACK_WEIGHTS)
    calls = [
        lambda: BellDiagonal.from_probs(SLACK_WEIGHTS),
        lambda: BellDiagonal.from_corr(a),
        lambda: make_bell_diagonal(e=SLACK_WEIGHTS),
        lambda: bd_is_chsh_local(a),
        *(lambda kind=kind: bd_measure(kind, a) for kind in DistanceKind),
    ]
    for call in calls:
        with pytest.raises(NonPhysical) as info:
            call()
        assert str(info.value) == f"correlators {list(a)} lie outside the physical tetrahedron"


def test_every_public_way_to_build_a_bell_diagonal_checks_it():
    # a BellDiagonal is a checked state, so bd_is_chsh_local can trust one
    state = BellDiagonal.from_corr((0.1, 0.2, 0.3))
    nonphysical = [
        lambda: BellDiagonal((2.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        lambda: BellDiagonal._make(((2.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))),
        lambda: state._replace(a=(3.0, 3.0, 3.0)),
        lambda: bd_is_chsh_local(BellDiagonal((2.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))),
        lambda: bd_is_chsh_local(state._replace(a=(3.0, 3.0, 3.0))),
        # e is checked as from_probs checks it, its correlators included
        lambda: state._replace(e=SLACK_WEIGHTS),
    ]
    for call in nonphysical:
        with pytest.raises(NonPhysical):
            call()
    with pytest.raises(InvalidProbability):
        state._replace(e=(0.5, 0.6, 0.0, -0.1))
    with pytest.raises(DimensionMismatch):
        state._replace(a=(0.1, 0.2))
    with pytest.raises(DimensionMismatch):
        BellDiagonal(state.a, (0.5, 0.5, 0.0))
    # a physical record comes back as float tuples, equal to the checked state
    built = BellDiagonal(np.array(state.a), np.array(state.e))
    assert built == state == state._replace() == BellDiagonal._make(state)
    assert all(type(v) is tuple and all(type(x) is float for x in v) for v in built)


def test_a_bell_diagonal_of_two_different_states_is_refused():
    # each of a and e is physical alone, but e's correlators are (1, 1, -1)
    state = BellDiagonal.from_corr((0.1, 0.2, 0.3))
    corner = BellDiagonal.from_probs((1.0, 0.0, 0.0, 0.0))
    mismatched = [
        lambda: BellDiagonal(state.a, corner.e),
        lambda: BellDiagonal._make((state.a, corner.e)),
        lambda: state._replace(e=corner.e),
        lambda: corner._replace(a=state.a),
    ]
    for call in mismatched:
        with pytest.raises(NonPhysical) as info:
            call()
        assert str(info.value) == f"correlators {list(state.a)} and weights {list(corner.e)} are two different states"
    # weights that round back to a within rounding are the same state
    assert BellDiagonal(state.a, bd_corr_to_probs(state.a)) == state


def test_random_tetra_points_are_physical(rng):
    for _ in range(N_ROUNDTRIPS):
        make_bell_diagonal(a=random_tetra_corr(rng)).validate()
