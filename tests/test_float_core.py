"""The Bell-diagonal core runs on Python floats: importing it, and running the
Bell-diagonal commands, leaves numpy and dataclasses unimported, its values
are Python floats, its records are immutable named tuples, and its float maps
reproduce the numpy expressions they replace bit for bit."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nlgeo
from nlgeo import locality, measures, solver
from nlgeo.arrays import isotropic_values
from nlgeo.errors import NonPhysical, OutOfRange
from nlgeo.kinds import DistanceKind
from nlgeo.qstate import BellDiagonal, IsotropicParam, WernerParam, bd_corr_to_probs, bd_probs_to_corr
from nlgeo.validation import CheckResult, run_validation

KINDS = list(DistanceKind)

# the two maps as matrices: the products are the reference for the written-out maps
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

IMPORT_GUARD = textwrap.dedent(
    """
    import os, sys
    out = sys.argv[1]

    def loaded():
        # numpy, and dataclasses with the inspect module it imports
        return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]

    import nlgeo, nlgeo.cli
    assert loaded() == [], ("import", loaded())
    for i, argv in enumerate((
        ["bd-measure", "--a=0.84,0.63,-0.5"],
        ["bd-sweep", "--n", "5"],
        ["bd-grid", "--grid-n", "4", "--kind", "he"],
        ["validate"],
    )):
        assert nlgeo.cli.main(argv + ["--out", os.path.join(out, f"{i}.csv")]) == 0, argv
        assert loaded() == [], (argv, loaded())
    rho = nlgeo.DensityMatrix(dim=2, mat=nlgeo.make_werner(0.9).mat)
    from nlgeo import chsh_verdict, dist_trace, make_werner
    assert "numpy" in sys.modules
    assert dist_trace(rho, make_werner(1.0 / 2 ** 0.5)) > 0.0
    assert not chsh_verdict(nlgeo.density_to_pauli(rho)).is_local
    for argv in (["werner-sweep", "--n", "5"], ["iso", "--d", "3", "--n", "4"]):
        assert nlgeo.cli.main(argv + ["--out", os.path.join(out, argv[0] + ".csv")]) == 0, argv
    print("ok")
    """
)


def test_bell_diagonal_commands_never_import_numpy(tmp_path):
    # the fresh interpreter imports the nlgeo under test
    src = str(Path(nlgeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", [(0.1, 0.2, -0.3), (0.84, 0.63, -0.5), (0.85, 0.85, -0.85)])
def test_measure_values_and_points_are_python_floats(kind, a):
    for arg in (a, np.array(a)):
        res = measures.bd_measure(kind, arg)
        assert type(res.value) is float
        for vector in (res.closest_local.a, res.closest_local.e):
            assert type(vector) is tuple and all(type(v) is float for v in vector)
    assert type(measures.werner_measure(kind, 0.9).value) is float
    assert type(measures.isotropic_measure(kind, 3, 0.9).value) is float


def test_records_are_immutable_named_tuples():
    a = (0.84, 0.63, -0.5)
    res = measures.bd_measure(DistanceKind.HELLINGER, a)
    records = [
        res,
        res.closest_local,
        WernerParam(0.9),
        IsotropicParam(d=3, omega=0.5),
        locality.cglmp_threshold(3),
        locality.chsh_verdict(nlgeo.density_to_pauli(nlgeo.make_werner(0.9))),
        solver.minimize_over_local_set(
            *measures.KERNELS[DistanceKind.HELLINGER](locality.bell_chamber(bd_corr_to_probs(a)).e), 0.25 * math.pi
        ),
        CheckResult("check", True, 0.0, 1e-6, 0.0),
    ]
    for record in records:
        assert isinstance(record, tuple) and not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        assert tuple(record) == record and record._replace() == record
    # the checks run on construction, and through _make and _replace too
    with pytest.raises(OutOfRange):
        WernerParam(-0.5)
    with pytest.raises(OutOfRange):
        IsotropicParam(d=1, omega=0.5)
    with pytest.raises(OutOfRange):
        WernerParam(0.9)._replace(w=-0.5)
    with pytest.raises(NonPhysical):
        BellDiagonal.from_corr((1.0, 1.0, 1.0))
    closest = res.closest_local
    for bd in (BellDiagonal(np.array(a), np.array(bd_corr_to_probs(a))), closest._replace(a=np.array(closest.a))):
        assert all(type(v) is tuple and all(type(x) is float for x in v) for v in bd)
    exact = measures.bd_measure(DistanceKind.HS, (0.1, 0.2, -0.3))
    assert (exact.surface, exact.iterations, exact.converged) == (None, 0, True)
    assert measures.MeasureResult(DistanceKind.HS, 0.0, None, "closed_form") == exact._replace(closest_local=None)
    assert CheckResult("check", True, 0.0, 1e-6, 0.0).detail == ""


def test_validation_errors_are_python_floats():
    assert all(type(c.max_error) is float for c in run_validation())


def test_sweep_rows_are_float_tuples():
    rows = measures.bd_sweep(DistanceKind.HS, "two_bell_mix", 4)
    assert type(rows) is list and len(rows) == 4
    assert all(type(r) is tuple and len(r) == 2 and all(type(v) is float for v in r) for r in rows)
    assert measures.two_bell_mix_corr(0.75) == (0.5, -0.5, 1.0)


def _same(x, y) -> bool:
    """Bit equality, the sign of a zero included."""
    return np.array_equal(np.asarray(x), np.asarray(y)) and np.array_equal(np.signbit(x), np.signbit(y))


def test_maps_equal_the_matrix_products_bit_for_bit():
    rng = np.random.default_rng(18)
    corr = [rng.uniform(-1.0, 1.0, 3) for _ in range(5000)]
    corr += [np.array(c) for c in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, 1.0, -1.0), (0.5, -0.0, 1e-300))]
    for a in corr:
        assert _same(bd_corr_to_probs(a), PROBS_FROM_CORR @ np.concatenate(([1.0], a))), a
    weights = [rng.dirichlet(np.full(4, 0.3)) for _ in range(5000)]
    # grid nodes of the facet e4 = 0, where bd_grid evaluates
    weights += [np.array([i / 7, j / 7, (7 - i - j) / 7, 0.0]) for i in range(8) for j in range(8 - i)]
    for e in weights:
        assert _same(bd_probs_to_corr(e), CORR_FROM_PROBS @ e), e


@pytest.mark.parametrize("kind", KINDS)
def test_float_closed_forms_equal_the_array_ones_bit_for_bit(kind):
    assert measures.werner_max(kind) == isotropic_values(kind, 2, [1.0])[0]
    ws = np.linspace(-0.3, 1.0, 301).tolist() + [1.0 + 5e-13]
    for w, value in zip(ws, isotropic_values(kind, 2, ws)):
        assert measures.werner_measure(kind, w).value == value, w
    for d in (2, 3, 5, 8):
        omegas = np.linspace(-1.0 / (d * d - 1.0), 1.0, 101).tolist()
        for om, value in zip(omegas, isotropic_values(kind, d, omegas)):
            assert measures.isotropic_measure(kind, d, om).value == value, (d, om)


def test_cglmp_weights_equal_the_numpy_formula():
    for d in range(2, 60):
        for k in range(-d, d):
            s = np.sin(np.pi * (k + 0.25) / d)
            assert locality._qk(d, k) == float(1.0 / (2.0 * d**3 * s * s)), (d, k)


def test_sweep_parameters_equal_numpy_linspace():
    for n in range(2, 400):
        for start in (0.5, 1.0 / math.sqrt(2.0)):
            assert measures._linspace(start, 1.0, n) == np.linspace(start, 1.0, n).tolist(), n
