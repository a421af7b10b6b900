"""Tests of the benchmark itself: inputs, tracer, checks and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ["families", "random_bd", "closed_form_io", "validate"]
END_TO_END = ["pass_s", "solve_ms_p50", "solve_ms_p90", "peak_rss_mb", "setup_s"]
PER_LAYER = [
    "solver.minimize.calls", "solver.iterations", "solver.minimize.s",
    "solver.project_tetrahedron.calls", "solver.project_tetrahedron.s",
    "solver.polish_feasible.calls", "solver.polish_feasible.s",
    "solver.starts_per_solve", "solver.evals_per_solve",
    "measures.obj_value.calls", "measures.obj_grad.calls", "measures.obj.s",
    "measures.bd_measure.calls", "measures.bd_measure.s",
    "measures.numeric.calls", "measures.numeric.s",
    "measures.method.closed_form", "measures.method.lagrange_case", "measures.method.numeric",
    "measures.hs_fallback.calls", "measures.hs_exact_ratio", "measures.unconverged",
    "measures.bd_grid.s", "measures.bd_sweep.s",
    "measures.werner_measure.calls", "measures.isotropic_measure.s", "metrics.s",
    "qstate.make_isotropic.s", "locality.cglmp_threshold.s", "locality.bd_is_chsh_local.calls",
    "cli.write_table.s", "cli.write_table.bytes",
    "validation.oracle_werner_hs.s", "validation.oracle_werner_he.s", "validation.oracle_werner_bu.s",
    "validation.oracle_werner_tr.s", "validation.oracle_werner_re.s",
    "validation.grid_convergence_hs.s", "validation.multiseed_consistency.s",
    # accuracy is a deterministic function of the seed, like the counters,
    # and is 0 on some workloads; it is gated by checks.ACCURACY_BUDGET
    "err_max", "wrong_frac", "fail_frac",
    "trace.overhead_s",
]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


def test_seed_changes_random_states():
    assert workloads.make_inputs("random_bd", 1)["ops"] != workloads.make_inputs("random_bd", 2)["ops"]
    assert workloads.make_inputs("closed_form_io", 1)["ops"] != workloads.make_inputs("closed_form_io", 2)["ops"]


def test_random_bd_inputs_are_nonlocal_and_keep_the_known_defects():
    ops = workloads.make_inputs("random_bd", 3)["ops"]
    assert len(ops) >= 100
    for op in ops:
        assert not reference.is_local(op["a"])
        assert reference.weights(op["a"]).min() >= -1e-12
    tail = [(op["kind"], tuple(op["a"])) for op in ops[-3:]]
    assert tail == [(k, tuple(a)) for k, a in workloads.FALSE_CONVERGENCE]


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 6.0, 7.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracing._wrap_hot(t, "leaf", lambda: None)
    t.enter("outer")   # 0
    t.enter("inner")   # 1
    t.exit()           # 4: inner lasts 3
    t.enter("inner")   # 5
    leaf()             # 5.5 to 6: the leaf lasts 0.5
    t.exit()           # 7: inner lasts 2, 1.5 of it its own
    t.exit()           # 10: outer lasts 10, children cover 5
    assert t.calls("inner") == 2
    assert t.seconds("outer") == 10.0
    assert t.self_seconds("outer") == 5.0
    assert t.seconds("inner") == 5.0
    assert t.self_seconds("inner") == 4.5
    # hot leaves are counted and timed, but their spans are not kept
    assert (t.calls("leaf"), t.seconds("leaf")) == (1, 0.5)
    assert [s[1] for s in t.spans] == ["inner", "inner", "outer"]
    outer_id = t.spans[-1][0]
    assert all(s[4] == outer_id for s in t.spans[:2])


def test_recursive_span_time_is_not_counted_twice():
    ticks = iter([0.0, 1.0, 2.0, 3.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("metrics")
    t.enter("metrics")
    t.exit()
    t.exit()
    assert t.seconds("metrics") == 3.0
    assert t.self_seconds("metrics") == 3.0


def _traced_pass():
    import nlgeo

    t = tracing.Tracer()
    undo, missing = tracing.install(t)
    try:
        for kind, a in workloads.FALSE_CONVERGENCE:
            nlgeo.bd_measure(nlgeo.DistanceKind(kind), np.array(a))
    finally:
        tracing.uninstall(undo)
    return tracing.layer_metrics(t), missing


def test_traced_counters_repeat_exactly_and_patches_are_undone():
    import nlgeo

    original = nlgeo.measures.BdObjective.value_at
    first, missing = _traced_pass()
    second, _ = _traced_pass()
    assert missing == []
    assert nlgeo.measures.BdObjective.value_at is original
    counters = {k: v for k, v in first.items() if not tracing.is_time(k)}
    assert counters == {k: v for k, v in second.items() if not tracing.is_time(k)}
    assert first["measures.bd_measure.calls"] == 3
    assert first["measures.method.numeric"] == 3
    assert first["solver.minimize.calls"] > 0 and first["measures.obj_value.calls"] > 0


def test_reference_check_flags_a_value_perturbed_by_1e5():
    a = [-0.6, 0.9, 0.55]
    ref = reference.bd_ref("he", a)
    v = checks.Verdict()
    v.compare("exact", ref, ref)
    assert v.wrong == 0
    v.compare("perturbed", ref + 1e-5, ref)
    assert (v.checked, v.wrong) == (2, 1)
    assert v.err_max == pytest.approx(1e-5)
    assert v.correct  # an upper bound above the reference is inaccurate, not invalid

    w = 0.9
    cf = checks.Verdict()
    cf.closed_form("werner", reference.werner_ref("re", w) + 1e-5, reference.werner_ref("re", w))
    assert cf.wrong == 1 and not cf.correct  # a closed form has no slack


def test_accuracy_beyond_the_budget_makes_the_run_incorrect():
    v = checks.Verdict()
    v.compare("exact", 0.5, 0.5)
    checks.check_accuracy_budget(v, "closed_form_io")
    assert v.correct
    v.compare("perturbed", 0.5 + 1e-5, 0.5)
    checks.check_accuracy_budget(v, "closed_form_io")
    assert not v.correct
    max_frac, max_err = checks.ACCURACY_BUDGET["random_bd"]
    within = checks.Verdict(checked=100, wrong=int(100 * max_frac), err_max=max_err)
    checks.check_accuracy_budget(within, "random_bd")
    assert within.correct
    beyond = checks.Verdict(checked=100, wrong=int(100 * max_frac) + 1, err_max=max_err)
    checks.check_accuracy_budget(beyond, "random_bd")
    assert not beyond.correct


VALIDATE_CSV = """# command: validate
check,status,max_error,tolerance,seconds,detail
oracle_werner_hs,pass,1e-11,1e-06,{s},
oracle_werner_he,pass,4e-10,1e-06,0.7,
oracle_werner_bu,pass,4e-10,1e-06,0.8,
oracle_werner_tr,pass,3e-11,1e-06,0.7,
oracle_werner_re,{status},1e-09,1e-06,0.6,
grid_convergence_hs,pass,0,1e-06,16.1,
multiseed_consistency,pass,1.2e-06,1e-05,4.0,
"""


def test_validate_check_and_fingerprint_leave_out_seconds(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, seconds in ((a, "0.41"), (b, "0.52")):
        d.mkdir()
        (d / "validate.csv").write_text(VALIDATE_CSV.format(s=seconds, status="pass"))
    v = checks.Verdict()
    checks.check_validate(v, a)
    assert v.correct
    fa = checks.fingerprint(a / "validate.csv", ("seconds",))
    assert fa == checks.fingerprint(b / "validate.csv", ("seconds",))
    assert checks.fingerprint(a / "validate.csv") != checks.fingerprint(b / "validate.csv")
    (b / "validate.csv").write_text(VALIDATE_CSV.format(s="0.41", status="FAIL"))
    assert checks.fingerprint(b / "validate.csv", ("seconds",)) != fa
    checks.check_validate(v, b)
    assert not v.correct


def test_validation_seconds_are_scaled_and_reported_per_check(tmp_path):
    (tmp_path / "pass0").mkdir()
    (tmp_path / "pass0" / "validate.csv").write_text(VALIDATE_CSV.format(s="0.5", status="pass"))
    results = {"passes": [{"traced": False, "dir": "pass0", "ops": [{"ms": 2.0, "raw_ms": 1.0}]}]}
    values = run.validation_seconds(results, tmp_path)
    assert values["validation.oracle_werner_hs.s"] == pytest.approx(1.0)
    assert values["validation.grid_convergence_hs.s"] == pytest.approx(32.2)
    assert run.validation_seconds({"passes": []}, tmp_path) == dict.fromkeys(values, 0.0)


def test_long_operations_are_timed_in_segments(monkeypatch):
    import worker

    ticks, cals = iter([0.0, 0.1, 0.3, 0.45, 0.5, 1.1, 1.2]), iter([0.004, 0.008, 0.004])
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(worker.calibration, "calibrate", lambda: next(cals))
    clock = worker.NominalClock()  # t0 = 0.0, calibration 0.004
    clock.start()  # 0.1
    clock.tick()  # 0.3: 0.2 s past start, under SEGMENT_S
    clock.tick()  # 0.45: a 0.35 s segment at 1.5x the nominal loop time (0.004, then 0.008)
    assert clock.raw == pytest.approx(0.35) and clock.nominal == pytest.approx(0.35 / 1.5)
    # the next segment runs from 0.5 to 1.1, calibrations 0.008 and 0.004
    assert clock.stop() == {"raw_ms": pytest.approx(950.0), "ms": pytest.approx(350.0 / 1.5 + 600.0 / 1.5)}


def test_random_bd_check_uses_the_closest_state():
    a = [-0.6, 0.9, 0.55]
    closest = reference.corr(reference.weights(a))  # the input itself is not local
    spec = {"ops": [{"cls": "he", "kind": "he", "a": a}]}
    rec = {"error": None, "value": 0.01, "closest": closest.tolist()}
    v = checks.Verdict()
    checks.check_random_bd(v, spec, [rec], ROOT / ".bench_out" / "refcache")
    assert not v.correct


def test_closest_state_check_allows_only_weight_rounding():
    # a state on the tetrahedron's face (a weight at rounding level, here
    # 2.8e-17), where the reported re value was 1.2e-5 below the value
    # recomputed from the correlators
    a = [-0.6543165, -0.86907272, -0.52343845]
    closest = [-0.5772703392513092, -0.813784891175965, -0.3910552304272744]
    lo, hi = checks.closest_value_range("re", a, closest)
    exact = reference.distance("re", reference.weights(a), reference.weights(closest))
    assert lo <= 0.016877380009521548 <= exact <= hi
    # away from the faces the range is rounding-tight
    lo, hi = checks.closest_value_range("re", [-0.6, 0.9, 0.55], [-0.5, 0.7, 0.45])
    assert hi - lo < 1e-12


def test_reference_matches_known_values():
    # SLSQP values for the known false-convergence inputs
    assert reference.bd_ref("re", (-0.93466, -0.33381, -0.39911)) == pytest.approx(9.05e-4, rel=1e-3)
    assert reference.bd_ref("he", (-0.99139, 0.14711, 0.13851)) == pytest.approx(3.54e-5, rel=1e-3)
    # Werner closed forms: HS = sqrt(3)/2 (w - t), trace = 3/4 (w - t)
    t = 1 / np.sqrt(2)
    assert reference.werner_ref("hs", 0.9) == pytest.approx(np.sqrt(3) / 2 * (0.9 - t), rel=1e-12)
    assert reference.werner_ref("tr", 0.9) == pytest.approx(0.75 * (0.9 - t), rel=1e-12)
    assert reference.cglmp_omega(2) == pytest.approx(t, rel=1e-12)


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert list(workloads.WORKLOADS) == WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_latency_percentiles_are_per_class_over_operation_medians():
    spec = {"ops": [{"cls": "hs"}, {"cls": "hs"}, {"cls": "hs"}, {"cls": "cmd"}]}
    passes = [{"ops": [{"ms": ms} for ms in row]} for row in ([1.0, 2.0, 30.0, 5.0], [3.0, 2.0, 10.0, 20.0])]
    # operation medians: hs 2, 2, 20 and cmd 12.5
    p50, p90 = run.latency_stats(spec, passes)
    assert p50 == pytest.approx((2.0 * 12.5) ** 0.5)
    assert p90 == pytest.approx((np.percentile([2.0, 2.0, 20.0], 90) * 12.5) ** 0.5)


def test_reported_metrics_are_the_ones_benchmark_json_names(tmp_path):
    layers = tracing.layer_metrics(tracing.Tracer())
    results = {"passes": [
        {"traced": False, "seconds": 1.0, "raw_seconds": 1.1, "dir": "pass0", "ops": [{"ms": 1.0}]},
        {"traced": True, "seconds": 2.0, "raw_seconds": 2.2, "dir": "pass1", "ops": [{"ms": 1.5}], "layers": layers},
    ]}
    values, varied = run.per_layer(results, checks.Verdict(attempted=1), tmp_path)
    assert sorted(values) == sorted(PER_LAYER) and varied == []
    spec = {"ops": [{"cls": "hs"}]}
    assert sorted(run.end_to_end(spec, dict(results, peak_rss_mb=50.0), 0.1)) == sorted(END_TO_END)
