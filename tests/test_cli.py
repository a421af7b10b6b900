import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlgeo import cli, solver
from nlgeo.cli import _meta_lines, build_parser, main, write_table
from nlgeo.locality import bd_is_chsh_local
from nlgeo.measures import bd_measure, two_bell_mix_corr
from nlgeo.metrics import DistanceKind


def run(args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse failures
        return exc.code


def read_csv(path):
    meta = []
    with open(path, newline="") as fh:
        body = [line for line in fh if not (line.startswith("#") and meta.append(line) is None)]
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


def test_byte_identical_reruns(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bd-sweep", "--family", "two-bell-mix", "--n", "7", "--seed", "11"]
    assert run(args + ["--out", str(f1)]) == 0
    assert run(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_seed_is_recorded_and_changes_nothing_material(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["werner-sweep", "--n", "5", "--seed", "1", "--out", str(f1)]) == 0
    assert run(["werner-sweep", "--n", "5", "--seed", "2", "--out", str(f2)]) == 0
    meta1, header1, rows1 = read_csv(f1)
    meta2, header2, rows2 = read_csv(f2)
    assert header1 == header2
    assert any("seed: 1" in line for line in meta1)
    assert any("seed: 2" in line for line in meta2)


def test_werner_sweep_schema_and_values(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["werner-sweep", "--n", "9", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["w", "hs", "he", "bu", "tr", "re"]
    assert any(line.startswith("# tool: nlgeo") for line in meta)
    assert any("hellinger=squared" in line for line in meta)
    assert not any(line.startswith("# optimizer:") for line in meta)
    first, last = rows[0], rows[-1]
    assert float(first[0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert all(float(v) == 0.0 for v in first[1:])
    assert float(last[0]) == 1.0
    assert all(float(v) == pytest.approx(1.0, abs=1e-12) for v in last[1:])
    # normalized trace and HS columns agree along the whole line
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[4]), abs=1e-12)


def test_csv_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["bd-measure", "--a", "0.84,0.63,-0.5", "--kind", "hs", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    value = float(rows[0][header.index("value")])
    direct = bd_measure(DistanceKind.HS, np.array([0.84, 0.63, -0.5])).value
    assert value == direct  # 17 significant digits reproduce the double exactly


def test_json_mirrors_csv(tmp_path):
    fc, fj = tmp_path / "a.csv", tmp_path / "a.json"
    base = ["bd-measure", "--a", "0.84,0.63,-0.5", "--kind", "hs", "--kind", "tr"]
    assert run(base + ["--out", str(fc)]) == 0
    assert run(base + ["--format", "json", "--out", str(fj)]) == 0
    _, header, rows = read_csv(fc)
    doc = json.loads(fj.read_text())
    assert doc["columns"] == header
    assert set(doc["meta"]) == {"tool", "command", "conventions", "seed"}
    assert len(doc["records"]) == len(rows) == 2
    for rec, row in zip(doc["records"], rows):
        assert rec["kind"] == row[header.index("kind")]
        assert rec["value"] == float(row[header.index("value")])
        assert rec["converged"] is True


def test_bd_measure_report_fields(tmp_path):
    out = tmp_path / "m.json"
    assert run(["bd-measure", "--e", "0,0.65,0.35,0", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["kind"] for r in doc["records"]] == ["hs", "he", "bu", "tr", "re"]
    for rec in doc["records"]:
        assert rec["method"] in ("closed_form", "lagrange_case", "numeric")
        closest = [rec[f"closest_a{i}"] for i in (1, 2, 3)]
        pair = max(
            closest[0] ** 2 + closest[1] ** 2,
            closest[0] ** 2 + closest[2] ** 2,
            closest[1] ** 2 + closest[2] ** 2,
        )
        assert pair <= 1.0 + 1e-8


def test_hellinger_is_solved_once_for_bures(tmp_path, monkeypatch):
    calls = []
    minimize = solver.minimize_over_local_set

    def counting(*args):
        calls.append(args)
        return minimize(*args)

    monkeypatch.setattr(solver, "minimize_over_local_set", counting)
    out = tmp_path / "s.csv"
    assert run(["bd-sweep", "--n", "9", "--kind", "he", "--kind", "bu", "--out", str(out)]) == 0
    nonlocal_points = [p for p in np.linspace(0.5, 1.0, 9) if not bd_is_chsh_local(two_bell_mix_corr(p))]
    assert len(calls) == len(nonlocal_points) == 8
    _, header, rows = read_csv(out)
    assert header == ["param", "he", "bu"]
    assert all(r[1] == r[2] for r in rows) and rows[-1][1] != "0"

    calls.clear()
    assert run(["bd-measure", "--e", "0.85,0.1,0.05,0", "--kind", "bu", "--kind", "he", "--out", str(out)]) == 0
    assert len(calls) == 1
    _, _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["bu", "he"] and rows[0][1:] == rows[1][1:]


def test_trace_commands_make_no_barrier_solve(tmp_path, monkeypatch):
    # the trace measure is exact, so its commands must succeed without the solver
    def refuse(*args):
        raise AssertionError("the trace measure called the barrier solver")

    monkeypatch.setattr(solver, "minimize_over_local_set", refuse)
    out = tmp_path / "t.csv"
    for command in (["bd-grid", "--grid-n", "50"], ["bd-sweep"]):
        assert run(command + ["--kind", "tr", "--out", str(out)]) == 0, command
        _, _, rows = read_csv(out)
        assert max(float(r[-1]) for r in rows) == pytest.approx(1.0, abs=1e-12), command
    assert run(["bd-measure", "--a", "0.84,0.63,-0.5", "--kind", "tr", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    fields = dict(zip(header, rows[0]))
    assert float(fields["value"]) > 0.0
    assert (fields["method"], fields["surface"], fields["iterations"]) == ("lagrange_case", "disk_12", "0")


def test_bd_grid_rows_are_physical_and_ordered(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["bd-grid", "--kind", "hs", "--grid-n", "6", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["e1", "e2", "value"]
    assert len(rows) == 28  # nodes of the triangular grid at n = 6
    e1s = [float(r[0]) for r in rows]
    assert e1s == sorted(e1s)
    for r in rows:
        assert float(r[0]) + float(r[1]) <= 1.0 + 1e-12


def test_iso_output_and_metadata(tmp_path):
    out = tmp_path / "iso.json"
    assert run([
        "iso", "--d", "3", "--kind", "hs", "--kind", "tr",
        "--omega-min", "0.75", "--omega-max", "1.0", "--n", "4",
        "--format", "json", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["d"] == 3
    assert doc["meta"]["i_d_qm"] == pytest.approx(2.8729340511723365, abs=1e-12)
    assert doc["meta"]["omega_threshold"] == pytest.approx(0.6961524227066316, abs=1e-12)
    assert doc["columns"][0] == "omega"
    assert "value_hs" in doc["columns"] and "consistent_tr" in doc["columns"]
    for rec in doc["records"]:
        assert rec["consistent_hs"] is True
        assert rec["consistent_tr"] is False


def test_iso_json_is_strict_json_and_csv_keeps_inf(tmp_path):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    base = ["iso", "--d", "3", "--kind", "re", "--kind", "bu", "--n", "5"]
    out = tmp_path / "iso.json"
    assert run(base + ["--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=reject)
    last = doc["records"][-1]
    assert last["omega"] == 1.0 and last["formula_re"] is None
    assert last["formula_bu"] is None and math.isfinite(last["value_re"])
    assert run(base + ["--out", str(tmp_path / "iso.csv")]) == 0
    _, header, rows = read_csv(tmp_path / "iso.csv")
    assert rows[-1][header.index("formula_re")] == "-inf"


def oracle_write_table(out, columns, rows, meta_pairs, fmt):
    """The table writer before row templates: a record dict per row and json.dumps."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    if fmt == "json":
        payload = {
            "meta": dict(meta_pairs),
            "columns": list(columns),
            "records": [
                {c: (None if isinstance(v, float) and not math.isfinite(v) else v) for c, v in zip(columns, r)}
                for r in rows
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    for k, v in meta_pairs:
        out.write(f"# {k}: {cell(v)}\n")
    out.write(",".join(columns) + "\n")
    for r in rows:
        out.write(",".join(cell(v) for v in r) + "\n")


def written(writer, table, fmt):
    """The text a writer produces for (columns, rows, meta), or the type it raises."""
    out = io.StringIO()
    try:
        writer(out, *table, fmt)
    except TypeError as exc:  # the json module encodes no numpy integer
        return type(exc)
    return out.getvalue()


GRID_META = _meta_lines("bd-grid", build_parser().parse_args(["bd-grid", "--seed", "5"]), {"kind": "hs", "grid_n": 10})
ISO_META = _meta_lines(
    "iso", build_parser().parse_args(["iso", "--d", "3"]),
    {"d": 3, "i_d_qm": 2.8729340511723365, "omega_threshold": 0.6961524227066316},
)
WRITER_TABLES = {
    "floats": (
        ["x", "y", "z"],
        [[-0.0, 1e-300, 0.1 + 0.2], [math.nan, math.inf, -math.inf], [np.float64(0.7), np.float64(-math.inf), 1.0]],
        ISO_META,
    ),
    "numpy_int": (["i", "x"], [[np.int64(3), np.float64(2.5)]], GRID_META),
    "bool_none_int": (["ok", "none", "n"], [[True, None, 7], [False, None, -12]], GRID_META),
    "strings": (["kind", "100% detail"], [["re", 'say "hi" to \u03c9 and caf\u00e9'], ["hs", ""]], ISO_META),
    "empty": (["w", "hs"], [], GRID_META),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WRITER_TABLES))
def test_write_table_matches_record_dict_writer(name, fmt):
    table = WRITER_TABLES[name]
    assert written(write_table, table, fmt) == written(oracle_write_table, table, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["werner-sweep", "--n", "4"],
        ["bd-measure", "--a=0.84,0.63,-0.5", "--kind", "hs", "--kind", "tr"],
        ["iso", "--d", "3", "--n", "4", "--kind", "re", "--kind", "hs"],
    ],
)
def test_commands_write_what_the_record_dict_writer_wrote(argv, fmt, tmp_path, monkeypatch):
    new, old = tmp_path / "new", tmp_path / "old"
    assert run(argv + ["--format", fmt, "--out", str(new)]) == 0
    monkeypatch.setattr(cli, "write_table", oracle_write_table)
    assert run(argv + ["--format", fmt, "--out", str(old)]) == 0
    assert new.read_bytes() == old.read_bytes()


def test_repeated_kind_is_one_column(tmp_path):
    base = ["werner-sweep", "--n", "3", "--kind", "tr", "--kind", "hs", "--kind", "tr"]
    assert run(base + ["--out", str(tmp_path / "w.csv")]) == 0
    assert run(base + ["--format", "json", "--out", str(tmp_path / "w.json")]) == 0
    _, header, rows = read_csv(tmp_path / "w.csv")
    doc = json.loads((tmp_path / "w.json").read_text())
    assert header == doc["columns"] == ["w", "tr", "hs"]
    assert [list(rec) for rec in doc["records"]] == [header] * 3
    assert [[float(v) for v in row] for row in rows] == [list(rec.values()) for rec in doc["records"]]


def test_stdout_output(capsys):
    assert run(["bd-measure", "--a", "0.84,0.63,-0.5", "--kind", "hs"]) == 0
    captured = capsys.readouterr().out
    assert "kind,value" in captured
    assert "lagrange_case" in captured


def test_exit_codes(tmp_path, monkeypatch):
    out = str(tmp_path / "x.csv")
    assert run(["werner-sweep", "--w-min", "0.8", "--w-max", "0.75", "--out", out]) == 2
    assert run(["bd-measure", "--a", "0.9,-0.9", "--out", out]) == 2
    assert run(["bd-measure", "--out", out]) == 2
    assert run(["bd-measure", "--a", "0.1,0.1,0.1", "--e", "0,0.5,0.5,0", "--out", out]) == 2
    assert run(["bd-grid", "--kind", "hs", "--kind", "tr", "--out", out]) == 2
    # a repeated --kind is one column elsewhere, but bd-grid takes the option once
    assert run(["bd-grid", "--kind", "hs", "--kind", "hs", "--out", out]) == 2
    assert run(["iso", "--d", "1", "--omega", "0.8", "--out", out]) == 2
    # the sweep default omega-min also depends on d, so this path must not crash
    assert run(["iso", "--d", "1", "--out", out]) == 2
    assert run(["iso", "--d", "2", "--omega", "1.5", "--out", out]) == 2
    # validate checks every kind, so a --kind there is an argument error
    assert run(["validate", "--kind", "hs", "--out", out]) == 2
    assert run(["bd-measure", "--a", "0.9,-0.9,0.2", "--out", out]) == 3
    assert run(["bd-measure", "--e", "0.5,0.6,0,-0.1", "--out", out]) == 3
    assert run(["bd-measure", "--a=nan,0,0", "--out", out]) == 3
    assert run(["bd-measure", "--e=nan,0,0,1", "--out", out]) == 3
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    assert run(["bd-measure", "--a=-0.88,-0.88,-0.88", "--out", out]) == 5


def test_unopenable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(["werner-sweep", "--n", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nlgeo: ") and str(out) in err[0]


def test_validate_perturbed_reports_nonconvergence(tmp_path, monkeypatch):
    out = tmp_path / "v.csv"
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    code = run(["validate", "--out", str(out)])
    assert code == 5
    text = out.read_text()
    assert "NotConverged" in text
    assert "FAIL" in text


@pytest.mark.parametrize(
    "args",
    [
        ["bd-sweep", "--n", "1"],
        ["bd-grid", "--grid-n", "0"],
        ["iso", "--d", "1"],
        ["werner-sweep", "--n", "0"],
        ["iso", "--d", "3", "--n", "0"],
    ],
)
def test_flag_range_errors_exit_2(args, tmp_path, capsys):
    assert run(args + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be at least" in err


def test_former_all_infinite_starts_input_exits_0(tmp_path, capsys):
    # every start of the former multi-start solver scored inf here and the
    # command exited 5; the one barrier solve converges
    out = tmp_path / "x.csv"
    code = run([
        "bd-measure", "--a=0.9990814418247234,-0.06587608316916732,0.06497482141988592",
        "--kind", "re", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_csv(out)
    assert rows[0][header.index("converged")] == "true"
    assert math.isfinite(float(rows[0][header.index("value")]))


def test_facet_input_with_a_vanishing_weight_exits_0(tmp_path, capsys):
    # a warm-started stage without the fraction-to-boundary floor drove the
    # zero weight's slack to 2e-15 here, and the Cholesky factor of the
    # barrier Hessian failed
    out = tmp_path / "x.csv"
    assert run(["bd-measure", "--e=0.02,0.68,0.3,0", "--kind", "he", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_csv(out)
    assert rows[0][header.index("converged")] == "true"


@pytest.mark.parametrize("command", [["bd-grid", "--grid-n", "11"], ["bd-sweep", "--n", "5"]])
def test_unconverged_grid_and_sweep_exit_5(command, tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    code = run(command + ["--kind", "re", "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("nlgeo: re solve at ")
    assert "did not converge" in err[0]


def subparsers():
    """build_parser()'s subcommands, by name."""
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# one cheap command line per subcommand
SMALL_RUNS = {
    "werner-sweep": ["--n", "2"],
    "bd-sweep": ["--n", "2", "--kind", "tr"],
    "bd-grid": ["--grid-n", "1", "--kind", "re"],
    "bd-measure": ["--a=0.84,0.63,-0.5", "--kind", "he"],
    "iso": ["--n", "2"],
    "validate": [],
}


def test_no_command_takes_a_solver_budget(tmp_path):
    assert set(SMALL_RUNS) == set(subparsers())
    out = tmp_path / "x"
    assert run(["bd-measure", "--a=0.84,0.63,-0.5", "--seeds", "2", "--out", str(out)]) == 2
    for command, argv in SMALL_RUNS.items():
        assert run([command, *argv, "--max-iters", "50", "--out", str(out)]) == 2, command
        assert run([command, *argv, "--out", str(out)]) == 0, command
        meta, _, _ = read_csv(out)
        assert not any(line.startswith("# optimizer:") for line in meta), command
        assert run([command, *argv, "--format", "json", "--out", str(out)]) == 0, command
        assert "optimizer" not in json.loads(out.read_text())["meta"], command


def test_family_choices(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run(["bd-sweep", "--family", "two_bell_mix", "--out", out]) == 2
    assert run(["bd-sweep", "--family", "werner-line", "--n", "3", "--kind", "tr", "--out", out]) == 0
    meta, _, _ = read_csv(out)
    assert "# family: werner_line\n" in meta
    assert run(["bd-sweep", "--n", "3", "--kind", "hs", "--out", out]) == 0
    meta, _, _ = read_csv(out)
    assert "# family: two_bell_mix\n" in meta


def test_closed_pipe_exits_0_quietly():
    # the output (about 2 MB) outgrows the pipe, so the writer sees the reader go
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from nlgeo.cli import entry; entry()", "werner-sweep", "--n", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"# tool: nlgeo 0.1.0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def readme_commands():
    """Every nlgeo command line in the README's sh blocks, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("nlgeo ")]


def test_readme_cli_flags_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert {"--kind", "--out", "--format", "--seed", "--family", "--grid-n"} <= flags
    accepted = {f for p in subparsers().values() for f in p._option_string_actions}
    assert flags <= accepted, flags - accepted


def test_readme_cli_examples_run(tmp_path):
    commands = readme_commands()
    assert commands
    for i, argv in enumerate(commands):
        if "--out" in argv:
            at = argv.index("--out") + 1
            out = tmp_path / Path(argv[at]).name
            argv = argv[:at] + [str(out)] + argv[at + 1:]
        else:
            out = tmp_path / f"example-{i}"
            argv = argv + ["--out", str(out)]
        assert run(argv) == 0, argv
        assert out.stat().st_size > 0, argv
