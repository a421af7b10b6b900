import argparse
import csv
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlgeo import cli, locality, measures, solver, validation
from nlgeo.cli import BLOCK_ROWS, KIND_CODES, build_parser, main, write_table
from nlgeo.locality import bd_is_chsh_local
from nlgeo.measures import bd_measure, two_bell_mix_corr
from nlgeo.kinds import DistanceKind
from nlgeo.qstate import bd_probs_to_corr


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


@pytest.mark.parametrize(
    "command, name, prefix",
    [(["werner-sweep"], "isotropic_values", ""), (["iso", "--d", "3"], "isotropic_values", "value_")],
)
def test_hellinger_closed_form_is_evaluated_once_for_bures(command, name, prefix, tmp_path, monkeypatch):
    # both commands import the array closed forms when they run, so a
    # wrapper on nlgeo.arrays sees every call: one per kind, Bures and
    # Hellinger sharing one
    from nlgeo import arrays

    calls = []
    real = getattr(arrays, name)

    def counting(kind, *args):
        calls.append(kind)
        return real(kind, *args)

    monkeypatch.setattr(arrays, name, counting)
    out = tmp_path / "x.csv"
    assert run(command + ["--n", "7", "--out", str(out)] + [f"--kind={code}" for code in KIND_CODES]) == 0
    assert sorted(k.value for k in calls) == sorted(set(KIND_CODES) - {"bu"})
    _, header, rows = read_csv(out)
    columns = dict(zip(header, zip(*rows)))
    assert columns[prefix + "bu"] == columns[prefix + "he"] and columns[prefix + "he"][-1] != "0"


def test_trace_commands_make_no_barrier_solve(tmp_path, monkeypatch):
    # the trace measure is exact, so its commands must succeed without the solver
    def refuse(*args):
        raise AssertionError("the trace measure called the solver")

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
    """The table writer before row templates: a record dict per row and json.dumps.

    It formats each cell by its own type, where write_table types each column
    by its first cell.
    """

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


def rows_of(columns):
    """The rows of write_table's columns: an array's cells by tolist, a None column's as None."""
    n = next((len(c) for c in columns if c is not None), 0)
    return list(zip(*([None] * n if c is None else c.tolist() if hasattr(c, "tolist") else c for c in columns)))


def oracle_write_columns(out, names, columns, meta_pairs, fmt):
    """oracle_write_table on the rows of the columns write_table takes."""
    oracle_write_table(out, names, rows_of(columns), meta_pairs, fmt)


def written(writer, table, fmt):
    """The text a writer of columns produces for (names, rows, meta), or the type it raises."""
    names, rows, meta_pairs = table
    columns = [list(column) for column in zip(*rows)] if rows else [[] for _ in names]
    out = io.StringIO()
    try:
        writer(out, names, columns, meta_pairs, fmt)
    except TypeError as exc:  # the json module encodes no numpy integer
        return type(exc)
    return out.getvalue()


CONVENTIONS = "hellinger=squared bures=squared log_base=2 boundary=local"
GRID_META = [
    ("tool", "nlgeo 0.1.0"), ("command", "bd-grid"), ("conventions", CONVENTIONS), ("seed", 5),
    ("kind", "hs"), ("grid_n", 10),
]
ISO_META = [
    ("tool", "nlgeo 0.1.0"), ("command", "iso"), ("conventions", CONVENTIONS), ("seed", 0),
    ("d", 3), ("i_d_qm", 2.8729340511723365), ("omega_threshold", 0.6961524227066316),
]
WRITER_TABLES = {
    "floats": (
        ["x", "y", "z"],
        [
            [-0.0, 1e-300, 0.1 + 0.2],
            [math.nan, math.inf, -math.inf],
            [np.float64(0.7), np.float64(-math.inf), 1.0],
            [np.float64(1 / 3), np.float64(1e16), 0.5],
        ],
        ISO_META,
    ),
    "numpy_int": (["i", "x"], [[np.int64(3), np.float64(2.5)]], GRID_META),
    "bool_none_int": (["ok", "none", "n"], [[True, None, 7], [False, None, -12]], GRID_META),
    # a float column, typed by its first cell, holding a bool, None and an int
    "float_column_others": (["x", "y"], [[0.5, 1.0], [True, 2.0], [None, 3.0], [7, 0.25]], ISO_META),
    "strings": (["kind", "100% detail"], [["re", 'say "hi" to \u03c9 and caf\u00e9'], ["hs", ""]], ISO_META),
    "empty": (["w", "hs"], [], GRID_META),
    "mixed": (
        ["kind", "value", "ok"],
        [["hs", 0.5, True], ["re", -math.inf, None], ["bu", np.float64(0.25), False], ["tr", math.nan, True]],
        GRID_META,
    ),
    # three blocks, the last of one row; nan, -inf and an np.float64 only in
    # the second, so a block takes the per-cell path on its own
    "blocks": (
        ["x", "ok", "y"],
        [
            [
                {BLOCK_ROWS + 5: math.nan, 2 * BLOCK_ROWS - 1: np.float64(i / 7)}.get(i, i / 7),
                None if i % 3 == 0 else i % 2 == 0,
                -math.inf if i == BLOCK_ROWS + 100 else 1 / (i + 1),
            ]
            for i in range(2 * BLOCK_ROWS + 1)
        ],
        GRID_META,
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WRITER_TABLES))
def test_write_table_matches_record_dict_writer(name, fmt):
    table = WRITER_TABLES[name]
    expected = written(oracle_write_columns, table, fmt)
    # a float column is written as the record-dict writer wrote it, even
    # where numpy's print options change the str of np.float64
    with np.printoptions(legacy="1.13"):
        assert written(write_table, table, fmt) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_column_of_the_wrong_length_raises_type_error(fmt):
    # checked before the header, so nothing is written
    for names, columns, cells in [
        (["x", "y"], [[0.5, 1.0], [0.5]], 2),
        (["x", "y"], [None, [0.5], (1.0, 2.0)], 1),
        (["x", "y"], [np.zeros(3), np.zeros(2)], 3),
        (["x", "y", "z"], [[0.5], [1.0]], 1),
    ]:
        out = io.StringIO()
        with pytest.raises(TypeError, match=f"of {cells} cells each"):
            write_table(out, names, columns, GRID_META, fmt)
        assert out.getvalue() == ""


ALL_KINDS = [flag for k in KIND_CODES for flag in ("--kind", k)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_array_columns_are_written_as_their_rows(n, fmt):
    # float arrays (one float32) take the template without a type scan; in
    # JSON, x's nan (last row) and y's -inf (middle row) send the blocks of
    # those columns that hold them cell by cell
    rng = np.random.default_rng(n)
    x, y = rng.random(n), np.linspace(-1.0, 1.0, n)
    x[-1], y[n // 2] = math.nan, -math.inf
    columns = [x, np.arange(n) % 3 == 0, y, np.arange(n), None, rng.random(n).astype(np.float32), list(x)]
    names = ["x", "ok", "y", "i", "none", "x32", "x_list"]
    expected = io.StringIO()
    oracle_write_columns(expected, names, columns, ISO_META, fmt)
    out = io.StringIO()
    write_table(out, names, columns, ISO_META, fmt)
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_none_column_gives_empty_cells_across_three_blocks(fmt):
    n = 2 * BLOCK_ROWS + 1
    out = io.StringIO()
    write_table(out, ["a", "x", "b"], [None, np.linspace(0.0, 1.0, n), None], GRID_META, fmt)
    if fmt == "json":
        records = json.loads(out.getvalue())["records"]
        assert len(records) == n and all(r["a"] is None and r["b"] is None for r in records)
    else:
        rows = list(csv.reader(line for line in io.StringIO(out.getvalue()) if not line.startswith("#")))
        assert rows[0] == ["a", "x", "b"] and len(rows) == n + 1
        assert all(len(row) == 3 and row[0] == row[2] == "" for row in rows[1:])


class NullOut:
    """An output that keeps nothing written to it."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_columns_holds_about_one_block(fmt):
    # a count that does not depend on the machine: the traced peak of Python
    # allocations. Writing reads about 55 B a cell of one block in CSV and
    # 85 B in JSON: the Python values, their slots in the cell list and its
    # tuple, and the block's text. The bound is two blocks of seven columns
    # at 100 B a cell; one block of all 100,000 rows reads 38 and 58 MB
    n, rng = 100_000, np.random.default_rng(7)
    columns = [*(rng.random(n) for _ in range(5)), rng.random(n) < 0.5, None]
    tracemalloc.start()
    try:
        write_table(NullOut(), list("abcdefg"), columns, GRID_META, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 7 * 100 * BLOCK_ROWS, peak


# commands with float columns, with every kind of cell they write: Bures'
# all-None formula and flag columns, re's -inf formula (null in JSON) and a
# Werner parameter just past 1
TYPED_COMMANDS = [
    ["bd-sweep", "--n", "5"],
    ["bd-grid", "--grid-n", "4", "--kind", "hs"],
    ["iso", "--d", "2", "--omega", "1.0", *ALL_KINDS],
    ["werner-sweep", "--w-max", "1.0000000000005", "--kind", "he", "--n", "3"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["werner-sweep", "--n", "4"],
        ["werner-sweep", "--n", "5000"],
        ["bd-measure", "--a=0.84,0.63,-0.5", "--kind", "hs", "--kind", "tr"],
        ["iso", "--d", "3", "--n", "4", "--kind", "re", "--kind", "hs"],
        *TYPED_COMMANDS,
        # Bures' None columns span three blocks
        ["iso", "--d", "3", "--n", "5000", *ALL_KINDS],
        # re's -inf formula, at omega = 1, is in the last block only, so only
        # that JSON block takes the per-cell path
        ["iso", "--d", "2", "--n", "4097", "--omega-max", "1.0", *ALL_KINDS],
    ],
)
def test_commands_write_what_the_record_dict_writer_wrote(argv, fmt, tmp_path, monkeypatch):
    new, old = tmp_path / "new", tmp_path / "old"
    assert run(argv + ["--format", fmt, "--out", str(new)]) == 0
    monkeypatch.setattr(cli, "write_table", oracle_write_columns)
    assert run(argv + ["--format", fmt, "--out", str(old)]) == 0
    assert new.read_bytes() == old.read_bytes()


def _without_seconds(text: str) -> str:
    """validate's output without its seconds cells, which differ run to run."""
    if text.startswith("{"):
        return re.sub(r'"seconds": [^,\n]*', '"seconds"', text)
    return re.sub(r"^((?:[^,\n]*,){4})[^,\n]*", r"\1", text, flags=re.M)


# every command, with float columns of each kind; iso stays below omega = 1,
# where re's quoted formula is -inf and, in JSON, its block takes the
# per-cell path on purpose
FLOAT_COLUMN_COMMANDS = [
    ["werner-sweep", "--n", "50"],
    ["werner-sweep", "--w-max", "1.0000000000005", "--kind", "he", "--n", "3"],
    ["bd-sweep", "--n", "5"],
    ["bd-grid", "--grid-n", "4", "--kind", "hs"],
    ["bd-measure", "--a=0.84,0.63,-0.5"],
    ["iso", "--d", "3", "--n", "6", "--omega-max", "0.99", *ALL_KINDS],
    ["validate"],
]


class CountingOut:
    """An output that appends each text written to it to writes."""

    def __init__(self, out, writes):
        self.out, self.writes = out, writes

    def write(self, text):
        self.writes.append(text)
        return self.out.write(text)


def test_float_cells_make_no_per_cell_call(tmp_path, monkeypatch):
    # write_table types every column by its first cell, so once the header
    # is written no float cell may reach the per-cell formatters; the
    # CSV metadata lines, written first, still use _fmt (iso's hold floats)
    writes = []
    real_write_table, fmt_cell, json_cell = cli.write_table, cli._fmt, cli._json_cell

    def guard(formatter):
        def refuse_float(v):
            if writes and isinstance(v, float):
                raise AssertionError(f"cell {v!r} took the per-cell path")
            return formatter(v)

        return refuse_float

    for argv in FLOAT_COLUMN_COMMANDS:
        for fmt in ("csv", "json"):
            plain, guarded = tmp_path / "plain", tmp_path / "guarded"
            assert run(argv + ["--format", fmt, "--out", str(plain)]) == 0
            writes.clear()
            with monkeypatch.context() as m:
                m.setattr(cli, "write_table", lambda out, *args: real_write_table(CountingOut(out, writes), *args))
                m.setattr(cli, "_fmt", guard(fmt_cell))
                m.setattr(cli, "_json_cell", guard(json_cell))
                assert run(argv + ["--format", fmt, "--out", str(guarded)]) == 0, (argv, fmt)
            # the header, then the rows
            assert len(writes) >= 2, (argv, fmt)
            texts = [path.read_text() for path in (plain, guarded)]
            if argv[0] == "validate":
                texts = [_without_seconds(text) for text in texts]
            assert texts[0] == texts[1], (argv, fmt)


def count_writes(argv, tmp_path, monkeypatch):
    writes = []
    real_write_table = cli.write_table
    monkeypatch.setattr(cli, "write_table", lambda out, *args: real_write_table(CountingOut(out, writes), *args))
    assert run(argv + ["--out", str(tmp_path / "w")]) == 0
    return len(writes)


# a count that does not depend on the machine: two writes besides the rows
# (CSV's metadata and column lines; JSON's head and close), then one per
# block of BLOCK_ROWS rows
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_werner_sweep_writes_one_block_per_call(fmt, tmp_path, monkeypatch):
    argv = ["werner-sweep", "--n", "5000", "--format", fmt]
    assert count_writes(argv, tmp_path, monkeypatch) == 2 + math.ceil(5000 / BLOCK_ROWS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_iso_writes_one_block_per_call(fmt, tmp_path, monkeypatch):
    argv = ["iso", "--d", "3", "--n", "5000", *ALL_KINDS, "--format", fmt]
    assert count_writes(argv, tmp_path, monkeypatch) == 2 + math.ceil(5000 / BLOCK_ROWS)


@pytest.mark.slow
@pytest.mark.parametrize("argv", [["werner-sweep"], ["iso", "--d", "3", *ALL_KINDS]])
def test_array_command_memory_grows_less_than_250_bytes_a_row(argv, tmp_path):
    # a count that does not depend on the machine: the traced peak of Python
    # allocations. Converting every row at once costs 312 B a row
    # (werner-sweep) and about 420 B (iso, all kinds); a block at a time
    # leaves about 140 and 160 B, mostly the closed forms' own temporaries
    out = str(tmp_path / "t.csv")
    assert run(argv + ["--n", "3", "--out", out]) == 0  # imports and caches first
    peaks = []
    for n in (20_000, 100_000):
        tracemalloc.start()
        try:
            assert run(argv + ["--n", str(n), "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 80_000 < 250, peaks


@pytest.mark.parametrize(
    "argv",
    [["werner-sweep", "--n", "4"], ["bd-measure", "--a=0.84,0.63,-0.5"], ["validate"], *TYPED_COMMANDS],
)
def test_json_floats_are_the_csv_floats(argv, tmp_path):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    assert run(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    assert run(argv + ["--format", "json", "--out", str(tmp_path / "t.json")]) == 0
    _, header, rows = read_csv(tmp_path / "t.csv")
    # an np.float64 repr in a float slot would not parse
    doc = json.loads((tmp_path / "t.json").read_text(), parse_constant=reject)
    assert doc["columns"] == header and len(doc["records"]) == len(rows)
    floats = 0
    for rec, row in zip(doc["records"], rows):
        for column, text in zip(header, row):
            value = rec[column]
            if text in ("inf", "-inf", "nan") or value is None:
                assert value is None and text in ("inf", "-inf", "nan", ""), (column, text)
            elif isinstance(value, float) and column != "seconds":
                assert value.hex() == float(text).hex(), (column, text)
                floats += 1
    assert floats > 0


def test_repeated_kind_is_one_column(tmp_path):
    base = ["werner-sweep", "--n", "3", "--kind", "tr", "--kind", "hs", "--kind", "tr"]
    assert run(base + ["--out", str(tmp_path / "w.csv")]) == 0
    assert run(base + ["--format", "json", "--out", str(tmp_path / "w.json")]) == 0
    _, header, rows = read_csv(tmp_path / "w.csv")
    doc = json.loads((tmp_path / "w.json").read_text())
    assert header == doc["columns"] == ["w", "tr", "hs"]
    assert [list(rec) for rec in doc["records"]] == [header] * 3
    assert [[float(v) for v in row] for row in rows] == [list(rec.values()) for rec in doc["records"]]


def test_werner_sweep_ranges_as_iso_does_at_d2(tmp_path, capsys):
    out = str(tmp_path / "w.csv")
    assert run(["werner-sweep", "--w-min", "0.5", "--n", "11", "--out", out]) == 0
    _, _, rows = read_csv(out)
    local = [r for r in rows if float(r[0]) <= measures.WERNER_THRESHOLD]
    assert len(local) == 5 and all(float(v) == 0.0 for r in local for v in r[1:])
    assert all(float(v) > 0.0 for r in rows[len(local):] for v in r[1:])
    assert run(["werner-sweep", "--w-min", repr(-1.0 / 3.0), "--n", "3", "--out", out]) == 0
    # the default w-min of earlier versions, one ulp below 1/sqrt 2, typed out
    assert run(["werner-sweep", "--w-min", "0.7071067811865475", "--n", "3", "--out", out]) == 0
    capsys.readouterr()
    assert run(["werner-sweep", "--w-min", "-0.4", "--out", out]) == 2
    assert capsys.readouterr().err == "nlgeo: need -1/3 <= w-min < w-max <= 1, got [-0.4, 1.0]\n"


def test_iso_admits_the_rounding_slack_of_werner_sweep(tmp_path, capsys):
    # IsotropicParam, WernerParam and werner-sweep admit up to 1 + 1e-12
    out = str(tmp_path / "i.csv")
    assert run(["werner-sweep", "--w-max", "1.0000000000005", "--n", "3", "--out", out]) == 0
    assert run(["iso", "--d", "2", "--omega", "1.0000000000005", "--out", out]) == 0
    assert run(["iso", "--d", "2", "--omega-max", "1.0000000000005", "--n", "3", "--out", out]) == 0
    capsys.readouterr()
    assert run(["iso", "--d", "2", "--omega", "1.5", "--out", out]) == 2
    assert run(["iso", "--d", "2", "--omega-max", "1.5", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "nlgeo: omega 1.5 outside [-0.333333, 1]\n"
        "nlgeo: need -0.333333 <= omega-min < omega-max <= 1, got [0.7071067811865476, 1.5]\n"
    )


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
    assert run(["bd-measure", "--e=0.6,0.6,0,0", "--out", out]) == 3
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    assert run(["bd-measure", "--a=-0.88,-0.88,-0.88", "--out", out]) == 5


def test_weights_outside_the_tetrahedron_exit_3_with_the_library_message(tmp_path, capsys):
    # the weights pass the probability checks; their correlators do not
    weights = (0.5000000004, 0.5000000004, 0.0, 0.0)
    a = bd_probs_to_corr(weights)
    assert run(["bd-measure", "--e", ",".join(map(str, weights)), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == f"nlgeo: correlators {list(a)} lie outside the physical tetrahedron\n"


def test_unopenable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run(["werner-sweep", "--n", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nlgeo: ") and str(out) in err[0]


def test_iso_empty_omega_range_exits_2_naming_it(tmp_path, capsys):
    assert run(["iso", "--d", "3", "--omega-min", "0.9", "--omega-max", "0.8", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "nlgeo: need -0.125 <= omega-min < omega-max <= 1, got [0.9, 0.8]\n"


def test_validate_failing_check_without_nonconvergence_exits_4(tmp_path, monkeypatch):
    # the Werner rows read up to 4.4e-16, far above this tolerance, while
    # every solve converges: the rows fail with no NotConverged detail
    monkeypatch.setattr(validation, "ORACLE_TOL", 1e-20)
    out = tmp_path / "v.csv"
    assert run(["validate", "--out", str(out)]) == 4
    _, header, rows = read_csv(out)
    status, detail = header.index("status"), header.index("detail")
    for row in rows:
        failed = row[0].startswith("oracle_werner_")
        assert row[status] == ("FAIL" if failed else "pass"), row
        assert row[detail] == "", row


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


@pytest.mark.parametrize(
    "args",
    [["bd-sweep", "--n", "x"], ["bd-grid", "--grid-n", "2.5"], ["iso", "--d", "2.5"], ["iso", "--d", "3.0"]],
)
def test_non_integer_flags_exit_2_as_invalid_ints(args, tmp_path, capsys):
    assert run(args + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"invalid int value: '{args[-1]}'" in err


def test_iso_dimension_is_bounded(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "x.csv")

    def refuse(d):
        raise AssertionError(f"the threshold's sum ran at d = {d}")

    # an unbounded --d would spend minutes in the sum, so it must not start
    monkeypatch.setattr(cli, "cglmp_threshold", refuse)
    start = time.perf_counter()
    assert run(["iso", "--d", "1000000000", "--n", "2", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    err = capsys.readouterr().err.splitlines()
    assert "Traceback" not in "\n".join(err)
    assert err[-1].endswith("argument --d: must be at most 100000, got 1000000000")
    assert run(["iso", "--d", "100001", "--n", "2", "--out", out]) == 2
    assert run(["iso", "--d", "100000", "--n", "2", "--kind", "hs", "--out", out]) == 0
    meta, _, rows = read_csv(out)
    assert "# d: 100000\n" in meta and len(rows) == 2


def test_iso_runs_the_cglmp_sum_once_per_dimension(tmp_path, monkeypatch):
    # the metadata, every kind's value and every reference formula need the
    # threshold at one d; its sum of floor(d/2) pairs of q_k runs once, on
    # the d checked once
    calls = []

    def counting(d, k, real=locality._qk):
        calls.append(k)
        return real(d, k)

    locality._cglmp_threshold.cache_clear()
    monkeypatch.setattr(locality, "_qk", counting)
    argv = ["iso", "--d", "9", "--n", "3", "--out", str(tmp_path / "x.csv")]
    assert run(argv + [f"--kind={code}" for code in KIND_CODES]) == 0
    assert len(calls) == 8


def test_reused_parser_keeps_no_state_between_commands(tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser(real=cli.build_parser):
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()

    def output(name, argv):
        path = tmp_path / name
        assert run(argv + ["--out", str(path)]) == 0, argv
        return path.read_bytes()

    def help_text():
        assert run(["--help"]) == 0
        return capsys.readouterr().out

    measure = ["bd-measure", "--a", "0.84,0.63,-0.5"]
    output("two.csv", measure + ["--kind", "he", "--kind", "re"])
    five = output("five.csv", measure)
    assert [r[0] for r in read_csv(tmp_path / "two.csv")[2]] == ["he", "re"]
    assert [r[0] for r in read_csv(tmp_path / "five.csv")[2]] == KIND_CODES
    iso = ["iso", "--d", "3", "--n", "5"]
    first = output("iso1.csv", iso)
    assert run(["bd-grid", "--kind", "hs", "--kind", "he"]) == 2
    assert run(["iso", "--d", "1"]) == 2
    narrowed = output("iso2.csv", iso + ["--omega-min", "0.7"])
    assert narrowed != first
    assert output("iso3.csv", iso) == first
    assert output("five2.csv", measure) == five
    assert help_text() == help_text() != ""
    assert len(built) == 1


def test_former_all_infinite_starts_input_exits_0(tmp_path, capsys):
    # every start of the former multi-start solver scored inf here and the
    # command exited 5; the exact solve converges
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


def test_failing_certificate_exits_5(tmp_path, capsys, monkeypatch):
    # a kernel whose minimum over L is the maximally mixed state, inside L:
    # the solve meets its stop test on the cylinder (1, 2), but the gradient
    # there points out of L, so that cylinder's KKT multiplier is negative.
    # The certificate fails, and the command exits 5 after writing its rows
    def inside(*w):
        return (sum((wk - 0.25) ** 2 for wk in w), *(2.0 * (wk - 0.25) for wk in w), 2.0, 2.0, 2.0, 2.0)

    monkeypatch.setitem(measures.KERNELS, DistanceKind.HELLINGER, lambda e: (inside, True))
    out = tmp_path / "x.csv"
    assert run(["bd-measure", "--a=0.84,0.63,-0.5", "--kind", "he", "--out", str(out)]) == 5
    assert capsys.readouterr().err == "nlgeo: numeric minimization did not converge\n"
    _, header, rows = read_csv(out)
    assert rows[0][header.index("converged")] == "false"


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


def test_readme_library_section_runs_and_its_names_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    # every dotted nlgeo name the README puts in backticks, as in
    # `nlgeo.qstate.physical_probs` or `nlgeo.cli.main(argv)`
    spans = re.findall(r"`([^`\n]*)`", readme)
    names = {name for span in spans for name in re.findall(r"(?<![\w.])nlgeo(?:\.\w+)+", span)}
    assert {"nlgeo.qstate.physical_probs", "nlgeo.solver.SolveReport"} <= names
    for name in sorted(names):
        pkgutil.resolve_name(name)


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
