"""Command line interface.

Exit codes: 0 success, 2 argument error or an output path that cannot be
opened, 3 non-physical input, 4 validation failure, 5 optimizer
non-convergence. A reader that closes the output pipe early
(``nlgeo werner-sweep | head -2``) has chosen to stop, so that exits 0
without a traceback. Output is CSV (default) or JSON with the same records
(JSON writes a non-finite float, which it cannot represent, as null). nlgeo
writes both formats itself from a table's columns, a block of BLOCK_ROWS rows
per % call and per write; the JSON follows the json module's indent=2
layout. A block of a float column goes straight into the block's template;
only the other cells are formatted one by one. Metadata lines carry the tool
version, the value conventions and the seed, so a fixed command line
reproduces byte-identical files.

Only werner-sweep and iso, which evaluate closed forms over whole arrays,
import numpy (nlgeo.arrays), and only when they run. They hand the writer
their arrays, which it converts a block at a time, so a table's Python
values never all exist at once.

main() builds one parser per process, on its first call, and parses every
later argv with it. build_parser() returns a fresh parser, so a caller that
adds options gets its own. The parser binds the cmd_* functions when it is
built (see main).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .errors import NlgeoError, NotConverged
from .kinds import DistanceKind
from .locality import cglmp_threshold
from .measures import (
    bd_grid,
    bd_measure,
    bd_sweep,
    per_kind,
    werner_max,
    WERNER_THRESHOLD,
)
from .qstate import BellDiagonal
from .validation import run_validation

KIND_CODES = [k.value for k in DistanceKind]

CONVENTIONS = "hellinger=squared bures=squared log_base=2 boundary=local"

# iso's largest --d: cglmp_threshold's sum grows like d (about 0.1 s at this
# bound) and runs once per d per process, however many kinds iso measures
ISO_MAX_D = 100_000

# rows per array conversion, % call and write in write_table. Blocks of 16
# to 512 rows raised peak RSS by 1.4-3 MB over repeated large JSON tables
# (their texts fragment the heap), 2048 by none; with arrays converted per
# block, 512 or 1024 would save under 0.5 MB
BLOCK_ROWS = 2048


def _fmt(v) -> str:
    """One CSV cell. Floats, nearly every cell, are tested first."""
    if isinstance(v, float):
        return "%.17g" % v
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _json_cell(v) -> str:
    """One JSON value, as the json module writes it.

    json writes every float, np.float64 included, as float.__repr__. JSON has
    no inf or nan (RFC 8259), so a non-finite float is written as null; the
    CSV writer keeps it as inf, -inf or nan.
    """
    if isinstance(v, float):
        return float.__repr__(v) if math.isfinite(v) else "null"
    return json.dumps(v)


def write_table(out, names, columns, meta_pairs, fmt: str) -> None:
    """Write the header once, then the rows a block of BLOCK_ROWS at a time.

    CSV: `# key: value` metadata lines, the column line, one line per row.
    JSON: {"meta", "columns", "records"} in the json module's indent=2
    layout, so no record dict is built. The names must be unique, as JSON
    object keys are. columns holds one column per name, a list, a tuple or a
    1-D array, all of one length, or None for empty cells (null in JSON);
    other lengths raise TypeError.

    Each block is one flat cell list, filled a column at a time by slice
    assignment (an array's cells through tolist, so no row tuple is made),
    and written by one % call, on the row template repeated once per row of
    the block, and one write. A column whose first cell is a float
    (np.float64 included; a bool is not) is a float column. Its block goes
    into the template as it is if every cell is a Python float, as a float
    array's are by construction, and, in JSON, their sum is finite: as %.17g
    in CSV and as str, which is float.__repr__, in JSON, so a float cell
    costs no Python call. Every other block is written cell by cell by _fmt
    or _json_cell, which write a non-finite float as null in JSON and an
    np.float64, whose str follows numpy's print options, as float.__repr__.
    """
    width = len(names)
    n = next((len(c) for c in columns if c is not None), 0)
    if len(columns) != width or any(c is not None and len(c) != n for c in columns):
        raise TypeError(f"need {width} columns, one per name, of {n} cells each")
    if fmt == "json":
        head = json.dumps({"meta": dict(meta_pairs), "columns": list(names)}, indent=2)
        # the dict's closing "\n}" makes way for the records array
        out.write(head[:-2] + ',\n  "records": [')
        keys = [f"\n      {json.dumps(c).replace('%', '%%')}: " for c in names]
        begin, end, sep, cell, straight, empty = "\n    {", "\n    }", ",", _json_cell, "%s", "null"
    else:
        out.write("".join(f"# {k}: {_fmt(v)}\n" for k, v in meta_pairs))
        out.write(",".join(names) + "\n")
        # %.17g writes a float, inf and nan included, as _fmt does
        keys, begin, end, sep, cell, straight, empty = [""] * width, "", "\n", "", _fmt, "%.17g", ""
    lead, floats = "", {}  # float column index: True for a float array, whose cells need no type scan
    for start in range(0, n, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, n - start)
        cells, slots = [empty] * (rows * width), ["%s"] * width
        for i, column in enumerate(columns):
            if column is None:
                continue
            block = column[start : start + BLOCK_ROWS]
            block = block.tolist() if hasattr(block, "tolist") else block
            if not start and isinstance(block[0], float):
                floats[i] = getattr(getattr(column, "dtype", None), "kind", None) == "f"
            # types first: a sum that met an np.float64 would be numpy's, which
            # warns on inf + -inf and on overflow
            if i in floats and (floats[i] or set(map(type, block)) == {float}) and (
                fmt != "json" or math.isfinite(sum(block))
            ):
                cells[i::width], slots[i] = block, straight
            else:
                cells[i::width] = map(cell, block)
        template = begin + ",".join(map(str.__add__, keys, slots)) + end
        # the template is built for this block's own length, so a table of
        # a few rows does not pay for a template of BLOCK_ROWS
        out.write((lead + sep.join([template] * rows)) % tuple(cells))
        lead = sep
    if fmt == "json":
        # an empty array closes on the same line: "records": []
        out.write("\n  ]\n}\n" if lead else "]\n}\n")


def emit(args, names, columns, **meta) -> None:
    """Write the table to args.out (stdout for None or "-") in args.format."""
    # the header keeps native values; the csv writer formats, json keeps the types
    meta_pairs = [
        ("tool", f"nlgeo {__version__}"),
        ("command", args.command),
        ("conventions", CONVENTIONS),
        ("seed", args.seed),
        *meta.items(),
    ]
    # write_table is looked up here at call time, so a wrapper installed on
    # nlgeo.cli.write_table (the benchmark's tracer) sees every table
    if args.out in (None, "-"):
        write_table(sys.stdout, names, columns, meta_pairs, args.format)
        return
    with open(args.out, "w") as out:
        write_table(out, names, columns, meta_pairs, args.format)


def _at_least(low: int, at_most: int | None = None):
    """argparse type: an integer in [low, at_most], so a range error exits 2."""

    def parse(text: str):
        value = int(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {text}")
        return value

    # argparse names the type in its error for text int() rejects: "invalid int value"
    parse.__name__ = "int"
    return parse


def _kinds(args, default=None) -> list[DistanceKind]:
    # a repeated --kind counts once, so every column name is unique
    codes = dict.fromkeys(args.kind or (default or KIND_CODES))
    return [DistanceKind(c) for c in codes]


def _parse_vector(text: str, n: int, name: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{name} needs {n} comma-separated values, got {len(parts)}")
    return tuple(map(float, parts))


def cmd_werner_sweep(args) -> int:
    import numpy as np

    from .arrays import isotropic_values

    kinds = _kinds(args)
    # a Werner state is the d = 2 isotropic state: w ranges as iso's omega does
    if not (-1.0 / 3.0 <= args.w_min < args.w_max <= 1.0 + 1e-12):
        raise ValueError(f"need -1/3 <= w-min < w-max <= 1, got [{args.w_min}, {args.w_max}]")
    ws = np.linspace(args.w_min, args.w_max, args.n)
    # every column is evaluated here, before the header
    columns = [ws, *per_kind(kinds, lambda k: isotropic_values(k, 2, ws) / werner_max(k))]
    emit(args, ["w"] + [k.value for k in kinds], columns)
    return 0


def cmd_bd_sweep(args) -> int:
    kinds = _kinds(args)
    family = args.family.replace("-", "_")
    tables = list(per_kind(kinds, lambda k: bd_sweep(k, family, args.n)))
    # every table has the same parameter column
    columns = [[param for param, _ in tables[0]], *([value for _, value in table] for table in tables)]
    emit(args, ["param"] + [k.value for k in kinds], columns, family=family)
    return 0


def cmd_bd_grid(args) -> int:
    # the option as given, before _kinds drops repeats: --kind hs --kind hs
    # is still two kinds here
    if args.kind and len(args.kind) != 1:
        raise ValueError("bd-grid takes exactly one --kind")
    kinds = _kinds(args, default=["hs"])
    columns = list(zip(*bd_grid(kinds[0], args.grid_n)))
    emit(args, ["e1", "e2", "value"], columns, kind=kinds[0].value, grid_n=args.grid_n)
    return 0


def cmd_bd_measure(args) -> int:
    if (args.a is None) == (args.e is None):
        raise ValueError("pass exactly one of --a and --e")
    if args.a is not None:
        bd = BellDiagonal.from_corr(_parse_vector(args.a, 3, "--a"))
    else:
        bd = BellDiagonal.from_probs(_parse_vector(args.e, 4, "--e"))
    kinds = _kinds(args)
    results = list(per_kind(kinds, lambda k: bd_measure(k, bd.a)))
    rows = [
        (k.value, res.value, *bd.a, *res.closest_local.a, *res.closest_local.e)
        + (res.method, res.surface, res.iterations, res.converged)
        for k, res in zip(kinds, results)
    ]
    names = ["kind", "value", "a1", "a2", "a3", "closest_a1", "closest_a2", "closest_a3"]
    names += ["closest_e1", "closest_e2", "closest_e3", "closest_e4"]
    names += ["method", "surface", "iterations", "converged"]
    emit(args, names, list(zip(*rows)))
    if not all(res.converged for res in results):
        raise NotConverged("numeric minimization did not converge")
    return 0


def cmd_iso(args) -> int:
    import numpy as np

    from .arrays import formula_agrees, isotropic_reference_formula, isotropic_values

    kinds = _kinds(args, default=["hs"])
    # a bad omega is an argument error here, unlike library-level OutOfRange;
    # above 1 it has IsotropicParam's rounding slack, as werner-sweep's w has
    lo = -1.0 / (args.d * args.d - 1.0)
    if args.omega is not None and not (lo <= args.omega <= 1.0 + 1e-12):
        raise ValueError(f"omega {args.omega} outside [{lo:.6g}, 1]")
    thr = cglmp_threshold(args.d)
    if args.omega is not None:
        omegas = np.array([args.omega])
    else:
        if args.omega_min is None:
            args.omega_min = thr.omega_threshold
        if not (lo <= args.omega_min < args.omega_max <= 1.0 + 1e-12):
            raise ValueError(
                f"need {lo:.6g} <= omega-min < omega-max <= 1, "
                f"got [{args.omega_min}, {args.omega_max}]"
            )
        omegas = np.linspace(args.omega_min, args.omega_max, args.n)
    names, columns = ["omega"], [omegas]
    for k, value in zip(kinds, per_kind(kinds, lambda k: isotropic_values(k, args.d, omegas))):
        names += [f"value_{k.value}", f"formula_{k.value}", f"consistent_{k.value}"]
        # Bures has no quoted form: its formula and flag columns are None, so their cells are empty
        reference = isotropic_reference_formula(k, args.d, omegas)
        columns += [value, reference, formula_agrees(value, reference)]
    emit(args, names, columns, d=args.d, i_d_qm=thr.i_d_qm, omega_threshold=thr.omega_threshold)
    return 0


def cmd_validate(args) -> int:
    checks = run_validation()
    names = ["check", "status", "max_error", "tolerance", "seconds", "detail"]
    rows = [(c.name, "pass" if c.passed else "FAIL", c.max_error, c.tolerance, c.seconds, c.detail) for c in checks]
    emit(args, names, list(zip(*rows)))
    if all(c.passed for c in checks):
        return 0
    if any("NotConverged" in c.detail for c in checks):
        return 5
    return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgeo",
        description="Geometric measures of Bell nonlocality for two-qubit and two-qudit states.",
    )
    parser.add_argument("--version", action="version", version=f"nlgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, kinds=True):
        """Add subcommand name, bound to func, with the options every command shares."""
        p = sub.add_parser(name, help=help)
        if kinds:
            p.add_argument("--kind", action="append", choices=KIND_CODES, help="distance kind; repeatable")
        p.add_argument("--seed", type=int, default=0, help="recorded in the metadata; no result depends on it")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.set_defaults(func=func)
        return p

    p = command("werner-sweep", cmd_werner_sweep, "normalized Werner measures on [w-min, w-max] in [-1/3, 1]")
    p.add_argument("--w-min", type=float, default=WERNER_THRESHOLD, help="default 1/sqrt 2, the CHSH threshold")
    p.add_argument("--w-max", type=float, default=1.0)
    p.add_argument("--n", type=_at_least(1), default=50)

    p = command("bd-sweep", cmd_bd_sweep, "normalized measures along a Bell-diagonal family")
    p.add_argument("--family", choices=["two-bell-mix", "werner-line"], default="two-bell-mix")
    p.add_argument("--n", type=_at_least(2), default=50)

    p = command("bd-grid", cmd_bd_grid, "normalized measure over the e4 = 0 facet")
    p.add_argument("--grid-n", type=_at_least(1), default=10)

    p = command("bd-measure", cmd_bd_measure, "measures of one Bell-diagonal state")
    p.add_argument("--a", help="three comma-separated correlators a1,a2,a3")
    p.add_argument("--e", help="four comma-separated Bell weights e1,e2,e3,e4")

    p = command("iso", cmd_iso, "isotropic measures with quoted-formula cross-checks")
    p.add_argument("--d", type=_at_least(2, ISO_MAX_D), default=2, help=f"local dimension, 2 to {ISO_MAX_D}")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--omega-min", type=float, default=None)
    p.add_argument("--omega-max", type=float, default=1.0)
    p.add_argument("--n", type=_at_least(1), default=20)

    # validate checks every kind, so it takes no --kind
    command("validate", cmd_validate, "self checks: oracle, grid stability, symmetry consistency", kinds=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] for None) and return its exit code.

    The parser is built on the first call and reused for every later one,
    which is safe: every default is immutable, --kind's append action copies
    its None default, each parse fills a fresh Namespace, and --help and
    usage errors size their text when they print. A command function is bound
    by set_defaults(func=cmd_*) when the parser is built, so a wrapper put on
    nlgeo.cli.cmd_* later is not called; the commands look up the library
    functions and write_table when they run, so wrappers on those are.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as exc:
        print(f"nlgeo: {exc}", file=sys.stderr)
        return 5
    except NlgeoError as exc:
        print(f"nlgeo: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"nlgeo: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        # an --out path that cannot be opened or written; BrokenPipeError is
        # an OSError too, so its clause comes first and a closed pipe exits 0
        print(f"nlgeo: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; send what is still buffered to devnull,
        # so the flush at interpreter shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
