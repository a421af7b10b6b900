"""Command line interface.

Exit codes: 0 success, 2 argument error or an output path that cannot be
opened, 3 non-physical input, 4 validation failure, 5 optimizer
non-convergence. A reader that closes the output pipe early
(``nlgeo werner-sweep | head -2``) has chosen to stop, so that exits 0
without a traceback. Output is CSV (default) or JSON with the same records
(JSON writes a non-finite float, which it cannot represent, as null). nlgeo
writes both formats itself, row by row; the JSON follows the json module's
indent=2 layout. Each command declares its float columns, whose cells go
straight into one row template per table; only the other cells are
formatted one by one.
Metadata lines carry the tool version, the value conventions and the seed, so
a fixed command line reproduces byte-identical files.

Only werner-sweep and iso, which evaluate closed forms over whole arrays,
import numpy (nlgeo.arrays), and only when they run.

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
    werner_max,
    WERNER_THRESHOLD,
)
from .qstate import BellDiagonal
from .validation import run_validation

KIND_CODES = [k.value for k in DistanceKind]

CONVENTIONS = "hellinger=squared bures=squared log_base=2 boundary=local"

# iso's largest --d: cglmp_threshold's cost grows like d (about 0.1 s at this
# bound) and iso calls it up to 1 + 2k times for k kinds
ISO_MAX_D = 100_000


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


def _meta_lines(command: str, args, extra: dict | None = None) -> list[tuple[str, object]]:
    pairs = [
        ("tool", f"nlgeo {__version__}"),
        ("command", command),
        ("conventions", CONVENTIONS),
        ("seed", args.seed),
    ]
    # keep native values here; the csv writer formats, json keeps the types
    pairs.extend((extra or {}).items())
    return pairs


def write_table(out, columns, rows, meta_pairs, fmt: str, floats=()) -> None:
    """Write the header once, then each row through one row template.

    CSV: `# key: value` metadata lines, the column line, one line per row.
    JSON: {"meta", "columns", "records"} in the json module's indent=2
    layout, written row by row, so no record dict is built. The column names
    must be unique, as JSON object keys are.

    floats names the columns whose every cell is a float (np.float64
    included). The row template takes their cells as they are, as %.17g in
    CSV and as str, which for a Python float is float.__repr__, in JSON, so a
    float cell costs no Python call. Every other cell is written by _fmt or
    _json_cell. In JSON, the float cells of a row whose sum is not a finite
    Python float go through _json_cell too: a non-finite value is written as
    null, and an np.float64, whose str follows numpy's print options, as
    float.__repr__.
    """
    other_at = [i for i, c in enumerate(columns) if c not in floats]
    if fmt == "json":
        head = json.dumps({"meta": dict(meta_pairs), "columns": list(columns)}, indent=2)
        # the dict's closing "\n}" makes way for the records array
        out.write(head[:-2] + ',\n  "records": [')
        fields = ",".join(f"\n      {json.dumps(c).replace('%', '%%')}: %s" for c in columns)
        template, cell, sep = "\n    {" + fields + "\n    }", _json_cell, ","
        checked = [i for i, c in enumerate(columns) if c in floats]
    else:
        out.write("".join(f"# {k}: {_fmt(v)}\n" for k, v in meta_pairs))
        out.write(",".join(columns) + "\n")
        slots = ["%.17g" if c in floats else "%s" for c in columns]
        template, cell, sep = ",".join(slots) + "\n", _fmt, ""
        # %.17g writes inf, nan and np.float64 as _fmt does, so no row is checked
        checked = []
    lead = ""
    for r in rows:
        cells = list(r)
        for i in other_at:
            cells[i] = cell(cells[i])
        if checked:
            total = sum(map(cells.__getitem__, checked))
            if type(total) is not float or not math.isfinite(total):
                for i in checked:
                    cells[i] = cell(cells[i])
        out.write(lead + template % tuple(cells))
        lead = sep
    if fmt == "json":
        # an empty array closes on the same line: "records": []
        out.write("\n  ]\n}\n" if lead else "]\n}\n")


def emit(args, columns, rows, meta_pairs, floats=()) -> None:
    """Write the table to args.out (stdout for None or "-") in args.format.

    floats names the float columns, as in write_table.
    """
    # write_table is looked up here at call time, so a wrapper installed on
    # nlgeo.cli.write_table (the benchmark's tracer) sees every table
    if args.out in (None, "-"):
        write_table(sys.stdout, columns, rows, meta_pairs, args.format, floats)
        return
    with open(args.out, "w") as out:
        write_table(out, columns, rows, meta_pairs, args.format, floats)


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

    from .arrays import werner_values

    kinds = _kinds(args)
    if not (WERNER_THRESHOLD <= args.w_min < args.w_max <= 1.0 + 1e-12):
        raise ValueError("need 1/sqrt(2) <= w-min < w-max <= 1")
    ws = np.linspace(args.w_min, args.w_max, args.n)
    # one expression, so no column array outlives the conversion to rows
    rows = np.column_stack([ws] + [werner_values(k, ws) / werner_max(k) for k in kinds]).tolist()
    columns = ["w"] + [k.value for k in kinds]
    emit(args, columns, rows, _meta_lines("werner-sweep", args), floats=columns)
    return 0


def _solve_once(kinds, solve) -> list:
    """solve(k) for each kind, with Bures and Hellinger sharing one solve.

    The two measures are equal on Bell-diagonal states, which commute, and
    both are normalized by the same Werner maximum.
    """
    done, out = {}, []
    for k in kinds:
        shared = DistanceKind.HELLINGER if k is DistanceKind.BURES else k
        if shared not in done:
            done[shared] = solve(k)
        out.append(done[shared])
    return out


def cmd_bd_sweep(args) -> int:
    kinds = _kinds(args)
    family = args.family.replace("-", "_")
    tables = _solve_once(kinds, lambda k: bd_sweep(k, family, args.n))
    # every table has the same parameter column
    rows = [(row[0][0], *(value for _, value in row)) for row in zip(*tables)]
    columns = ["param"] + [k.value for k in kinds]
    emit(args, columns, rows, _meta_lines("bd-sweep", args, {"family": family}), floats=columns)
    return 0


def cmd_bd_grid(args) -> int:
    # the option as given, before _kinds drops repeats: --kind hs --kind hs
    # is still two kinds here
    if args.kind and len(args.kind) != 1:
        raise ValueError("bd-grid takes exactly one --kind")
    kinds = _kinds(args, default=["hs"])
    rows = bd_grid(kinds[0], args.grid_n)
    meta = _meta_lines("bd-grid", args, {"kind": kinds[0].value, "grid_n": args.grid_n})
    columns = ["e1", "e2", "value"]
    emit(args, columns, rows, meta, floats=columns)
    return 0


def cmd_bd_measure(args) -> int:
    if (args.a is None) == (args.e is None):
        raise ValueError("pass exactly one of --a and --e")
    if args.a is not None:
        bd = BellDiagonal.from_corr(_parse_vector(args.a, 3, "--a"))
    else:
        bd = BellDiagonal.from_probs(_parse_vector(args.e, 4, "--e"))
    kinds = _kinds(args)
    results = _solve_once(kinds, lambda k: bd_measure(k, bd.a))
    rows = []
    unconverged = False
    for k, res in zip(kinds, results):
        closest = res.closest_local
        rows.append(
            (k.value, res.value, *bd.a, *closest.a, *closest.e)
            + (res.method, res.surface, res.iterations, res.converged)
        )
        unconverged = unconverged or not res.converged
    floats = (
        ["value", "a1", "a2", "a3"]
        + ["closest_a1", "closest_a2", "closest_a3"]
        + ["closest_e1", "closest_e2", "closest_e3", "closest_e4"]
    )
    columns = ["kind"] + floats + ["method", "surface", "iterations", "converged"]
    emit(args, columns, rows, _meta_lines("bd-measure", args), floats)
    if unconverged:
        raise NotConverged("numeric minimization did not converge")
    return 0


def cmd_iso(args) -> int:
    import numpy as np

    from .arrays import formula_agrees, isotropic_reference_formula, isotropic_values

    kinds = _kinds(args, default=["hs"])
    # a bad omega is an argument error here, unlike library-level OutOfRange
    lo = -1.0 / (args.d * args.d - 1.0)
    if args.omega is not None and not (lo <= args.omega <= 1.0):
        raise ValueError(f"omega {args.omega} outside [{lo:.6g}, 1]")
    thr = cglmp_threshold(args.d)
    if args.omega is not None:
        omegas = np.array([args.omega])
    else:
        if args.omega_min is None:
            args.omega_min = thr.omega_threshold
        if not (lo <= args.omega_min < args.omega_max <= 1.0):
            raise ValueError(
                f"need {lo:.6g} <= omega-min < omega-max <= 1, "
                f"got [{args.omega_min}, {args.omega_max}]"
            )
        omegas = np.linspace(args.omega_min, args.omega_max, args.n)
    names, columns, empty = ["omega"], [omegas.tolist()], [None] * len(omegas)
    floats = ["omega"]
    for k in kinds:
        names += [f"value_{k.value}", f"formula_{k.value}", f"consistent_{k.value}"]
        value = isotropic_values(k, args.d, omegas)
        reference = isotropic_reference_formula(k, args.d, omegas)
        agrees = formula_agrees(value, reference)
        # Bures has no quoted form, so its formula and flag cells are empty
        columns += [value.tolist()] + [empty if c is None else c.tolist() for c in (reference, agrees)]
        floats.append(f"value_{k.value}")
        if reference is not None:
            floats.append(f"formula_{k.value}")
    meta = {"d": args.d, "i_d_qm": thr.i_d_qm, "omega_threshold": thr.omega_threshold}
    emit(args, names, zip(*columns), _meta_lines("iso", args, meta), floats)
    return 0


def cmd_validate(args) -> int:
    checks = run_validation()
    columns = ["check", "status", "max_error", "tolerance", "seconds", "detail"]
    rows = [
        [c.name, "pass" if c.passed else "FAIL", c.max_error, c.tolerance, c.seconds, c.detail]
        for c in checks
    ]
    emit(args, columns, rows, _meta_lines("validate", args), floats=["max_error", "tolerance", "seconds"])
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

    def common(p, kinds=True):
        if kinds:
            p.add_argument("--kind", action="append", choices=KIND_CODES, help="distance kind; repeatable")
        p.add_argument("--seed", type=int, default=0, help="recorded in the metadata; no result depends on it")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("werner-sweep", help="normalized Werner measures on [1/sqrt 2, 1]")
    common(p)
    p.add_argument("--w-min", type=float, default=WERNER_THRESHOLD, dest="w_min")
    p.add_argument("--w-max", type=float, default=1.0, dest="w_max")
    p.add_argument("--n", type=_at_least(1), default=50)
    p.set_defaults(func=cmd_werner_sweep)

    p = sub.add_parser("bd-sweep", help="normalized measures along a Bell-diagonal family")
    common(p)
    p.add_argument("--family", choices=["two-bell-mix", "werner-line"], default="two-bell-mix")
    p.add_argument("--n", type=_at_least(2), default=50)
    p.set_defaults(func=cmd_bd_sweep)

    p = sub.add_parser("bd-grid", help="normalized measure over the e4 = 0 facet")
    common(p)
    p.add_argument("--grid-n", type=_at_least(1), default=10, dest="grid_n")
    p.set_defaults(func=cmd_bd_grid)

    p = sub.add_parser("bd-measure", help="measures of one Bell-diagonal state")
    common(p)
    p.add_argument("--a", help="three comma-separated correlators a1,a2,a3")
    p.add_argument("--e", help="four comma-separated Bell weights e1,e2,e3,e4")
    p.set_defaults(func=cmd_bd_measure)

    p = sub.add_parser("iso", help="isotropic measures with quoted-formula cross-checks")
    common(p)
    p.add_argument(
        "--d", type=_at_least(2, ISO_MAX_D), default=2, help=f"local dimension, 2 to {ISO_MAX_D}"
    )
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--omega-min", type=float, default=None, dest="omega_min")
    p.add_argument("--omega-max", type=float, default=1.0, dest="omega_max")
    p.add_argument("--n", type=_at_least(1), default=20)
    p.set_defaults(func=cmd_iso)

    # validate checks every kind, so it takes no --kind
    p = sub.add_parser("validate", help="self checks: oracle, grid stability, symmetry consistency")
    common(p, kinds=False)
    p.set_defaults(func=cmd_validate)

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
