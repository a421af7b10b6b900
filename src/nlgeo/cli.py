"""Command line interface.

Exit codes: 0 success, 2 argument error, 3 non-physical input, 4 validation
failure, 5 optimizer non-convergence. Output is CSV (default) or JSON with the
same records; metadata lines carry the tool version, the value conventions,
the optimizer configuration and the seed, so a fixed command line reproduces
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import NlgeoError, NotConverged
from .locality import cglmp_threshold
from .measures import (
    OptimizerConfig,
    bd_grid,
    bd_measure,
    bd_sweep,
    isotropic_consistency,
    two_bell_mix_corr,
    werner_max,
    werner_measure,
    WERNER_THRESHOLD,
)
from .metrics import DistanceKind
from .qstate import BellDiagonal
from .validation import run_validation

KIND_CODES = [k.value for k in DistanceKind]

CONVENTIONS = "hellinger=squared bures=squared log_base=2 boundary=local"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _meta_lines(command: str, args, extra: dict | None = None) -> list[tuple[str, object]]:
    cfg = _optimizer_config(args)
    pairs = [
        ("tool", f"nlgeo {__version__}"),
        ("command", command),
        ("conventions", CONVENTIONS),
        (
            "optimizer",
            "param_tol={} value_tol={} max_iters={} seeds={} penalty_growth={}".format(
                _fmt(cfg.param_tol),
                _fmt(cfg.value_tol),
                _fmt(cfg.max_iters),
                _fmt(cfg.seeds),
                _fmt(cfg.penalty_growth),
            ),
        ),
        ("seed", args.seed),
    ]
    # keep native values here; the csv writer formats, json keeps the types
    pairs.extend((extra or {}).items())
    return pairs


def write_table(out, columns, rows, meta_pairs, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "meta": {k: v for k, v in meta_pairs},
            "columns": list(columns),
            "records": [
                {c: (None if r[i] is None else r[i]) for i, c in enumerate(columns)}
                for r in rows
            ],
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    for k, v in meta_pairs:
        out.write(f"# {k}: {_fmt(v)}\n")
    out.write(",".join(columns) + "\n")
    for r in rows:
        out.write(",".join(_fmt(v) for v in r) + "\n")


def emit(args, columns, rows, meta_pairs) -> None:
    """Write the table to args.out (stdout for None or "-") in args.format."""
    # write_table is looked up here at call time, so a wrapper installed on
    # nlgeo.cli.write_table (the benchmark's tracer) sees every table
    if args.out in (None, "-"):
        write_table(sys.stdout, columns, rows, meta_pairs, args.format)
        return
    with open(args.out, "w") as out:
        write_table(out, columns, rows, meta_pairs, args.format)


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        param_tol=args.param_tol,
        value_tol=args.value_tol,
        max_iters=args.max_iters,
        seeds=args.seeds,
        penalty_growth=args.penalty_growth,
    )


def _at_least(low: int):
    """argparse type: an integer no smaller than low, so a range error exits 2."""

    def parse(text: str):
        value = int(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    return parse


def _above(low: float):
    """argparse type: a float strictly greater than low."""

    def parse(text: str):
        value = float(text)
        if not value > low:
            raise argparse.ArgumentTypeError(f"must be greater than {low}, got {text}")
        return value

    return parse


def _kinds(args, default=None) -> list[DistanceKind]:
    codes = args.kind or (default or KIND_CODES)
    return [DistanceKind(c) for c in codes]


def _parse_vector(text: str, n: int, name: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{name} needs {n} comma-separated values, got {len(parts)}")
    return np.array([float(p) for p in parts])


def cmd_werner_sweep(args) -> int:
    kinds = _kinds(args)
    if not (WERNER_THRESHOLD <= args.w_min < args.w_max <= 1.0 + 1e-12):
        raise ValueError("need 1/sqrt(2) <= w-min < w-max <= 1")
    ws = np.linspace(args.w_min, args.w_max, args.n)
    norms = {k: werner_max(k) for k in kinds}
    rows = [
        [w] + [werner_measure(k, w).value / norms[k] for k in kinds] for w in ws
    ]
    emit(args, ["w"] + [k.value for k in kinds], rows, _meta_lines("werner-sweep", args))
    return 0


def cmd_bd_sweep(args) -> int:
    kinds = _kinds(args)
    cfg = _optimizer_config(args)
    family = args.family.replace("-", "_")
    tables = [bd_sweep(k, family, args.n, cfg, seed=args.seed) for k in kinds]
    rows = [
        [tables[0][i, 0]] + [t[i, 1] for t in tables] for i in range(args.n)
    ]
    meta = _meta_lines("bd-sweep", args, {"family": family})
    emit(args, ["param"] + [k.value for k in kinds], rows, meta)
    return 0


def cmd_bd_grid(args) -> int:
    kinds = _kinds(args, default=["hs"])
    if len(kinds) != 1:
        raise ValueError("bd-grid takes exactly one --kind")
    cfg = _optimizer_config(args)
    rows = bd_grid(kinds[0], args.grid_n, cfg, seed=args.seed)
    meta = _meta_lines("bd-grid", args, {"kind": kinds[0].value, "grid_n": args.grid_n})
    emit(args, ["e1", "e2", "value"], rows, meta)
    return 0


def cmd_bd_measure(args) -> int:
    if (args.a is None) == (args.e is None):
        raise ValueError("pass exactly one of --a and --e")
    if args.a is not None:
        a = _parse_vector(args.a, 3, "--a")
        bd = BellDiagonal.from_corr(a)
    else:
        bd = BellDiagonal.from_probs(_parse_vector(args.e, 4, "--e"))
    kinds = _kinds(args)
    cfg = _optimizer_config(args)
    rows = []
    unconverged = False
    for k in kinds:
        res = bd_measure(k, bd.a, cfg, seed=args.seed)
        closest = res.closest_local
        rows.append(
            [k.value, res.value]
            + list(bd.a)
            + list(closest.a)
            + list(closest.e)
            + [res.method, res.surface, res.iterations, res.converged, res.residual]
        )
        unconverged = unconverged or not res.converged
    columns = (
        ["kind", "value", "a1", "a2", "a3"]
        + ["closest_a1", "closest_a2", "closest_a3"]
        + ["closest_e1", "closest_e2", "closest_e3", "closest_e4"]
        + ["method", "surface", "iterations", "converged", "residual"]
    )
    emit(args, columns, rows, _meta_lines("bd-measure", args))
    if unconverged:
        raise NotConverged("numeric minimization did not converge")
    return 0


def cmd_iso(args) -> int:
    kinds = _kinds(args, default=["hs"])
    # a bad omega is an argument error here, unlike library-level OutOfRange
    lo = -1.0 / (args.d * args.d - 1.0)
    if args.omega is not None and not (lo <= args.omega <= 1.0):
        raise ValueError(f"omega {args.omega} outside [{lo:.6g}, 1]")
    thr = cglmp_threshold(args.d)
    if args.omega is not None:
        omegas = [args.omega]
    else:
        if args.omega_min is None:
            args.omega_min = thr.omega_threshold
        if not (lo <= args.omega_min < args.omega_max <= 1.0):
            raise ValueError(
                f"need {lo:.6g} <= omega-min < omega-max <= 1, "
                f"got [{args.omega_min}, {args.omega_max}]"
            )
        omegas = list(np.linspace(args.omega_min, args.omega_max, args.n))
    columns = ["omega"]
    for k in kinds:
        columns += [f"value_{k.value}", f"formula_{k.value}", f"consistent_{k.value}"]
    rows = []
    for omega in omegas:
        row = [omega]
        for k in kinds:
            value, reference, flag = isotropic_consistency(k, args.d, omega)
            row += [value, reference, flag]
        rows.append(row)
    meta = {
        "d": args.d,
        "i_d_qm": thr.i_d_qm,
        "omega_threshold": thr.omega_threshold,
    }
    emit(args, columns, rows, _meta_lines("iso", args, meta))
    return 0


def cmd_validate(args) -> int:
    cfg = _optimizer_config(args)
    checks = run_validation(cfg, seed=args.seed)
    columns = ["check", "status", "max_error", "tolerance", "seconds", "detail"]
    rows = [
        [c.name, "pass" if c.passed else "FAIL", c.max_error, c.tolerance, c.seconds, c.detail]
        for c in checks
    ]
    emit(args, columns, rows, _meta_lines("validate", args))
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

    def common(p, grid=False):
        p.add_argument("--kind", action="append", choices=KIND_CODES, help="distance kind; repeatable")
        p.add_argument("--seed", type=int, default=0, help="seed for optimizer random starts")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--param-tol", type=_above(0.0), default=1e-9, dest="param_tol")
        p.add_argument("--value-tol", type=_above(0.0), default=1e-10, dest="value_tol")
        p.add_argument("--max-iters", type=_at_least(1), default=500, dest="max_iters")
        p.add_argument("--seeds", type=_at_least(1), default=8)
        p.add_argument("--penalty-growth", type=_above(1.0), default=10.0, dest="penalty_growth")

    p = sub.add_parser("werner-sweep", help="normalized Werner measures on [1/sqrt 2, 1]")
    common(p)
    p.add_argument("--w-min", type=float, default=WERNER_THRESHOLD, dest="w_min")
    p.add_argument("--w-max", type=float, default=1.0, dest="w_max")
    p.add_argument("--n", type=_at_least(1), default=50)
    p.set_defaults(func=cmd_werner_sweep)

    p = sub.add_parser("bd-sweep", help="normalized measures along a Bell-diagonal family")
    common(p)
    p.add_argument("--family", choices=["two-bell-mix", "two_bell_mix", "werner-line", "werner_line"], default="two_bell_mix")
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
    p.add_argument("--d", type=_at_least(2), default=2)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--omega-min", type=float, default=None, dest="omega_min")
    p.add_argument("--omega-max", type=float, default=1.0, dest="omega_max")
    p.add_argument("--n", type=_at_least(1), default=20)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("validate", help="self checks: oracle, grid stability, seed independence")
    common(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
