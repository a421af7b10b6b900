"""Seeded inputs for the four workloads.

A workload is a list of operations that one pass runs in order, a short
warm-up list run once before timing, and the fewest passes a run makes. An operation is either a CLI command
(``argv`` for ``nlgeo.cli.main``, written to the file ``out``) or one library
call ``nlgeo.bd_measure(kind, a)``. Its ``cls`` groups operations of the same
kind for the latency statistics. The program sees only these inputs; the seed
never reaches it except as the CLI's own ``--seed`` flag.
"""

from __future__ import annotations

import numpy as np

import reference

WORKLOADS = ("families", "random_bd", "closed_form_io", "validate")

KINDS = reference.KINDS

# families: the paper's figure workload. The facet grid must have
# CHSH-nonlocal nodes inside it (three-Bell mixtures): on grids up to 6 every
# nonlocal node lies on an edge, where the two-Bell sweep already goes. At 11,
# 9 of the 42 nonlocal nodes are inside (at the figure's 20, 36 of 93). One
# pass of the ten commands outlasts the run's window, so a run makes one.
GRID_N = 11
SWEEP_N = 5

# random_bd: one caller, one bd_measure at a time (closed loop). Every call
# gets its own state, kinds in turn: the pass time then sums 300 independent
# solves rather than 60 states' worth of correlated ones, so it varies less
# from seed to seed. With 200 states the per-kind medians (40 calls each)
# scattered by 10 % from seed to seed. One pass takes about 30 s on two
# shared cores, so a traced run (an untraced and a traced pass) ends well
# within 180 s.
RANDOM_STATES = 300
DIRICHLET_ALPHA = 0.3
STRATA_POOL = 8
# inputs at which nlgeo reports converged=True above an SLSQP reference
FALSE_CONVERGENCE = (
    ("re", (-0.93466, -0.33381, -0.39911)),
    ("he", (-0.99139, 0.14711, 0.13851)),
    ("he", (0.65514, -0.55277, 0.89761)),
)

# closed_form_io: closed forms, dense isotropic matrices and the table writer.
WERNER_N = 20000
# iso sweep length per dimension, so that each command takes a few tenths of
# a second (the dense d^2 x d^2 matrices make large d costly)
ISO_N = {2: 400, 3: 300, 5: 150, 8: 50}

# warm-up for families: every kind on a tiny grid
WARMUP_GRID = [
    {"cls": f"warmup:{k}", "argv": ["bd-grid", "--grid-n", "2", "--kind", k], "out": f"warmup-{k}.csv"}
    for k in KINDS
]


def random_states(seed: int, n: int) -> list[list[float]]:
    """n CHSH-nonlocal correlator triples with Dirichlet(0.3) Bell weights.

    Stratified by the largest weight, which predicts a solve's cost: a pool
    of STRATA_POOL * n states is sorted by it and one state is drawn from
    each of n equal strata, so every seed covers the same range of distances
    from the Bell corners and pass times vary less from seed to seed.
    Returned in stratum order.
    """
    rng = np.random.default_rng(seed)
    pool = []
    while len(pool) < STRATA_POOL * n:
        e = rng.dirichlet([DIRICHLET_ALPHA] * 4)
        a = reference.corr(e)
        if not reference.is_local(a):
            pool.append((float(e.max()), [float(x) for x in a]))
    pool.sort(key=lambda item: item[0])
    return [pool[STRATA_POOL * i + int(rng.integers(STRATA_POOL))][1] for i in range(n)]


def families(seed: int) -> dict:
    ops = []
    for k in KINDS:
        ops.append({
            "cls": f"bd-grid:{k}",
            "argv": ["bd-grid", "--grid-n", str(GRID_N), "--kind", k, "--seed", str(seed)],
            "out": f"grid-{k}.csv",
        })
        ops.append({
            "cls": f"bd-sweep:{k}",
            "argv": ["bd-sweep", "--family", "two-bell-mix", "--n", str(SWEEP_N), "--kind", k,
                     "--seed", str(seed), "--format", "json"],
            "out": f"sweep-{k}.json",
        })
    return {"ops": ops, "warmup": WARMUP_GRID, "min_passes": 1}


def random_bd(seed: int) -> dict:
    # kind k takes every fifth stratum, so each kind spans all of them; the
    # calls then run in a seeded random order
    ops = [
        {"cls": KINDS[i % len(KINDS)], "kind": KINDS[i % len(KINDS)], "a": a}
        for i, a in enumerate(random_states(seed, RANDOM_STATES))
    ]
    np.random.default_rng(seed).shuffle(ops)
    ops += [{"cls": k, "kind": k, "a": list(a)} for k, a in FALSE_CONVERGENCE]
    # one pass outlasts the window; the warm-up repeats one call per kind
    return {"ops": ops, "warmup": [next(op for op in ops if op["kind"] == k) for k in KINDS], "min_passes": 1}


def closed_form_io(seed: int) -> dict:
    # the warm-up runs the same commands on a tenth of the points
    return {"ops": _closed_form_ops(seed, 1), "warmup": _closed_form_ops(seed, 10)}


def _closed_form_ops(seed: int, shrink: int) -> list:
    rng = np.random.default_rng(seed)
    w_min = reference.WERNER_T + 0.01 * rng.random()
    ops = [
        {
            "cls": f"werner-sweep:{fmt}",
            "argv": ["werner-sweep", "--n", str(WERNER_N // shrink), "--w-min", repr(w_min), "--seed", str(seed),
                     "--format", fmt],
            "out": f"werner.{fmt}",
        }
        for fmt in ("csv", "json")
    ]
    for d, n in ISO_N.items():
        # start below the threshold, so each sweep crosses it
        omega_min = reference.cglmp_omega(d) - 0.1 * rng.random()
        ops.append({
            "cls": f"iso:{d}",
            "argv": ["iso", "--d", str(d), "--n", str(n // shrink), "--omega-min", repr(omega_min),
                     "--seed", str(seed)] + [flag for k in KINDS for flag in ("--kind", k)],
            "out": f"iso-{d}.csv",
        })
    return ops


# validate: the self-check suite; its inputs are fixed, so the seed does not
# reach it. Its checks, in the order the report lists them:
VALIDATION_CHECKS = (*(f"oracle_werner_{k}" for k in KINDS), "grid_convergence_hs", "multiseed_consistency")


def validate(seed: int) -> dict:
    # one pass outlasts the window; the warm-up loads every kind's solver path
    ops = [{"cls": "validate", "argv": ["validate"], "out": "validate.csv", "volatile": ["seconds"]}]
    return {"ops": ops, "warmup": WARMUP_GRID, "min_passes": 1}


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    spec = {"min_passes": 2, **globals()[workload](seed)}
    spec["workload"] = workload
    spec["seed"] = seed
    return spec


def grid_nodes(grid_n: int) -> list[tuple[float, float, list[float]]]:
    """(e1, e2, a) of the e4 = 0 facet nodes, in the CLI's row-major order."""
    nodes = []
    for i in range(grid_n + 1):
        for j in range(grid_n + 1 - i):
            e = [i / grid_n, j / grid_n, (grid_n - i - j) / grid_n, 0.0]
            nodes.append((e[0], e[1], [float(x) for x in reference.corr(e)]))
    return nodes


def sweep_points(n: int) -> list[tuple[float, list[float]]]:
    """(p, a) of the two-Bell mixture a = (2p - 1, -(2p - 1), 1), p in [1/2, 1]."""
    return [(float(p), [2.0 * p - 1.0, -(2.0 * p - 1.0), 1.0]) for p in np.linspace(0.5, 1.0, n)]

