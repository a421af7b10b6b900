"""A 40-digit KKT oracle for the numeric Hellinger and relative-entropy measures.

Both objectives are convex in the Bell weights, the weights are affine in the
correlators x, and each cylinder c_p(x) = x_i^2 + x_j^2 - 1 is convex. So a
point of L where every Bell weight is positive and

    grad f(x) + sum_p lambda_p grad c_p(x) = 0,  c_p(x) = 0 on the active p,

holds with every lambda_p >= 0 is the global minimum over L. The oracle
solves that system at 40 digits from the barrier's point, on the cylinders
its surface names, and certifies the signs; it uses none of nlgeo's
objectives or solver.
"""

import itertools

import numpy as np
from mpmath import mp

from nlgeo import solver
from nlgeo.kinds import DistanceKind
from nlgeo.locality import max_pair_sum
from nlgeo.measures import OBJECTIVE_KINDS, bd_measure_numeric
from nlgeo.qstate import bd_corr_to_probs, bd_probs_to_corr

# Bell weights w_k = (1 + s_k . x) / 4
SIGNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))
PAIRS = ((0, 1), (0, 2), (1, 2))
NAMES = {f"disk_{i + 1}{j + 1}": (i, j) for i, j in PAIRS}


def _weights(x):
    return [(1 + s[0] * x[0] + s[1] * x[1] + s[2] * x[2]) / 4 for s in SIGNS]


def _objective(kind, e, x):
    w = _weights(x)
    if kind is DistanceKind.HELLINGER:
        return 2 - 2 * sum(mp.sqrt(ek * wk) for ek, wk in zip(e, w))
    return sum(ek * mp.log(ek / wk) for ek, wk in zip(e, w)) / mp.log(2)


def _objective_gradient(kind, e, x):
    w = _weights(x)
    if kind is DistanceKind.HELLINGER:
        d = [-mp.sqrt(ek / wk) for ek, wk in zip(e, w)]
    else:
        d = [-ek / (wk * mp.log(2)) for ek, wk in zip(e, w)]
    return [sum(dk * s[i] for dk, s in zip(d, SIGNS)) / 4 for i in range(3)]


def _cylinder(pair, x):
    i, j = pair
    return x[i] ** 2 + x[j] ** 2 - 1


def _cylinder_jacobian(pairs, x):
    """The gradients of the cylinders of these pairs at x, one column each."""
    return mp.matrix([[2 * x[r] if r in p else 0 for p in pairs] for r in range(3)])


def _named_pairs(surface):
    """The index pairs of the cylinders that a surface name names."""
    return PAIRS if surface == "vertex" else [NAMES[name] for name in surface.split("+")]


def kkt_point(kind, e, x_barrier, pairs):
    """The KKT point (x, multipliers) on the cylinders of these pairs.

    At the vertex, where all three meet, x is fixed, (sign(x_i) / sqrt 2)_i,
    and the stationarity system is linear in the three multipliers.
    Elsewhere (x, lambda) solves the stationarity and active-constraint
    equations by Newton's method from the barrier's x, with lambda from a
    least-squares fit there.
    """
    x0 = [mp.mpf(v) for v in x_barrier]
    if len(pairs) == 3:
        x = [mp.sign(v) / mp.sqrt(2) for v in x0]
        lam = mp.lu_solve(_cylinder_jacobian(pairs, x), -mp.matrix(_objective_gradient(kind, e, x)))
        return x, list(lam)

    def equations(*z):
        x, lam = z[:3], z[3:]
        g = mp.matrix(_objective_gradient(kind, e, x)) + _cylinder_jacobian(pairs, x) * mp.matrix(lam)
        return list(g) + [_cylinder(p, x) for p in pairs]

    jac = _cylinder_jacobian(pairs, x0)
    lam0 = mp.lu_solve(jac.T * jac, -(jac.T * mp.matrix(_objective_gradient(kind, e, x0))))
    z = list(mp.findroot(equations, x0 + list(lam0)))
    return z[:3], z[3:]


def oracle_inputs():
    """Seeded Dirichlet(0.5) nonlocal inputs, and two inputs whose closest
    local states are the vertex, one of them on the Werner line.

    Every Bell weight is positive. Inputs with a zero Bell weight (the grid's
    facet nodes) are left out: their optimum may lie on a facet of the
    tetrahedron, whose multiplier this KKT system does not carry.
    """
    rng = np.random.default_rng(10)
    inputs = []
    while len(inputs) < 30:
        a = bd_probs_to_corr(rng.dirichlet(np.full(4, 0.5)))
        if max_pair_sum(a) > 1.0 + 1e-3:
            inputs.append(a)
    return inputs + [(-0.8, -0.8, -0.8), (0.85, 0.85, -0.85)]


def test_barrier_values_are_within_gap_of_the_kkt_optimum():
    n_active = set()
    for a, kind in itertools.product(oracle_inputs(), OBJECTIVE_KINDS):
        res = bd_measure_numeric(kind, a)
        assert res.converged and res.surface, (kind, a)
        with mp.workdps(40):
            e = [mp.mpf(v) for v in bd_corr_to_probs(a)]
            assert min(e) > 0
            active = _named_pairs(res.surface)
            x, lam = kkt_point(kind, e, res.closest_local.a, active)
            # the certificate: dual feasibility, and primal feasibility with
            # every facet of the tetrahedron inactive
            assert min(lam) > 0, (kind, a, res.surface, lam)
            assert min(_weights(x)) > 0, (kind, a)
            assert all(_cylinder(p, x) < 0 for p in PAIRS if p not in active), (kind, a)
            gap = res.value - _objective(kind, e, x)
        assert -1e-15 <= gap <= solver.GAP, (kind, a, res.surface, float(gap))
        n_active.add(len(active))
    # single disks, arcs of two and the vertex all occur
    assert n_active == {1, 2, 3}
