"""A 40-digit KKT oracle for the numeric Hellinger and relative-entropy measures.

Both objectives are convex in the Bell weights, the weights w_k(x) are affine
in the correlators x, and each cylinder c_p(x) = x_i^2 + x_j^2 - 1 is convex.
So a point of L where

    grad f(x) + sum_p lambda_p grad c_p(x) - sum_k mu_k grad w_k(x) = 0,

c_p(x) = 0 on the active cylinders p and w_k(x) = 0 on the active facets k,
holds with every lambda_p >= 0 and mu_k >= 0 is the global minimum over L.
The oracle solves that system at 40 digits from the solve's point, on the
cylinders its surface names and the facets where its closest weight is 0,
and certifies the signs; it uses none of nlgeo's objectives or solver. The
objectives are nlgeo's: a Bell weight e_k <= 0 (Hellinger) or <= 1e-15
(relative entropy) has no term.
"""

import itertools

import numpy as np
from mpmath import mp

from nlgeo.kinds import DistanceKind
from nlgeo.locality import bd_is_chsh_local, max_pair_sum
from nlgeo.measures import OBJECTIVE_KINDS, bd_measure_numeric, two_bell_mix_corr
from nlgeo.qstate import bd_corr_to_probs, bd_probs_to_corr

# Bell weights w_k = (1 + s_k . x) / 4
SIGNS = ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1))
PAIRS = ((0, 1), (0, 2), (1, 2))
NAMES = {f"disk_{i + 1}{j + 1}": (i, j) for i, j in PAIRS}


def _weights(x):
    return [(1 + s[0] * x[0] + s[1] * x[1] + s[2] * x[2]) / 4 for s in SIGNS]


def _present(kind, e):
    """The (e_k, k) of the Bell weights that have a term."""
    floor = 0 if kind is DistanceKind.HELLINGER else mp.mpf(1e-15)
    return [(ek, k) for k, ek in enumerate(e) if ek > floor]


def _objective(kind, e, x):
    w = _weights(x)
    if kind is DistanceKind.HELLINGER:
        return 2 - 2 * sum(mp.sqrt(ek * w[k]) for ek, k in _present(kind, e))
    return sum(ek * mp.log(ek / w[k]) for ek, k in _present(kind, e)) / mp.log(2)


def _objective_gradient(kind, e, x):
    w = _weights(x)
    d = [0] * 4
    for ek, k in _present(kind, e):
        d[k] = -mp.sqrt(ek / w[k]) if kind is DistanceKind.HELLINGER else -ek / (w[k] * mp.log(2))
    return [sum(dk * s[i] for dk, s in zip(d, SIGNS)) / 4 for i in range(3)]


def _cylinder(pair, x):
    i, j = pair
    return x[i] ** 2 + x[j] ** 2 - 1


def _jacobian(pairs, facets, x):
    """The gradients of the cylinders of these pairs and of minus the Bell
    weights of these facets at x, one column each."""
    return mp.matrix([[2 * x[r] if r in p else 0 for p in pairs] + [-SIGNS[k][r] / 4 for k in facets]
                      for r in range(3)])


def _named_pairs(surface):
    """The index pairs of the cylinders that a surface name names."""
    return PAIRS if surface == "vertex" else [NAMES[name] for name in surface.split("+")]


def kkt_point(kind, e, x_solved, pairs, facets):
    """The KKT point (x, multipliers) on the cylinders of these pairs and the
    facets w_k = 0 of these k, the cylinders' multipliers first.

    At the vertex, where all three cylinders meet, x is fixed,
    (sign(x_i) / sqrt 2)_i, and the stationarity system is linear in the
    three multipliers. Elsewhere (x, multipliers) solves the stationarity and
    active-constraint equations by Newton's method from the solve's x, with
    the multipliers from a least-squares fit there.
    """
    x0 = [mp.mpf(v) for v in x_solved]
    if len(pairs) == 3:
        x = [mp.sign(v) / mp.sqrt(2) for v in x0]
        lam = mp.lu_solve(_jacobian(pairs, facets, x), -mp.matrix(_objective_gradient(kind, e, x)))
        return x, list(lam)

    def equations(*z):
        x, lam = z[:3], z[3:]
        g = mp.matrix(_objective_gradient(kind, e, x)) + _jacobian(pairs, facets, x) * mp.matrix(lam)
        return list(g) + [_cylinder(p, x) for p in pairs] + [_weights(x)[k] for k in facets]

    jac = _jacobian(pairs, facets, x0)
    lam0 = mp.lu_solve(jac.T * jac, -(jac.T * mp.matrix(_objective_gradient(kind, e, x0))))
    z = list(mp.findroot(equations, x0 + list(lam0)))
    return z[:3], z[3:]


def oracle_inputs():
    """Seeded Dirichlet(0.5) nonlocal inputs, two inputs whose closest local
    states are the vertex, one of them on the Werner line, and inputs with
    zero Bell weights, whose optimum can lie on a facet: the nonlocal
    symmetry classes of the grid-11 nodes of the facet e4 = 0 (as bd_grid
    solves them) and the nonlocal points of the two-Bell sweep at n = 21."""
    rng = np.random.default_rng(10)
    inputs = []
    while len(inputs) < 30:
        a = bd_probs_to_corr(rng.dirichlet(np.full(4, 0.5)))
        if max_pair_sum(a) > 1.0 + 1e-3:
            inputs.append(a)
    inputs += [(-0.8, -0.8, -0.8), (0.85, 0.85, -0.85)]
    n = 11
    classes = {tuple(sorted((i, j, n - i - j))) for i in range(n + 1) for j in range(n + 1 - i)}
    inputs += [bd_probs_to_corr([k / n for k in key] + [0.0]) for key in sorted(classes)]
    inputs += [two_bell_mix_corr(p) for p in np.linspace(0.5, 1.0, 21)]
    return [a for a in inputs if not bd_is_chsh_local(a)]


def test_values_are_the_kkt_optimum():
    n_active, n_facets = set(), 0
    for a, kind in itertools.product(oracle_inputs(), OBJECTIVE_KINDS):
        res = bd_measure_numeric(kind, a)
        assert res.converged and res.surface, (kind, a)
        with mp.workdps(40):
            e = [mp.mpf(v) for v in bd_corr_to_probs(a)]
            active = _named_pairs(res.surface)
            facets = [k for k, wk in enumerate(res.closest_local.e) if wk == 0.0]
            x, multipliers = kkt_point(kind, e, res.closest_local.a, active, facets)
            # the certificate: dual feasibility, and primal feasibility with
            # every other facet of the tetrahedron and cylinder inactive
            assert min(multipliers) > 0, (kind, a, res.surface, facets, multipliers)
            assert all(wk > 0 for k, wk in enumerate(_weights(x)) if k not in facets), (kind, a)
            assert all(_cylinder(p, x) < 0 for p in PAIRS if p not in active), (kind, a)
            error = res.value - _objective(kind, e, x)
        assert abs(error) <= 1e-15, (kind, a, res.surface, float(error))
        n_active.add(len(active))
        n_facets += len(facets)
    # single disks, arcs of two, the vertex and facets all occur
    assert n_active == {1, 2, 3} and n_facets > 0
