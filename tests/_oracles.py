"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own solver internals: the subset
oracle enumerates the closed-set characterization directly, and the LP
oracle gets its flow values from scipy's linear programming, so a bug in
the production max-flow or breakpoint search cannot hide in both routes.
The MGP lower-bound oracle shares that max-flow on purpose: it rebuilds
the union metric over the atoms of both laws, so it checks how the cross
matrix reaches the solver, not the solver.  The MGP upper-bound oracle
shares the candidate gluings and the full Prohorov solver, so it checks
only how `mgp_upper` prunes candidates against its incumbent.  The MGP
bounds oracle runs `mgp_upper` once per strategy and solves the winner
again, so it checks how `mgp_bounds` merges the strategies into one pass
and where it takes the coupling from.  The exact-law oracle shares only
the grouping key (`round_sig`), which defines the atoms.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from mmmspace import (
    FinitePointMeasure, GluedSpace, MgpResult, correspondence_cross, mark_marginal, mgp_lower,
    mgp_upper, pair_distance_law, prohorov_exact,
)
from mmmspace.dmat import round_sig
from mmmspace.mgp import STRATEGIES, _all_pairs_cross, _candidate_pair_sets


def _min_eps_for_subset(pa, dist_to_A, q_probs):
    """min{eps >= 0 : pa <= q(closed eps-thickening of A) + eps}."""
    ts = sorted({0.0, *dist_to_A})
    best = math.inf
    for k, t in enumerate(ts):
        qmass = math.fsum(
            q_probs[j] for j in range(len(q_probs)) if dist_to_A[j] <= t
        )
        cand = max(t, pa - qmass)
        if k + 1 == len(ts) or cand < ts[k + 1]:
            best = min(best, cand)
    return best


def prohorov_subset_oracle(metric, p_atoms, p_probs, q_atoms, q_probs):
    """Prohorov distance as the worst closed set: max over subsets A of the
    p-support of the smallest eps with p(A) <= q(A^eps) + eps."""
    kp = len(p_atoms)
    best = 0.0
    for mask in range(1, 1 << kp):
        chosen = [p_atoms[i] for i in range(kp) if mask >> i & 1]
        pa = math.fsum(p_probs[i] for i in range(kp) if mask >> i & 1)
        dist_to_A = [
            min(metric[qa, a] for a in chosen) for qa in q_atoms
        ]
        best = max(best, _min_eps_for_subset(pa, dist_to_A, q_probs))
    return best


def _lp_max_flow(d, wp, wq, eps):
    """Maximum coupled mass over pairs with d <= eps, by linear programming."""
    kp, kq = d.shape
    adm = [(i, j) for i in range(kp) for j in range(kq) if d[i, j] <= eps]
    if not adm:
        return 0.0
    nvar = len(adm)
    a_ub = np.zeros((kp + kq, nvar))
    for col, (i, j) in enumerate(adm):
        a_ub[i, col] = 1.0
        a_ub[kp + j, col] = 1.0
    b_ub = np.concatenate([wp, wq])
    res = linprog(-np.ones(nvar), A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


def prohorov_lp_scan_oracle(metric, p_atoms, p_probs, q_atoms, q_probs):
    """Prohorov distance by scanning every breakpoint with an LP max-flow."""
    d = metric[np.ix_(p_atoms, q_atoms)]
    ts = np.unique(np.concatenate([[0.0], d.ravel()]))
    best = math.inf
    for k, t in enumerate(ts):
        g = 1.0 - _lp_max_flow(d, np.asarray(p_probs), np.asarray(q_probs), t)
        cand = max(float(t), g)
        if k + 1 == len(ts) or cand < ts[k + 1]:
            best = min(best, cand)
    return best


def mark_distance(mark_space, u, v):
    """The mark metric of one pair: 0/1 on labels, np.linalg.norm on vectors."""
    if mark_space.kind == "discrete":
        return 0.0 if u == v else 1.0
    return float(np.linalg.norm(np.subtract(u, v, dtype=float)))


def _union_prohorov(values_a, probs_a, values_b, probs_b, metric_fn):
    """prohorov_exact on the K x K metric over the union of both atom lists."""
    atoms = list(values_a) + [v for v in values_b if v not in values_a]
    metric = np.array([[metric_fn(x, y) for y in atoms] for x in atoms])
    p = FinitePointMeasure(atoms=[atoms.index(v) for v in values_a], probs=probs_a)
    q = FinitePointMeasure(atoms=[atoms.index(v) for v in values_b], probs=probs_b)
    return prohorov_exact(metric, p, q)[0]


def mgp_lower_union_oracle(a, b):
    """The order-1 and order-2 bounds of `mgp_lower` by the union-metric route."""
    ma, mb = mark_marginal(a), mark_marginal(b)
    first = _union_prohorov(list(ma), list(ma.values()), list(mb), list(mb.values()),
                            lambda u, v: mark_distance(a.mark_space, u, v))
    (va, pa), (vb, pb) = pair_distance_law(a), pair_distance_law(b)
    second = 0.5 * _union_prohorov(va.tolist(), pa, vb.tolist(), pb,
                                   lambda x, y: abs(x - y))
    return first, second


def mgp_upper_full_oracle(a, b, strategy, budget=16, seed=0):
    """`mgp_upper` as a plain loop that evaluates every candidate in full and
    keeps the first strict minimum: (value, witness cross)."""
    crosses = [correspondence_cross(a, b, pairs)[0]
               for pairs in _candidate_pair_sets(a, b, strategy, budget, seed) if pairs]
    best = None
    for c in crosses + [_all_pairs_cross(a, b)]:
        v, _ = GluedSpace(left=a, right=b, cross=c).prohorov()
        if best is None or v < best[0]:
            best = (v, c)
    return best


def mgp_bounds_per_strategy_oracle(a, b, budget=16, seed=0):
    """`mgp_bounds` as one `mgp_upper` call per strategy, keeping the first
    strict minimum, then a fresh Prohorov solve of the winner for its
    coupling."""
    lower = mgp_lower(a, b)
    best, witness = math.inf, None
    for strategy in STRATEGIES:
        v, c = mgp_upper(a, b, strategy=strategy, budget=budget, seed=seed)
        if v < best:
            best, witness = v, c
    _, coupling = GluedSpace(left=a, right=b, cross=witness).prohorov()
    return MgpResult(lower=lower, upper=float(best), witness_cross=witness,
                     witness_coupling=coupling)


def exact_law_oracle(space, n):
    """`exact_law` as a plain loop over all N^n index tuples with Fraction
    weights: [(key, first tuple, probability)] in the documented atom order
    (sorted by repr of the key)."""
    w = [Fraction(float(x)) for x in space.weights]
    norm = sum(w, Fraction(0)) ** n
    atoms: dict = {}
    for t in itertools.product(range(space.n), repeat=n):
        tri = tuple(float(round_sig(space.distances[t[i], t[j]]))
                    for i in range(n) for j in range(i + 1, n))
        key = (tri, tuple(space.marks[i] for i in t))
        first, mass = atoms.get(key, (t, Fraction(0)))
        atoms[key] = (first, mass + math.prod(w[i] for i in t))
    ordered = sorted(atoms.items(), key=lambda item: repr(item[0]))
    return [(key, first, mass / norm) for key, (first, mass) in ordered]
