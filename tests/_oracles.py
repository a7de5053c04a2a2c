"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own solver internals: the subset
oracle enumerates the closed-set characterization directly, and the LP
oracle gets its flow values from scipy's linear programming, so a bug in
the production max-flow or breakpoint search cannot hide in both routes.
The MGP lower-bound oracle shares that max-flow on purpose: it rebuilds
the union metric over the atoms of both laws, so it checks how the cross
matrix reaches the solver, not the solver.  The MGP upper-bound oracle
shares the candidate gluings and the full Prohorov solver, so it checks
only how `mgp_upper` skips repeated pair sets and prunes candidates
against its incumbent.  The exact-law oracle shares only
the grouping key (`round_sig`), which defines the atoms.  The relation
oracle enumerates every relation between equal-mark points and gets each
one's excluded mass from the LP max-flow, so it shares nothing with
`mgp_exact`'s level scan, cliques or Dinic flows.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from mmmspace import (
    FinitePointMeasure, GluedSpace, correspondence_cross, mark_marginal, pair_distance_law,
    prohorov_exact,
)
from mmmspace.dmat import round_sig
from mmmspace.mgp import _all_pairs_cross, _candidate_pairs


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


def mgp_upper_full_oracle(a, b):
    """`mgp_upper` as a plain loop that evaluates every candidate in full,
    repeated pair sets included, and keeps the first strict minimum:
    (value, witness cross)."""
    crosses = [correspondence_cross(a, b, pairs)[0]
               for pairs in _candidate_pairs(a, b) if pairs]
    best = None
    for c in crosses + [_all_pairs_cross(a, b)]:
        v, _ = GluedSpace(left=a, right=b, cross=c).prohorov()
        if best is None or v < best[0]:
            best = (v, c)
    return best


def prune_chain_oracle(a, b, pairs):
    """`mgp._pruned` as a plain loop: each step ranks the remaining pairs by
    the largest, then the summed distortion against the others, earlier
    position first on ties, drops the first ceil(k/10) of k and records
    what is left."""
    chain, rel = [], list(pairs)
    while len(rel) > 1:
        rows = [[abs(a.distances[i, k] - b.distances[j, l]) for k, l in rel] for i, j in rel]
        rank = sorted(range(len(rel)), key=lambda p: (-max(rows[p]), -math.fsum(rows[p]), p))
        drop = set(rank[:math.ceil(len(rel) / 10)])
        rel = [pair for p, pair in enumerate(rel) if p not in drop]
        chain.append(rel)
    return chain


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


def mgp_relation_oracle(a, b):
    """The marked Gromov-Prohorov distance of two discrete-marked metric
    spaces as min(1, min over every nonempty set S of equal-mark pairs of
    max(dis(S) / 2, g(S))): dis(S) the distortion of S as a relation, g(S)
    one minus the LP max-flow with only S admissible."""
    z = [(i, j) for i in range(a.n) for j in range(b.n)
         if mark_distance(a.mark_space, a.marks[i], b.marks[j]) == 0.0]
    wp, wq = np.asarray(a.weights), np.asarray(b.weights)
    best = 1.0
    for mask in range(1, 1 << len(z)):
        s = [z[k] for k in range(len(z)) if mask >> k & 1]
        dis = max(abs(a.distances[i, k] - b.distances[j, l]) for i, j in s for k, l in s)
        cost = np.ones((a.n, b.n))
        for i, j in s:
            cost[i, j] = 0.0
        best = min(best, max(dis / 2.0, 1.0 - _lp_max_flow(cost, wp, wq, 0.0)))
    return best


def canonical_order_oracle(space):
    """`stats._canonical_order` as plain-Python colour refinement: one sorted
    tuple of (distance, colour) pairs per atom per round, ranked by sorting
    the distinct keys."""
    n = space.n
    d = space.distances
    keys = [(repr(space.marks[i]), float(space.weights[i])) for i in range(n)]
    groups = len(set(keys))
    for _ in range(n):
        rank = {k: t for t, k in enumerate(sorted(set(keys)))}
        keys = [
            (
                rank[keys[i]],
                tuple(
                    sorted((float(d[i, j]), rank[keys[j]]) for j in range(n) if j != i)
                ),
            )
            for i in range(n)
        ]
        new_groups = len(set(keys))
        if new_groups == groups:
            break
        groups = new_groups
    return sorted(range(n), key=lambda i: (keys[i], i))


def triangle_violations_oracle(d, tol=1e-12):
    """`validate`'s triangle violations from the full n^3 excess tensor:
    (kind, (i, j, k), excess, message) for i < k, j outside {i, k}, in C
    order."""
    n = len(d)
    excess = d[:, None, :] - d[:, :, None] - d[None, :, :]
    i, j, k = np.indices((n, n, n))
    hit = (excess > tol * np.maximum(1.0, d)[:, None, :]) & (i < k) & (j != i) & (j != k)
    return [("triangle", (a, b, c), float(excess[a, b, c]),
             f"triangle violation ({a},{b},{c}), excess {excess[a, b, c]:g}")
            for a, b, c in np.argwhere(hit).tolist()]
