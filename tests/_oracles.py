"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own solver internals: the subset
oracle enumerates the closed-set characterization directly, and the LP
oracle gets its flow values from scipy's linear programming, so a bug in
the production max-flow or breakpoint search cannot hide in both routes.
The edge-list max-flow oracle is Dinic's algorithm on an explicit graph
with a recursive augmenting search, the route the bitmask kernel
`prohorov._max_flow_mass` replaced; it shares nothing with that kernel.
The MGP lower-bound oracle shares that max-flow on purpose: it rebuilds
the union metric over the atoms of both laws, so it checks how the cross
matrix reaches the solver, not the solver.  The MGP fallback oracle
shares the greedy coupling support and the full Prohorov solver, so it
checks only how `mgp_bounds` skips repeated pair sets and prunes
candidates against its incumbent.  The exact-law oracle shares only
the grouping key (`round_sig`), which defines the atoms.  The relation
oracle enumerates every relation between pairs of mark distance below 1
and gets each one's excluded mass from the LP max-flow, and the level
oracle solves one mixed-integer program per level, so neither shares
anything with `mgp_exact`'s level scan, cliques or Dinic flows.  The
triangle oracles build the full n^3 excess tensor, with no min-plus pass
and no blocks.  The canonicalization oracle visits every pair of kept
points in a Python double loop, and the empirical-space oracle resamples
the full n x n matrix of the draws and canonicalizes it with that loop;
it shares only the draw (`core._sample_indices`).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from mmmspace import (
    FiniteMmmSpace, FinitePointMeasure, GluedSpace, correspondence_cross, mark_marginal, pair_distance_law,
    prohorov_exact,
)
import mmmspace.core
from mmmspace.core import _sample_indices
from mmmspace.dmat import round_sig
from mmmspace.mgp import _greedy_coupling_pairs, _profile_cost
from mmmspace.prohorov import FLOW_SCALE


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


def max_flow_mass_oracle(cp, cq, admissible):
    """Max integer mass routable p -> q along the True pairs of the dense
    matrix ``admissible``: Dinic's algorithm on explicit edge lists.

    Node layout: 0 = source, 1..np = p atoms, np+1..np+nq = q atoms, last =
    sink; capacities are Python ints.  Returns (mass, sparse flow): a
    (row, col, amount) triple for each pair that carries some, in row-major
    order.
    """
    np_, nq = admissible.shape
    src, snk = 0, np_ + nq + 1
    nodes = snk + 1
    head = [[] for _ in range(nodes)]
    to, cap = [], []

    def add_edge(u, v, c):
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)

    for i in range(np_):
        add_edge(src, 1 + i, int(cp[i]))
    ai, aj = np.nonzero(admissible)
    for i, j in zip(ai.tolist(), aj.tolist()):
        add_edge(1 + i, 1 + np_ + j, FLOW_SCALE)
    for j in range(nq):
        add_edge(1 + np_ + j, snk, int(cq[j]))

    total = 0
    while True:
        level = [-1] * nodes
        level[src] = 0
        queue = [src]
        for u in queue:
            for e in head[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[snk] < 0:
            break
        it = [0] * nodes

        def dfs(u, pushed):
            if u == snk:
                return pushed
            while it[u] < len(head[u]):
                e = head[u][it[u]]
                v = to[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, cap[e]))
                    if got > 0:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            pushed = dfs(src, math.inf)
            if pushed == 0:
                break
            total += pushed

    # p->q edge k is edge 2 (np_ + k), after the np_ source edges; the
    # reverse capacity of each, at the odd index after it, is its flow
    amounts = np.array(cap[2 * np_ + 1: 2 * (np_ + len(ai)): 2], dtype=np.int64)
    used = amounts > 0
    return total, list(zip(ai[used].tolist(), aj[used].tolist(),
                           amounts[used].tolist()))


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


def mgp_fallback_oracle(a, b):
    """The fallback of `mgp_bounds` as a plain loop: the greedy coupling
    support, then its prune chain (`prune_chain_oracle`), each evaluated
    in full, repeated pair sets included, keeping the first strict
    minimum: (value, witness cross)."""
    support = _greedy_coupling_pairs(_profile_cost(a, b), a.weights, b.weights)
    best = None
    for pairs in [support] + prune_chain_oracle(a, b, support):
        c = correspondence_cross(a, b, pairs)[0]
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
    (key order: the rounded distances as numbers, then the marks by repr)."""
    w = [Fraction(float(x)) for x in space.weights]
    norm = sum(w, Fraction(0)) ** n
    atoms: dict = {}
    for t in itertools.product(range(space.n), repeat=n):
        tri = tuple(float(round_sig(space.distances[t[i], t[j]]))
                    for i in range(n) for j in range(i + 1, n))
        key = (tri, tuple(space.marks[i] for i in t))
        first, mass = atoms.get(key, (t, Fraction(0)))
        atoms[key] = (first, mass + math.prod(w[i] for i in t))
    ordered = sorted(atoms.items(), key=lambda item: (item[0][0], tuple(map(repr, item[0][1]))))
    return [(key, first, mass / norm) for key, (first, mass) in ordered]


def _candidates_and_levels(a, b):
    """The pairs (i, j) of mark distance below 1, their mark distances, and
    the level of every two of them, max((|r1(i, k) - r2(j, l)| + m_ij +
    m_kl) / 2, m_ij, m_kl), as plain loops."""
    z = [(i, j) for i in range(a.n) for j in range(b.n)
         if mark_distance(a.mark_space, a.marks[i], b.marks[j]) < 1.0]
    m = [mark_distance(a.mark_space, a.marks[i], b.marks[j]) for i, j in z]
    level = [[max((abs(a.distances[i, k] - b.distances[j, l]) + m[u] + m[v]) / 2.0, m[u], m[v])
              for v, (k, l) in enumerate(z)] for u, (i, j) in enumerate(z)]
    return z, level


def mgp_relation_oracle(a, b):
    """The marked Gromov-Prohorov distance as min(1, min over every
    nonempty set S of pairs of mark distance below 1 of max(L(S), g(S))):
    L(S) the largest level of two pairs of S, g(S) one minus the LP
    max-flow with only S admissible.  A set whose level is not below the
    best value so far needs no flow."""
    z, level = _candidates_and_levels(a, b)
    wp, wq = np.asarray(a.weights), np.asarray(b.weights)
    best = 1.0
    for mask in range(1, 1 << len(z)):
        s = [k for k in range(len(z)) if mask >> k & 1]
        top = max(level[u][v] for u in s for v in s)
        if top >= best:
            continue
        cost = np.ones((a.n, b.n))
        for u in s:
            cost[z[u]] = 0.0
        best = min(best, max(top, 1.0 - _lp_max_flow(cost, wp, wq, 0.0)))
    return best


def _clique_flow(z, level, t, wp, wq):
    """Largest mass a max-flow routes over some set S of pairs whose
    levels are all at most t, by one mixed-integer program: x_u in {0, 1}
    picks S, f_u <= x_u is the flow on pair u.  The gap tolerance is 0 for
    an exact optimum, and HiGHS's presolve is off because it reported a
    solve error on a 5- against 7-leaf tree pair."""
    keep = [u for u in range(len(z)) if level[u][u] <= t]
    if not keep:
        return 0.0
    k = len(keep)
    rows = []
    for idx, cap in ((0, wp), (1, wq)):
        for r in range(len(cap)):
            row = np.zeros(2 * k)
            row[k:] = [float(z[u][idx] == r) for u in keep]
            rows.append((row, cap[r]))
    for n in range(k):
        row = np.zeros(2 * k)
        row[n], row[k + n] = -1.0, 1.0
        rows.append((row, 0.0))
    for n, u in enumerate(keep):
        for n2 in range(n + 1, k):
            if level[u][keep[n2]] > t:
                row = np.zeros(2 * k)
                row[n] = row[n2] = 1.0
                rows.append((row, 1.0))
    matrix = np.array([r for r, _ in rows])
    upper = np.array([c for _, c in rows])
    res = milp(np.r_[np.zeros(k), -np.ones(k)], options={"mip_rel_gap": 0.0, "presolve": False},
               constraints=LinearConstraint(matrix, -np.inf, upper),
               integrality=np.r_[np.ones(k), np.zeros(k)], bounds=Bounds(0.0, 1.0))
    assert res.status == 0, res.message
    return -res.fun


def mgp_level_oracle(a, b):
    """The marked Gromov-Prohorov distance as min over levels t of max(t,
    G(t)), with G(t) = 1 - `_clique_flow` the least excluded mass of a
    relation within level t, capped at 1.  G falls as t grows, so the
    minimum sits at the first t whose G(t) is below the next level, found
    by binary search over the distinct levels."""
    z, level = _candidates_and_levels(a, b)
    ts = sorted({v for row in level for v in row})
    if not ts:
        return 1.0
    wp, wq = np.asarray(a.weights), np.asarray(b.weights)
    lo, hi = 0, len(ts) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if 1.0 - _clique_flow(z, level, ts[mid], wp, wq) < ts[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    return min(1.0, max(ts[lo], 1.0 - _clique_flow(z, level, ts[lo], wp, wq)))


def canonical_order_oracle(space):
    """The atoms in the colour order of `core._refine` from
    `core._initial_colour`, by plain-Python colour refinement: one sorted
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


def equivalent_oracle(a, b):
    """`is_equivalent_exact` by brute force: whether one of all n!
    permutations p of canonicalize(b) gives canonicalize(a)'s marks, and
    its weights and distances as floats (so -0.0 equals 0.0)."""
    a, b = mmmspace.core.canonicalize(a), mmmspace.core.canonicalize(b)
    if a.n != b.n or a.mark_space != b.mark_space:
        return False
    perms = np.array(list(itertools.permutations(range(a.n))), dtype=int).reshape(-1, a.n)
    same = (np.all(b.distances[perms[:, :, None], perms[:, None, :]] == a.distances, axis=(1, 2))
            & np.all(b.weights[perms] == a.weights, axis=1))
    return any(tuple(b.marks[i] for i in p) == a.marks for p in perms[same].tolist())


def triangle_violations_oracle(d, tol=1e-12):
    """`validate`'s triangle violations from the full n^3 excess tensor:
    (kind, (i, j, k), excess, message) for i < k, j outside {i, k}, in C
    order, with excess d(i, k) - (d(i, j) + d(j, k))."""
    n = len(d)
    excess = d[:, None, :] - (d[:, :, None] + d[None, :, :])
    i, j, k = np.indices((n, n, n))
    hit = (excess > tol * np.maximum(1.0, d)[:, None, :]) & (i < k) & (j != i) & (j != k)
    return [("triangle", (a, b, c), float(excess[a, b, c]),
             f"triangle violation ({a},{b},{c}), excess {excess[a, b, c]:g}")
            for a, b, c in np.argwhere(hit).tolist()]


def triangle_rows_oracle(d, limit):
    """The rows i whose full n^3 tensor of d(i, k) - (d(i, j) + d(j, k)) has
    an entry above ``limit`` (a number, or one per pair (i, k)), over every
    j and k: (all such rows, the rows with such an entry at some k > i)."""
    excess = d[:, None, :] - (d[:, :, None] + d[None, :, :])
    hit = (excess > np.broadcast_to(limit, d.shape)[:, None, :]).any(axis=1)
    return np.flatnonzero(hit.any(axis=1)), np.flatnonzero(np.triu(hit, 1).any(axis=1))


def listed_rows(rows, what):
    """The rows of one kind that `validate` reports out of the full list
    ``rows`` (index order): all of them up to `core.VIOLATIONS_LISTED`; past
    that the first VIOLATIONS_LISTED, the first row of largest magnitude
    unless it is among them, and one row with no indices giving the total
    count, of magnitude min(0, the largest)."""
    cap = mmmspace.core.VIOLATIONS_LISTED
    if len(rows) <= cap:
        return list(rows)
    worst = max(rows, key=lambda r: r[2])
    return (rows[:cap] + ([] if worst in rows[:cap] else [worst])
            + [(worst[0], (), min(0.0, worst[2]),
                f"{len(rows)} {what}, the first {cap} and the largest listed")])


def listed_triangles(rows):
    """`listed_rows` of ``triangle`` rows."""
    return listed_rows(rows, "triples violate the triangle inequality")


def triangle_excess_oracle(m):
    """`glue`'s worst triple from the full n^3 excess tensor: (excess,
    (i, j, k)) at the first maximum of m(i, k) - (m(i, j) + m(j, k)) in C
    order over all triples (a NaN counts as the maximum, as in np.argmax),
    or (0.0, ()) for n < 3."""
    if len(m) < 3:
        return 0.0, ()
    excess = m[:, None, :] - (m[:, :, None] + m[None, :, :])
    flat = int(np.argmax(excess))
    return float(excess.flat[flat]), tuple(int(t) for t in np.unravel_index(flat, excess.shape))


def canonicalize_oracle(space):
    """`core.canonicalize` as a double loop over the kept points: pairs at
    distance <= 0 with equal marks are joined in row-major order."""
    w = space.weights
    keep = [i for i in range(space.n) if w[i] > 0]
    parent = {i: i for i in keep}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d = space.distances
    for a in range(len(keep)):
        i = keep[a]
        for b in range(a + 1, len(keep)):
            j = keep[b]
            if d[i, j] <= 0.0 and space.marks[i] == space.marks[j]:
                parent[find(j)] = find(i)

    groups = {}
    for i in keep:
        groups.setdefault(find(i), []).append(i)
    reps = sorted(groups)
    return FiniteMmmSpace(
        distances=d[np.ix_(reps, reps)],
        marks=tuple(space.marks[r] for r in reps),
        weights=np.array([math.fsum(float(w[j]) for j in groups[r]) for r in reps]),
        mark_space=space.mark_space,
        label=space.label,
    )


def empirical_oracle(space, n, seed):
    """`core.empirical_from_samples` through the n x n matrix of the draws,
    weight 1/n on each draw, merged by `canonicalize_oracle`."""
    idx = _sample_indices(space, n, seed)
    base = space.label if space.label else "space"
    return canonicalize_oracle(
        FiniteMmmSpace(
            distances=space.distances[np.ix_(idx, idx)],
            marks=tuple(space.marks[i] for i in idx),
            weights=np.full(n, 1.0 / n),
            mark_space=space.mark_space,
            label=f"{base}-emp{n}-seed{seed}",
        )
    )
