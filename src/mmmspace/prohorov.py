"""Exact Prohorov distance between finite point measures.

For measures p, q on a shared finite metric space the distance is

    min { eps >= 0 : some coupling pi puts mass <= eps on pairs with
                     d(i, j) > eps }.

For fixed eps the smallest excluded mass g(eps) is 1 minus the largest
mass routable through pairs with d <= eps, a bipartite transportation
feasibility problem solved by maximum flow on integer capacities
(probabilities scaled by 10^12 and rounded; error at most 2e-12 per
constraint).  g is a nonincreasing right-continuous step function with
breakpoints at the distinct cross distances, so the answer is
max(t_k, g(t_k)) on the first breakpoint interval that contains its own
candidate; that first interval is found by binary search because
g(t_k) - t_{k+1} is strictly decreasing.

Two flow oracles compute the routable mass.  `_max_flow_mass` is Dinic's
algorithm and serves every admissible pattern; `_line_flow_mass` is a
greedy pass for patterns whose rows are intervals with nondecreasing
ends, as for two laws on the real line with sorted atoms.  Both return
the same integer flow.  A caller that only needs to know whether the
distance lies below a bound asks `_prohorov_below`, which runs one flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MarginalError, TooLargeError

__all__ = ["FinitePointMeasure", "prohorov_exact", "strassen_check"]

FLOW_SCALE = 10 ** 12
MARGINAL_TOL = 1e-10
STRASSEN_BOUND = 20


@dataclass(frozen=True)
class FinitePointMeasure:
    """Atoms (indices into a shared metric) with probabilities."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=int)
        probs = np.asarray(self.probs, dtype=float)
        if atoms.shape != probs.shape or atoms.ndim != 1:
            raise MarginalError("atoms and probs must be equal-length vectors")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    def check(self):
        if len(self.atoms) == 0:
            raise MarginalError("measure needs at least one atom")
        if not np.all(np.isfinite(self.probs)):
            raise MarginalError("non-finite probability")
        if self.probs.min() < 0:
            raise MarginalError("negative probability")
        if abs(math.fsum(self.probs.tolist()) - 1.0) > MARGINAL_TOL:
            raise MarginalError(
                f"probabilities sum to {math.fsum(self.probs.tolist())!r}, not 1"
            )


def _max_flow_mass(cp, cq, admissible: np.ndarray):
    """Max mass routable p -> q along admissible pairs, integer capacities.

    Dinic's algorithm on Python integers: capacities are exact, nothing
    can overflow.  Node layout: 0 = source, 1..np = p atoms,
    np+1..np+nq = q atoms, last = sink.

    Returns (flow mass as int, flow matrix in integer units).
    """
    np_, nq = admissible.shape
    src, snk = 0, np_ + nq + 1
    nodes = snk + 1
    head: list[list[int]] = [[] for _ in range(nodes)]
    to: list[int] = []
    cap: list[int] = []

    def add_edge(u: int, v: int, c: int):
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
    INF = float("inf")
    while True:
        level = [-1] * nodes
        level[src] = 0
        queue = [src]
        for u in queue:
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[snk] < 0:
            break
        it = [0] * nodes

        def dfs(u: int, pushed):
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
            pushed = dfs(src, INF)
            if pushed == 0:
                break
            total += pushed

    # p->q edge k is edge 2 (np_ + k), after the np_ source edges; the
    # reverse capacity of each, at the odd index after it, is its flow
    flow = np.zeros((np_, nq))
    flow[ai, aj] = cap[2 * np_ + 1: 2 * (np_ + len(ai)): 2]
    return total, flow


def _line_flow_mass(cp, cq, admissible: np.ndarray):
    """`_max_flow_mass` for admissible patterns whose rows are intervals.

    Requires every nonempty row i to be one run of columns [s_i, e_i] with
    s_i and e_i nondecreasing in i; rows with no admissible column may sit
    anywhere.  Two laws on the real line with increasing atoms va, vb have
    this pattern under abs(va[i] - vb[j]) <= t, since the rounded
    difference is monotone in each argument.

    Greedy: rows in order, each filling its columns left to right.  A
    column j is usable by exactly the later rows with s_i' <= j, a set
    that grows with j, so filling left columns first keeps for later rows
    a residual that dominates any other choice, and columns left of the
    current row's start are useless to every later row.  The flow is
    therefore maximal, and as an integer it equals Dinic's.

    Returns (flow mass as int, flow matrix in integer units); the matrix
    may differ from Dinic's, the mass does not.
    """
    width = admissible.sum(axis=1)
    rows = np.flatnonzero(width)
    first = admissible.argmax(axis=1)[rows]
    last = first + width[rows] - 1
    room = cq.tolist()
    moves: list[tuple[int, int, int]] = []
    j = 0
    for i, supply, start, end in zip(rows.tolist(), cp[rows].tolist(),
                                     first.tolist(), last.tolist()):
        j = max(j, start)
        while supply > 0 and j <= end:
            move = min(supply, room[j])
            moves.append((i, j, move))
            supply -= move
            room[j] -= move
            if room[j] == 0:
                j += 1
    flow = np.zeros(admissible.shape)
    if moves:
        mi, mj, mv = zip(*moves)
        flow[mi, mj] = mv
    return sum(m[2] for m in moves), flow


def _flow_problem(dpq: np.ndarray, wp: np.ndarray, wq: np.ndarray):
    """Integer masses and the breakpoints t_0 < t_1 < ... of g."""
    cp = np.rint(wp * FLOW_SCALE).astype(np.int64)
    cq = np.rint(wq * FLOW_SCALE).astype(np.int64)
    ts = np.unique(dpq)
    if len(ts) == 0 or ts[0] > 0.0:
        ts = np.concatenate([[0.0], ts])
    return cp, cq, ts


def _excluded_mass(flow_value: int) -> float:
    return max(0.0, 1.0 - flow_value / FLOW_SCALE)


def _prohorov_below(dpq: np.ndarray, wp: np.ndarray, wq: np.ndarray, bound: float) -> bool:
    """Whether ``_prohorov_cross(dpq, wp, wq)[0] < bound``, by one max-flow.

    With f_k = max(t_k, g(t_k)) on the breakpoints of `_flow_problem`, the
    value is f at the first k with g(t_k) < t_{k+1} (or the last k).  For
    earlier k, f_k = g(t_k) >= f_{k+1}; for later k, f_k >= t_k, which
    exceeds both t and g at that first k.  So the value is min_k f_k, in
    the same floats.  The computed g is nonincreasing in k (the routable
    integer mass only grows with t), hence value < bound exactly when
    g(t_K) < bound for the largest breakpoint t_K < bound; without such a
    breakpoint the answer is no.  Since g <= 1, a bound above 1 needs no
    flow.
    """
    cp, cq, ts = _flow_problem(dpq, wp, wq)
    k = int(np.searchsorted(ts, bound, side="left")) - 1
    if k < 0:
        return False
    if bound > 1.0:
        return True
    fv, _ = _max_flow_mass(cp, cq, dpq <= ts[k])
    return _excluded_mass(fv) < bound


def _prohorov_cross(dpq: np.ndarray, wp: np.ndarray, wq: np.ndarray, flow=_max_flow_mass):
    """Core solver on the cross-distance matrix alone.

    ``flow`` is the max-flow oracle: `_max_flow_mass`, or `_line_flow_mass`
    when every admissible pattern ``dpq <= t`` has its shape.

    Returns (value, coupling) where the coupling rows index p's atoms and
    columns q's atoms, marginals within 1e-10.
    """
    cp, cq, ts = _flow_problem(dpq, wp, wq)

    def solve(k: int):
        fv, fm = flow(cp, cq, dpq <= ts[k])
        return _excluded_mass(fv), fm

    # keep only the flow at the current hi, so that at most two flow
    # matrices are alive at once
    lo, hi = 0, len(ts) - 1
    at_hi = None
    while lo < hi:
        mid = (lo + hi) // 2
        got = solve(mid)
        if got[0] < ts[mid + 1]:  # candidate of interval mid lies inside it
            hi, at_hi = mid, got
        else:
            lo = mid + 1
    g, fm = at_hi if at_hi is not None else solve(lo)  # else lo is the last interval
    value = max(float(ts[lo]), g)

    pi = fm.astype(float) / FLOW_SCALE
    res_p = np.maximum(wp - pi.sum(axis=1), 0.0)
    res_q = np.maximum(wq - pi.sum(axis=0), 0.0)
    rho = res_p.sum()
    if rho > 0 and res_q.sum() > 0:
        pi = pi + np.outer(res_p, res_q) / max(rho, res_q.sum())
    return value, pi


def _checked_cross(metric, p: FinitePointMeasure, q: FinitePointMeasure) -> np.ndarray:
    """``metric[p.atoms, q.atoms]`` after checking both measures; an atom
    index outside [0, len(metric)) raises MarginalError."""
    metric = np.asarray(metric, dtype=float)
    for m in (p, q):
        m.check()
        bad = m.atoms[(m.atoms < 0) | (m.atoms >= len(metric))]
        if bad.size:
            raise MarginalError(
                f"atom index {bad[0]} is outside the {len(metric)}-point metric"
            )
    return metric[np.ix_(p.atoms, q.atoms)]


def prohorov_exact(metric: np.ndarray, p: FinitePointMeasure, q: FinitePointMeasure):
    """Exact Prohorov distance and a witness coupling.

    Parameters
    ----------
    metric : (M, M) array
        Pseudo-metric over the shared index space of both atom sets.
    p, q : FinitePointMeasure
        Atoms must lie in [0, M) and probabilities sum to 1 within 1e-10
        (MarginalError otherwise).

    Returns
    -------
    (value, coupling) : float and (len(p), len(q)) array
        The coupling attains the optimum: mass beyond ``value`` is at most
        ``value`` and the marginals match p and q within 1e-10.
    """
    return _prohorov_cross(_checked_cross(metric, p, q), p.probs, q.probs)


def strassen_check(
    metric: np.ndarray, p: FinitePointMeasure, q: FinitePointMeasure, eps: float
) -> bool:
    """Check p(A) <= q(A^eps) + eps for every subset A of p's support.

    A^eps is the closed thickening {x : d(x, A) <= eps}.  By duality this
    holds for all A exactly when some coupling puts mass <= eps beyond
    distance eps, so it must agree with ``prohorov_exact`` at the returned
    value.  Exponential in the support size; refuses more than 20 atoms.
    """
    dpq = _checked_cross(metric, p, q)
    kp, kq = dpq.shape
    if max(kp, kq) > STRASSEN_BOUND:
        raise TooLargeError(
            f"subset enumeration is limited to {STRASSEN_BOUND} support atoms"
        )
    thick_bits = np.zeros(kp, dtype=np.int64)
    for i in range(kp):
        bits = 0
        for j in range(kq):
            if dpq[i, j] <= eps:
                bits |= 1 << j
        thick_bits[i] = bits

    qmass = np.zeros(1 << kq)
    for s in range(1, 1 << kq):
        low = s & (-s)
        qmass[s] = qmass[s ^ low] + q.probs[low.bit_length() - 1]

    pa = 0.0
    pmass = np.zeros(1 << kp)
    thick = np.zeros(1 << kp, dtype=np.int64)
    for s in range(1, 1 << kp):
        low = s & (-s)
        i = low.bit_length() - 1
        pmass[s] = pmass[s ^ low] + p.probs[i]
        thick[s] = thick[s ^ low] | thick_bits[i]
        if pmass[s] > qmass[thick[s]] + eps:
            return False
    return True
