"""Exact Prohorov distance between finite point measures.

For measures p, q on a shared finite metric space the distance is

    min { eps >= 0 : some coupling pi puts mass <= eps on pairs with
                     d(i, j) > eps }.

For fixed eps the smallest excluded mass g(eps) is 1 minus the largest
mass routable through pairs with d <= eps, a bipartite transportation
feasibility problem solved by maximum flow on integer capacities
(probabilities scaled by 10^12 and rounded by largest remainder, so each
side holds exactly 10^12 units; error at most 1e-12 per atom).  g is a
nonincreasing right-continuous step function with breakpoints at the
distinct cross distances, so the answer is
max(t_k, g(t_k)) on the first breakpoint interval that contains its own
candidate; that first interval is found by binary search because
g(t_k) - t_{k+1} is strictly decreasing.

Every value comes from one search, `_prohorov_search`, which also takes an
incumbent bound and returns None, after at most one flow, when the
distance is not below it.  Two flow oracles route the same integer mass
as a sparse flow: `_max_flow_mass` (Dinic's algorithm) serves every
admissible pattern, `_line_flow_mass` (a greedy pass) patterns whose rows
are intervals with nondecreasing ends, as for two laws on the real line
with sorted atoms.  `_coupling` builds a dense witness coupling from a
flow.

Before each Dinic flow the search tries a cut certificate: no row can
send more than its own mass or more than its admissible columns hold, and
likewise for columns, so min(sum_i min(p_i, q(N(i))), sum_j min(q_j,
p(N(j)))) bounds the routable mass from above, exactly in integers.  Its
excluded mass is a lower bound on g, and a probe whose answer that bound
already decides (g not below the incumbent, or g not below the next
breakpoint) runs no flow.  Those probes only ever discarded their flow,
so values and flows are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MarginalError, ParameterError, TooLargeError

__all__ = ["FinitePointMeasure", "prohorov_exact", "strassen_check"]

FLOW_SCALE = 10 ** 12
MARGINAL_TOL = 1e-10
STRASSEN_BOUND = 20


@dataclass(frozen=True)
class FinitePointMeasure:
    """Atoms (indices into a shared metric) with probabilities.  Atoms that
    are not whole numbers within int64 raise MarginalError."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms)
        if atoms.dtype.kind not in "iu" and not (
            atoms.dtype.kind == "f" and np.all((atoms == np.floor(atoms)) & (abs(atoms) < 2.0**63))
        ):
            raise MarginalError("atoms must be whole numbers within int64")
        atoms = atoms.astype(int)
        probs = np.asarray(self.probs, dtype=float)
        if atoms.shape != probs.shape or atoms.ndim != 1:
            raise MarginalError("atoms and probs must be equal-length vectors")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    def check(self):
        _check_probs(self.probs)


def _check_probs(probs: np.ndarray, owner: str = ""):
    """MarginalError, its message prefixed by ``owner``, unless ``probs`` is a
    nonempty finite nonnegative vector summing to 1 within MARGINAL_TOL."""
    if len(probs) == 0:
        raise MarginalError(f"{owner}measure needs at least one atom")
    if not np.all(np.isfinite(probs)):
        raise MarginalError(f"{owner}non-finite probability")
    if probs.min() < 0:
        raise MarginalError(f"{owner}negative probability")
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > MARGINAL_TOL:
        raise MarginalError(f"{owner}probabilities sum to {total!r}, not 1")


def _max_flow_mass(cp, cq, admissible: np.ndarray):
    """Max mass routable p -> q along admissible pairs, integer capacities.

    Dinic's algorithm on Python integers: capacities are exact, nothing
    can overflow.  Node layout: 0 = source, 1..np = p atoms,
    np+1..np+nq = q atoms, last = sink.

    Returns (flow mass as int, sparse flow (rows, cols, amounts) in
    integer units over the pairs that carry some).
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
    amounts = np.array(cap[2 * np_ + 1: 2 * (np_ + len(ai)): 2], dtype=np.int64)
    used = amounts > 0
    return total, (ai[used], aj[used], amounts[used])


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

    Returns (flow mass as int, sparse flow (rows, cols, amounts) in
    integer units); the flow may differ from Dinic's, the mass does not.
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
    rows, cols, amounts = np.array(moves, dtype=np.int64).reshape(-1, 3).T
    return int(amounts.sum()), (rows, cols, amounts)


def _cut_excluded_mass(cp, cq, admissible: np.ndarray) -> float:
    """A lower bound on the excluded mass ``1 - flow / FLOW_SCALE`` from a cut.

    Row i routes at most min(cp_i, cq(N(i))), where N(i) are its admissible
    columns, and column j at most min(cq_j, cp(N(j))), so the max-flow mass
    is at most the smaller of the two sums.  Both are exact int64 sums of
    0/1-matrix-vector products, and the map from mass to excluded mass is
    monotone in floats, so the bound never exceeds the flow's value.
    """
    rows = np.minimum(cp, admissible @ cq).sum()
    cols = np.minimum(cq, cp @ admissible).sum()
    return max(0.0, 1.0 - int(min(rows, cols)) / FLOW_SCALE)


def _integer_masses(w) -> np.ndarray:
    """Probabilities ``w`` in integer units of 1/FLOW_SCALE, summing to
    exactly FLOW_SCALE.

    Largest-remainder rounding of the quotas FLOW_SCALE * w_i / sum(w):
    every quota is rounded down, and the units still missing go one each
    to the largest fractional parts (ties to the lower index).  Each mass
    is within one unit of its quota, and a measure against itself routes
    all FLOW_SCALE units, where plain rounding of thirds loses one.
    """
    w = np.asarray(w, dtype=float)
    quota = w * FLOW_SCALE / math.fsum(w.tolist())
    mass = np.floor(quota).astype(np.int64)
    mass[np.argsort(mass - quota, kind="stable")[:FLOW_SCALE - int(mass.sum())]] += 1
    return mass


def _prohorov_search(dpq: np.ndarray, cp, cq, bound: float = math.inf, flow=_max_flow_mass):
    """Prohorov distance from the cross-distance matrix alone, if below ``bound``.

    ``cp`` and ``cq`` are the `_integer_masses` of the two measures, which
    a caller that searches many matrices for one pair of measures rounds
    once.  Returns (value, sparse flow) when the value is below ``bound``
    and None otherwise; ``_coupling(flow, wp, wq)`` is a witness coupling
    for the probabilities wp, wq behind them.  ``flow``
    is the max-flow oracle: `_max_flow_mass`, or `_line_flow_mass` when
    every admissible pattern ``dpq <= t`` has its shape.

    Let t_0 = 0 < t_1 < ... be 0 and the distinct cross distances, g(t_k)
    the excluded mass at t_k and f_k = max(t_k, g(t_k)).  The value is f at
    the first k with g(t_k) < t_{k+1} (or the last k), found by binary
    search.  For earlier k, f_k = g(t_k) >= f_{k+1}; for later k, f_k >=
    t_k, which exceeds both t and g at that first k.  So the value is
    min_k f_k, in the same floats.  The computed g is nonincreasing in k
    (the routable integer mass only grows with t), hence value < bound
    exactly when g(t_K) < bound for the largest breakpoint t_K < bound;
    without such a breakpoint the answer is no.  Since g <= 1, a bound
    above 1 needs no flow.  When g(t_K) < bound, either K is the last
    index or g(t_K) < bound <= t_{K+1}, so the first k lies in [0, K] and
    the search starts there with the flow at t_K in hand.  Every flow is a
    function of its threshold alone, so the value and the flow equal
    those of the unbounded search.

    Before each flow, `_cut_excluded_mass` gives h(t_k) <= g(t_k).  When
    h(t_K) >= bound the answer is no, and when h(t_mid) >= t_{mid+1} the
    probe moves ``lo`` past mid; both are the decisions the flow would
    have made, and both discard that flow, so the value and the flow
    returned are unchanged.  The line flow skips the cut: its O(Ka + Kb)
    steps cost less than the cut's matrix-vector products.
    """
    ts = np.unique(dpq)
    if len(ts) == 0 or ts[0] > 0.0:
        ts = np.concatenate([[0.0], ts])

    def solve(admissible: np.ndarray):
        mass, sparse = flow(cp, cq, admissible)
        return max(0.0, 1.0 - mass / FLOW_SCALE), sparse

    def settled(admissible: np.ndarray, at_least: float) -> bool:
        """Whether the cut alone shows g >= ``at_least`` at this pattern."""
        return flow is not _line_flow_mass and _cut_excluded_mass(cp, cq, admissible) >= at_least

    # keep only the flow at the current hi, so that at most two flows are
    # alive at once
    lo, hi = 0, int(np.searchsorted(ts, bound, side="left")) - 1
    if hi < 0:
        return None
    at_hi = None
    if bound <= 1.0:
        admissible = dpq <= ts[hi]
        if settled(admissible, bound):
            return None
        at_hi = solve(admissible)
        if at_hi[0] >= bound:
            return None
    while lo < hi:
        mid = (lo + hi) // 2
        admissible = dpq <= ts[mid]
        got = None if settled(admissible, ts[mid + 1]) else solve(admissible)
        # the candidate of interval mid lies inside it
        if got is not None and got[0] < ts[mid + 1]:
            hi, at_hi = mid, got
        else:
            lo = mid + 1
    g, sparse = at_hi if at_hi is not None else solve(dpq <= ts[lo])  # else lo is the last interval
    return max(float(ts[lo]), g), sparse


def _coupling(flow, wp: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Dense coupling of p (rows) and q (columns) from a sparse flow, with
    the unrouted residuals spread proportionally; marginals within 1e-10."""
    rows, cols, amounts = flow
    pi = np.zeros((len(wp), len(wq)))
    pi[rows, cols] = amounts / FLOW_SCALE
    res_p = np.maximum(wp - pi.sum(axis=1), 0.0)
    res_q = np.maximum(wq - pi.sum(axis=0), 0.0)
    rho = res_p.sum()
    if rho > 0 and res_q.sum() > 0:
        pi = pi + np.outer(res_p, res_q) / max(rho, res_q.sum())
    return pi


def _require_finite_entries(m: np.ndarray, what: str) -> np.ndarray:
    """Return ``m``, or raise ParameterError naming its first NaN/inf entry."""
    finite = np.isfinite(m)
    if not finite.all():
        raise ParameterError(f"{what} entry {tuple(np.argwhere(~finite)[0].tolist())} "
                             "is not finite")
    return m


def _checked_cross(metric, p: FinitePointMeasure, q: FinitePointMeasure) -> np.ndarray:
    """``metric[p.atoms, q.atoms]`` after checking both measures; an atom
    index outside [0, len(metric)) raises MarginalError and a NaN/inf entry
    of the block ParameterError."""
    metric = np.asarray(metric, dtype=float)
    for m in (p, q):
        m.check()
        bad = m.atoms[(m.atoms < 0) | (m.atoms >= len(metric))]
        if bad.size:
            raise MarginalError(
                f"atom index {bad[0]} is outside the {len(metric)}-point metric"
            )
    return _require_finite_entries(metric[np.ix_(p.atoms, q.atoms)],
                                   "metric[p.atoms, q.atoms]")


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
    value, flow = _prohorov_search(_checked_cross(metric, p, q),
                                   _integer_masses(p.probs), _integer_masses(q.probs))
    return value, _coupling(flow, p.probs, q.probs)


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
