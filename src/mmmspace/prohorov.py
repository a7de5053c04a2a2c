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
distance is not below it.  Its flows come from `_max_flow_mass` (Dinic's
algorithm on Python-int row masks, so no graph is built), and `_coupling`
builds a dense witness coupling from one.  Two laws on the real line need
no cross matrix: `_line_prohorov` gives the same value from their sorted
atoms.
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


def _masks(m: np.ndarray) -> list:  # one Python int per row of m; bit k is column k
    return [int.from_bytes(r.tobytes(), "little") for r in np.packbits(m, -1, bitorder="little")]


def _bits(mask: int):  # the set bits, lowest first
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _max_flow_mass(cp: list, cq: list, masks: list):
    """Max mass routable p -> q along admissible pairs, integer capacities.

    ``cp`` and ``cq`` are the integer masses as lists of Python ints, and
    the bits of the Python int ``masks[i]`` are row i's admissible columns.
    A greedy pass fills each row's columns, lowest first; then Dinic's
    algorithm runs on bitmask layers.  Each phase's breadth-first search
    reaches columns through the rows' masks and rows through ``carry[j]``,
    the rows with flow into column j, up to the first column layer with
    room left.  Its blocking flow is an iterative depth-first search on the
    lowest live node of each layer: dead nodes leave their layer's mask,
    and after a push the path is kept up to its first saturated arc.

    Returns (flow mass as int, sparse flow): the sparse flow lists a
    (row, col, amount) triple in integer units for each pair that carries
    some, in row-major order.
    """
    rp, rq = list(cp), list(cq)
    flow: list[dict] = [{} for _ in rp]
    carry = [0] * len(rq)
    room = sum(1 << j for j, c in enumerate(rq) if c)  # columns with room left
    total = 0
    for i, mask in enumerate(masks):
        for j in _bits(mask & room if rp[i] else 0):
            move = min(rp[i], rq[j])
            flow[i][j], carry[j] = move, carry[j] | 1 << i
            rp[i], rq[j], total = rp[i] - move, rq[j] - move, total + move
            if not rq[j]:
                room ^= 1 << j
            if not rp[i]:
                break

    supply = sum(1 << i for i, c in enumerate(rp) if c)  # rows with mass left
    while supply and room:
        # layers alternate rows and columns (through the rows' masks, then
        # back through carry) up to the first column layer with room left
        layers, seen = [supply], [supply, 0]
        while layers[-1] and not (len(layers) % 2 == 0 and layers[-1] & room):
            side, reach = len(layers) % 2, 0
            for u in _bits(layers[-1]):
                reach |= masks[u] if side else carry[u]
            layers.append(reach & ~seen[side])
            seen[side] |= reach
        if not layers[-1]:
            break  # no column with room is reachable: the flow is maximal
        rows, cols = layers[0::2], layers[1::2]
        cols[-1] &= room
        last = len(cols) - 1
        path_i: list[int] = []  # the path s -> i0 -> j0 -> i1 -> j1 -> ...
        path_j: list[int] = []
        while True:
            depth = len(path_j)
            cand = carry[path_j[-1]] & rows[depth] if depth else rows[0]
            if not cand:  # the path's last column is dead
                if not depth:
                    break
                cols[depth - 1] ^= 1 << path_j.pop()
                path_i.pop()
                continue
            i = (cand & -cand).bit_length() - 1
            cand = masks[i] & cols[depth]
            if not cand:  # row i is dead
                rows[depth] ^= 1 << i
                continue
            j = (cand & -cand).bit_length() - 1
            path_i.append(i)
            path_j.append(j)
            if depth < last:
                continue
            # augment, then keep the path up to its first saturated arc
            i = path_i[0]
            push = min(rp[i], rq[j], *(flow[r][c] for r, c in zip(path_i[1:], path_j)))
            total, rp[i], rq[j], keep = total + push, rp[i] - push, rq[j] - push, depth + 1
            if not rp[i]:
                supply, rows[0], keep = supply ^ 1 << i, rows[0] ^ 1 << i, 0
            for k, (i, col, back) in enumerate(zip(path_i, path_j, [-1] + path_j)):
                row = flow[i]
                row[col] = row.get(col, 0) + push
                carry[col] |= 1 << i
                if k:
                    row[back] -= push
                    if not row[back]:
                        del row[back]
                        carry[back] ^= 1 << i
                        keep = min(keep, k)
            if not rq[j]:
                room, cols[last], keep = room ^ 1 << j, cols[last] ^ 1 << j, min(keep, depth)
            del path_i[keep:], path_j[keep:]
    return total, [(i, j, move) for i, row in enumerate(flow) for j, move in sorted(row.items())]


def _line_prohorov(va, vb, cp, cq) -> float:
    """The value of `_prohorov_search` on abs(va[:, None] - vb[None, :]), bit
    for bit, without the matrix: ``va`` and ``vb`` are the nondecreasing
    atoms of two laws on the line, ``cp`` and ``cq`` their `_integer_masses`.

    Rounded subtraction is monotone, so at a threshold t row i's admissible
    columns {j : fl|va_i - vb_j| <= t} are [s_i, e_i), s_i counting the j
    with fl(va_i - vb_j) > t and e_i those with fl(vb_j - va_i) <= t, both
    nondecreasing in i.  A probe finds them by two pointers and routes the
    greedy line flow, rows in order, each filling its columns left to
    right.  Column j serves exactly the later rows with s_i' <= j, a set
    growing with j, so later rows keep a residual that dominates any other
    choice and the flow is maximal: g(t) is the search's excluded mass at
    the largest breakpoint t_a <= t.  The pass also finds t_a and the least
    breakpoint above t, among the run ends and their outer neighbours.

    g is nonincreasing and at most 1.  Bisection on the bit patterns of the
    doubles in [0, 1] finds the least t+ with g(t+) <= t+: a failing probe
    t shows that every t' < min(next breakpoint, g(t)) fails, and a passing
    one that max(t_a, g(t)) <= t passes.  And t+ = min_k max(t_k, g(t_k)):
    a breakpoint t_k < t+ fails, so g(t_k) > t_k, g(g(t_k)) <= g(t_k), and
    g(t_k) >= t+ lest it pass.  For t_a, g(t_a) = g(t+) <= t+, and if t_a <
    t+ the double below t+ fails, so g(t_a), above it, is t+.
    """
    # columns 1..Kb, between sentinels at -inf and inf that no run reaches;
    # before[k] is the mass of the columns before column k
    va, cp = va.tolist(), cp.tolist()
    vb, before = [-math.inf, *vb.tolist(), math.inf], [0, 0, *np.cumsum(cq).tolist()]

    def probe(t):  # (g(t), t_a, least breakpoint above t)
        s = e = 1
        total = used = 0  # used: the column mass the greedy has filled or passed
        below, above = 0.0, math.inf
        for x, supply in zip(va, cp):
            while x - vb[s] > t:
                s += 1
            while vb[e] - x <= t:
                e += 1
            if x - vb[s - 1] < above:  # the outer neighbours of the run [s, e)
                above = x - vb[s - 1]
            if vb[e] - x < above:
                above = vb[e] - x
            if s == e:
                continue
            if x - vb[s] > below:  # the run's ends, one of which is its largest |x - vb|
                below = x - vb[s]
            if vb[e - 1] - x > below:
                below = vb[e - 1] - x
            if used < before[s]:
                used = before[s]
            move = before[e] - used
            if move > supply:
                move = supply
            used, total = used + move, total + move
        return max(0.0, 1.0 - total / FLOW_SCALE), below, above

    lo, hi = 0.0, 1.0  # every t below lo fails, and hi passes
    while lo < hi:
        # bit patterns order the nonnegative doubles as their values
        t = float((np.array([lo, hi]).view(np.int64).sum() // 2).view(np.float64))
        g, below, above = probe(t)
        lo, hi = (lo, max(below, g)) if g <= t else (min(above, g), hi)
    return hi


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


def _prohorov_search(dpq: np.ndarray, cp, cq, bound: float = math.inf):
    """Prohorov distance from the cross-distance matrix alone, if below ``bound``.

    ``cp`` and ``cq`` are the `_integer_masses` of the two measures, which
    a caller that searches many matrices for one pair of measures rounds
    once.  Returns (value, sparse flow) when the value is below ``bound``
    and None otherwise; ``_coupling(flow, wp, wq)`` is a witness coupling
    for the probabilities wp, wq behind them.  Each probe ``dpq <= t``
    goes to `_max_flow_mass` as row masks.

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
    """
    ts = np.unique(dpq)
    if len(ts) == 0 or ts[0] > 0.0:
        ts = np.concatenate([[0.0], ts])
    masses = cp.tolist(), cq.tolist()

    def solve(t):
        mass, sparse = _max_flow_mass(*masses, _masks(dpq <= t))
        return max(0.0, 1.0 - mass / FLOW_SCALE), sparse

    # keep only the flow at the current hi, so that at most two flows are
    # alive at once
    lo, hi = 0, int(np.searchsorted(ts, bound, side="left")) - 1
    if hi < 0:
        return None
    at_hi = None
    if bound <= 1.0:
        at_hi = solve(ts[hi])
        if at_hi[0] >= bound:
            return None
    while lo < hi:
        mid = (lo + hi) // 2
        got = solve(ts[mid])
        # the candidate of interval mid lies inside it
        if got[0] < ts[mid + 1]:
            hi, at_hi = mid, got
        else:
            lo = mid + 1
    g, sparse = at_hi if at_hi is not None else solve(ts[lo])  # else lo is the last interval
    return max(float(ts[lo]), g), sparse


def _coupling(flow, wp: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Dense coupling of p (rows) and q (columns) from a sparse flow, with
    the unrouted residuals spread proportionally; marginals within 1e-10."""
    rows, cols, amounts = np.array(flow, dtype=np.int64).reshape(-1, 3).T
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
    A NaN ``eps`` raises ParameterError; inf is legal and always holds.
    """
    if math.isnan(eps):
        raise ParameterError("eps must be a number, not NaN")
    dpq = _checked_cross(metric, p, q)
    kp, kq = dpq.shape
    if max(kp, kq) > STRASSEN_BOUND:
        raise TooLargeError(
            f"subset enumeration is limited to {STRASSEN_BOUND} support atoms"
        )
    thick_bits = _masks(dpq <= eps)

    qmass = np.zeros(1 << kq)
    for s in range(1, 1 << kq):
        low = s & (-s)
        qmass[s] = qmass[s ^ low] + q.probs[low.bit_length() - 1]

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
