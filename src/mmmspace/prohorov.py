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
distinct cross distances, so the answer is the least t in [0, 1] with
g(t) <= t.

Every value comes from one bisection, `_bisect`, whose probe at t reports
g(t), the breakpoints beside t and the flow, and which takes an incumbent
bound.  `_prohorov_search` probes a cross-distance matrix with
`_max_flow_mass` (Dinic's algorithm on Python-int row masks, so no graph
is built), and `_coupling` builds a witness coupling from its flow.  Two
laws on the real line need no cross matrix: `_line_prohorov` probes their
sorted atoms and gives the same value.
"""

from __future__ import annotations

import math
import struct
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
    nondecreasing in i.  A `_bisect` probe finds them by two pointers and
    routes the greedy line flow, rows in order, each filling its columns
    left to right.  Column j serves exactly the later rows with s_i' <= j,
    a set growing with j, so later rows keep a residual that dominates any
    other choice and the flow is maximal: g(t) is the matrix search's.  The
    pass also finds the breakpoints beside t among the run ends and their
    outer neighbours.
    """
    # columns 1..Kb, between sentinels at -inf and inf that no run reaches;
    # before[k] is the mass of the columns before column k
    va, cp = va.tolist(), cp.tolist()
    vb, before = [-math.inf, *vb.tolist(), math.inf], [0, 0, *np.cumsum(cq).tolist()]

    def probe(t):  # (g(t), t_a, least breakpoint above t, no flow)
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
        return max(0.0, 1.0 - total / FLOW_SCALE), below, above, None

    return _bisect(probe)[0]


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


def _bisect(probe, bound: float = math.inf):
    """(t+, the flow at t+) for the least t+ >= 0 with g(t+) <= t+, if t+ <
    ``bound``; None otherwise.

    ``probe(t)`` returns (G = g(t), t_a, t_b, flow): the excluded mass, a
    nonincreasing step function at most 1 with the cross distances as its
    breakpoints; the largest breakpoint <= t (or 0.0) and the least one
    above t (or inf); and the flow behind G, which like G is the same at
    every threshold in [t_a, t_b).  Every t' < min(t_b, G) fails (g(t') >=
    G > t'), and if G < t_b, c = max(t_a, G) passes (c lies in [t_a, t_b)).
    So lo rises to min(t_b, G), and hi, from 1.0, falls to c with that
    probe's flow, the flow at the largest breakpoint <= c.  Each probe is
    at the midpoint of the bit patterns of lo and hi, which order the
    nonnegative doubles as their values: a failing probe lifts lo above t
    and a passing one brings hi to c <= t, so no search runs more than 62.
    An arithmetic midpoint rounds to hi on adjacent doubles and never ends.
    The least passing real is a double, so t+ is the distance: it is 0, a
    breakpoint, or inside an interval where g is constant and then equal
    to that constant.  If no probe sets hi, one more at 1.0 gives the flow.

    Passing is monotone, so t+ < bound exactly when the double just below
    ``bound`` passes: the first probe is there, and lo >= bound after it
    means None; a bound above 1 needs no probe.  Value and flow are
    functions of t+ alone, as without a bound.
    """
    lo, hi, at_hi = 0.0, 1.0, None  # at_hi: the probe that set hi
    t = math.nextafter(bound, 0.0) if bound <= 1.0 else None  # the incumbent's probe first
    while lo < hi:
        if t is None:
            t = struct.unpack("<d", struct.pack(
                "<q", sum(struct.unpack("<2q", struct.pack("<2d", lo, hi))) // 2))[0]
        got = probe(t)
        g, below, above = got[:3]
        if g < above:  # max(t_a, g) passes
            hi, at_hi = max(below, g), got
        lo, t = max(lo, min(above, g)), None
        if lo >= bound:
            return None
    return hi, (at_hi or probe(1.0))[3]


def _prohorov_search(dpq: np.ndarray, cp, cq, bound: float = math.inf):
    """Prohorov distance from the cross-distance matrix alone, if below ``bound``.

    ``cp`` and ``cq`` are the `_integer_masses` of the two measures, which
    a caller that searches many matrices for one pair of measures rounds
    once.  Returns (value, sparse flow) from `_bisect`, or None when the
    value is not below ``bound``; ``_coupling(flow, wp, wq)`` is a witness
    coupling for the probabilities wp, wq behind them.  A probe sends ``dpq
    <= t`` to `_max_flow_mass` as row masks and reads t_a and t_b off the
    entries on either side of t.
    """
    masses = cp.tolist(), cq.tolist()

    def probe(t):
        adm = dpq <= t
        mass, sparse = _max_flow_mass(*masses, _masks(adm))
        return (max(0.0, 1.0 - mass / FLOW_SCALE), float(dpq.max(initial=0.0, where=adm)),
                float(dpq.min(initial=math.inf, where=~adm)), sparse)

    return _bisect(probe, bound)


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
