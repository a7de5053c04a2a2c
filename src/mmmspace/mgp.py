"""Marked Gromov-Prohorov distance between finite spaces.

The distance is the infimum, over metric gluings of the two point sets,
of the Prohorov distance between the pushforward measures on the glued
space crossed with the mark space (metric = glued distance + mark
distance).  A gluing is determined by its cross matrix C; the four
triangle-inequality families tie C to the two given metrics.  The
Prohorov objective depends on the gluing only through the matrix
M = C + mark offsets.

Lower bounds come from projections to the mark marginal and the
pair-distance law.  The distance itself is a finite minimum over
relations between the pairs of mark distance below 1 (see `mgp_exact`),
and `mgp_exact`, `mgp_bounds` and `mgp_upper` all read it off one scan
of those relations (`_mgp`).  Every witness is the correspondence gluing
of a relation: the scan's best one, or a candidate of the fallback loop
(a greedy coupling support and its prune chain), which runs when no scan
ran, the scan stopped, or no relation beats 1, and stops at `mgp_lower`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .core import (
    FiniteMmmSpace, _min_plus, _require_finite, _require_tol, _triangle_blocks, _triangle_rows,
    _weight_total,
)
from .dmat import mark_marginal, pair_distance_law
from .errors import GluingError, ParameterError, TooLargeError
from .prohorov import (
    FLOW_SCALE, _bits, _check_probs, _coupling, _integer_masses, _line_prohorov, _masks,
    _max_flow_mass, _prohorov_search, _require_finite_entries,
)

__all__ = [
    "GluedSpace",
    "MgpResult",
    "glue",
    "glue_three",
    "correspondence_cross",
    "mgp_upper",
    "mgp_lower",
    "mgp_exact",
    "mgp_bounds",
]

GLUE_TOL = 1e-10
EXACT_PAIR_BOUND = 1500
SCAN_BUDGET = 5000

# ---------------------------------------------------------------------------
# gluings
# ---------------------------------------------------------------------------

def _check_triangles(m: np.ndarray, tol: float, what: str) -> None:
    """GluingError, its message led by ``what``, naming the worst triangle
    violation of a finite matrix above ``tol``: the first maximum of
    m(i, k) - m(i, j) - m(j, k) in C order over all triples.

    One min-plus pass (`core._triangle_rows`) clears the rows that provably
    hold no excess above ``tol``; only the others get exact excesses,
    block by block in O(n^2) memory.  The row of the first maximum is
    never cleared, so the triple is the full scan's.
    """
    best, worst = tol, None
    for idx, excess in _triangle_blocks(m, rows=_triangle_rows(m, tol, relative=False)):
        flat = int(np.argmax(excess))
        if excess.flat[flat] > best:
            a, j, k = np.unravel_index(flat, excess.shape)
            best, worst = float(excess.flat[flat]), (int(idx[a]), int(j), int(k))
    if worst is not None:
        raise GluingError(f"{what} violates the triangle inequality at {worst} by {best:g}",
                          indices=worst, excess=best)


@dataclass(frozen=True, eq=False)
class GluedSpace:
    """Two spaces glued along a cross matrix into one metric on X1 + X2."""

    left: FiniteMmmSpace
    right: FiniteMmmSpace
    cross: np.ndarray

    def __post_init__(self):
        c = np.array(self.cross, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "cross", c)

    def z_metric(self) -> np.ndarray:
        return np.block([
            [self.left.distances, self.cross],
            [self.cross.T, self.right.distances],
        ])

    def mark_offsets(self) -> np.ndarray:
        return self.left.mark_space.cross_distances(self.left.marks, self.right.marks)

    def product_measures(self):
        """The two pushforwards on (X1+X2) x I with metric r_Z + r_I.

        Only the cross part of the product metric matters to the Prohorov
        distance between them, so the cross block and the two weight
        vectors are returned.
        """
        return (
            self.cross + self.mark_offsets(),
            self.left.weights,
            self.right.weights,
        )

    def prohorov(self):
        """Prohorov distance between the two pushforwards: (value, coupling).
        Weights that are not a probability vector raise MarginalError, a
        NaN/inf cross entry ParameterError."""
        for space in (self.left, self.right):
            _check_probs(space.weights, f"space {space.label!r}: ")
        _require_finite_entries(self.cross, "cross")
        m, wp, wq = self.product_measures()
        value, flow = _prohorov_search(m, _integer_masses(wp), _integer_masses(wq))
        return value, _coupling(flow, wp, wq)


def glue(
    a: FiniteMmmSpace, b: FiniteMmmSpace, cross: np.ndarray, tol: float = GLUE_TOL
) -> GluedSpace:
    """Glue two spaces along a cross matrix, validating the metric.

    The full (N1+N2) matrix must be finite (ParameterError otherwise),
    satisfy every triangle inequality within ``tol`` and have nonnegative
    cross entries; violations raise GluingError naming the worst triple
    (the first maximum excess in C order over all triples).  The triangle
    check (`_check_triangles`) is one min-plus pass over the glued matrix,
    about (N1+N2)^3 adds and as many mins, then exact excesses only for the
    rows that pass cannot clear, which are every row with an excess above
    ``tol``; it holds O((N1+N2)^2) memory.  A ``tol`` that is NaN, negative
    or infinite raises ParameterError.
    """
    _require_tol(tol)
    if a.mark_space != b.mark_space:
        raise ParameterError("gluing requires one shared mark space")
    cross = np.asarray(cross, dtype=float)
    if cross.shape != (a.n, b.n):
        raise ParameterError(f"cross matrix must be {(a.n, b.n)}")
    if cross.size and cross.min() < -tol:
        ij = np.unravel_index(np.argmin(cross), cross.shape)
        raise GluingError(
            f"negative cross entry at {ij}", indices=ij, excess=float(-cross[ij])
        )
    g = GluedSpace(left=a, right=b, cross=np.maximum(cross, 0.0))
    _check_triangles(_require_finite_entries(g.z_metric(), "glued metric"), tol, "gluing")
    return g


def glue_three(g12: GluedSpace, g23: GluedSpace, tol: float = GLUE_TOL) -> np.ndarray:
    """Compose two gluings sharing the middle space into a metric on X1+X2+X3.

    The outer cross matrix routes through the middle block:
    C13[i, k] = min_j C12[i, j] + C23[j, k] (`_min_plus`, O(N1 N3) memory).
    The result is finite (ParameterError otherwise) and satisfies every
    triangle inequality (validated within ``tol``, which must be finite
    and nonnegative).
    """
    _require_tol(tol)
    mid_a, mid_b = g12.right, g23.left
    same = (
        mid_a.marks == mid_b.marks
        and mid_a.mark_space == mid_b.mark_space
        and mid_a.distances.shape == mid_b.distances.shape
        and bool(np.all(mid_a.distances == mid_b.distances))
        and bool(np.all(mid_a.weights == mid_b.weights))
    )
    if not same:
        raise ParameterError("gluings must share the middle space exactly")
    c12, c23 = g12.cross, g23.cross
    c13 = _min_plus(c12, c23)
    z = np.block([
        [g12.left.distances, c12, c13],
        [c12.T, mid_a.distances, c23],
        [c13.T, c23.T, g23.right.distances],
    ])
    _check_triangles(_require_finite_entries(z, "glued metric"), tol, "three-space gluing")
    return z


# ---------------------------------------------------------------------------
# correspondence gluings
# ---------------------------------------------------------------------------

def correspondence_cross(a: FiniteMmmSpace, b: FiniteMmmSpace, pairs, beta=None):
    """Cross matrix from a correspondence: C = min over (k, l) of
    r1(., k) + beta_kl + r2(l, .).

    ``beta`` is one number or one per pair, in the order of ``pairs``
    (default: half the distortion of the pairs).  The gluing is admissible
    when beta_ij + beta_kl >= |r1(i, k) - r2(j, l)| for every two pairs,
    which is checked within GLUE_TOL.  Returns (C, beta, distortion); C is
    the min-plus product of r1[:, R] + beta and r2[R, :] (`_min_plus`), in
    O(N1 N2) memory.  Pairs that are not two integer indices (``(0.5, 1)``,
    ``("a", 0)``), indices outside [0, N1) x [0, N2), NaN/inf entries of
    either space or of ``beta``, and a ``beta`` that fails the check raise
    ParameterError.
    """
    pairs = list(pairs)
    if not pairs:
        raise ParameterError("correspondence needs at least one pair")
    try:
        idx = np.asarray(pairs)
    except ValueError:  # pairs of different lengths
        idx = np.asarray(None)
    if (idx.dtype.kind not in "iuf" or idx.shape != (len(pairs), 2)
            or np.any(np.floor(idx) != idx)):
        raise ParameterError("correspondence pairs must be pairs of integer indices")
    top = idx.max(axis=0)
    if idx.min() < 0 or top[0] >= a.n or top[1] >= b.n:
        raise ParameterError(f"correspondence pairs must lie in [0, {a.n}) x [0, {b.n})")
    _require_finite(a, b)
    si, sj = idx.astype(np.intp).T
    r1, r2 = a.distances, b.distances
    gap = np.abs(r1[np.ix_(si, si)] - r2[np.ix_(sj, sj)])
    dis = float(gap.max())
    beta = np.array(dis / 2.0 if beta is None else beta, dtype=float)
    if beta.shape not in ((), (len(pairs),)):
        raise ParameterError(f"beta must be one number or {len(pairs)}, one per pair")
    if not np.all(np.isfinite(beta)):
        raise ParameterError("beta must be finite")
    per_pair = np.broadcast_to(beta, (len(pairs),))
    if np.any(per_pair[:, None] + per_pair[None, :] < gap - GLUE_TOL):
        raise ParameterError("beta_ij + beta_kl is below |r1(i, k) - r2(j, l)| "
                             "for two pairs of the correspondence")
    cross = _min_plus(r1[:, si] + per_pair[None, :], r2[sj, :])
    return cross, float(beta) if beta.ndim == 0 else beta, dis


_PROFILE_QUANTILES = np.linspace(0.0, 1.0, 9)


def _profile(d: np.ndarray) -> np.ndarray:
    """Each row's distance profile, ``np.quantile(np.sort(d, axis=1), qs,
    axis=1).T``, read off the sorted rows by index with numpy's linear
    rule.  The virtual index v = q (n - 1) splits into lo = floor(v) and
    g = v - lo (numpy takes the top one through index -1), and the value
    is a + (b - a) g, or b - (b - a)(1 - g) where g >= 0.5.  Values equal
    numpy's bit for bit, except that a zero may carry the other sign where
    a row holds both -0.0 and 0.0 (numpy's partition may swap them);
    `_profile_cost` reads |pa - pb|, which does not see that sign."""
    rows, top = np.sort(d, axis=1), len(d) - 1
    virtual = _PROFILE_QUANTILES * top
    lo = np.floor(virtual)
    hi = lo + 1
    lo[virtual >= top] = hi[virtual >= top] = -1
    g = virtual - lo
    a, b = rows[:, lo.astype(np.intp)], rows[:, hi.astype(np.intp)]
    diff = b - a
    return np.where(g >= 0.5, b - diff * (1 - g), a + diff * g)


def _profile_cost(a: FiniteMmmSpace, b: FiniteMmmSpace) -> np.ndarray:
    """Heuristic matching cost: distance-profile quantiles + marks + weights."""
    pa, pb = _profile(a.distances), _profile(b.distances)
    cost = np.abs(pa[:, None, :] - pb[None, :, :]).mean(axis=2)
    cost += a.mark_space.cross_distances(a.marks, b.marks)
    return cost + np.abs(a.weights[:, None] - b.weights[None, :])


def _greedy_coupling_pairs(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> list:
    """Support of a greedy transportation plan for the heuristic cost."""
    rem_p, rem_q = wa.astype(float), wb.astype(float)
    order = np.dstack(np.unravel_index(np.argsort(cost, axis=None), cost.shape))[0]
    pairs = []
    for i, j in order:
        move = min(rem_p[i], rem_q[j])
        if move > 1e-15:
            pairs.append((int(i), int(j)))
            rem_p[i] -= move
            rem_q[j] -= move
    return pairs


def _pruned(a: FiniteMmmSpace, b: FiniteMmmSpace, pairs: list):
    """The prune chain of a relation: drop the ceil(k/10) of its k pairs
    whose rows of |r1[R, R] - r2[R, R]| have the largest maxima (ties:
    larger row sum, then earlier position) and yield what is left, until
    one pair remains."""
    si, sj = np.array(pairs).T
    dis = np.abs(a.distances[np.ix_(si, si)] - b.distances[np.ix_(sj, sj)])
    keep = np.arange(len(pairs))
    while len(keep) > 1:
        rows = dis[np.ix_(keep, keep)]
        order = np.lexsort((-rows.sum(axis=1), -rows.max(axis=1)))
        keep = np.delete(keep, order[: math.ceil(len(keep) / 10)])
        yield [pairs[k] for k in keep]


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

def mgp_lower(a: FiniteMmmSpace, b: FiniteMmmSpace, orders=(1, 2)) -> float:
    """Projection lower bounds on the marked Gromov-Prohorov distance.

    Order 1: Prohorov distance between the mark marginals (the mark
    projection is 1-Lipschitz from the glued product metric).  Order 2:
    half the Prohorov distance between the first-distance laws (the pair
    distance changes by at most the sum of two product-metric moves).
    Returns the best (max) of the selected bounds.

    Order 1 hands the Prohorov search the matrix of mark distances between
    the two marginals' atoms.  Order 2 compares two laws on the real line
    with Ka and Kb distinct values, up to about N1^2 / 2 and N2^2 / 2, and
    goes to `_line_prohorov`: O(Ka + Kb) memory and Python steps per probe,
    with no Ka x Kb matrix.  The weights of each space must be a
    probability vector (MarginalError naming the space otherwise).
    """
    if a.mark_space != b.mark_space:
        raise ParameterError("both spaces must share the mark space")
    if not orders or any(o not in (1, 2) for o in orders):
        raise ParameterError("orders must be a nonempty subset of {1, 2}")
    _require_finite(a, b)
    for space in (a, b):
        _check_probs(space.weights, f"space {space.label!r}: ")
    bounds = []
    if 1 in orders:
        ma, mb = mark_marginal(a), mark_marginal(b)
        cross = a.mark_space.cross_distances(list(ma), list(mb))
        masses = _integer_masses(list(ma.values())), _integer_masses(list(mb.values()))
        bounds.append(_prohorov_search(cross, *masses)[0])
    if 2 in orders:
        va, pa = pair_distance_law(a)
        vb, pb = pair_distance_law(b)
        bounds.append(0.5 * _line_prohorov(va, vb, _integer_masses(pa), _integer_masses(pb)))
    return float(max(bounds))


# ---------------------------------------------------------------------------
# the relation scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MgpResult:
    """Bounds (and optionally a certified value) for one space pair.

    ``exact`` - ``slack`` is a certified lower bound on ``exact``.
    ``nodes`` counts the relation scan's search nodes and ``budget_exhausted``
    says whether its budget stopped the scan; both are None when no scan ran.
    """

    lower: float
    upper: float
    exact: float | None = None
    slack: float | None = None
    witness_cross: np.ndarray | None = None
    witness_coupling: np.ndarray | None = None
    nodes: int | None = None
    budget_exhausted: bool | None = None

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise ParameterError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        if self.exact is not None and not self.lower - 1e-9 <= self.exact <= self.upper + 1e-9:
            raise ParameterError("certified value escapes the bounds")


def _relation_scan(a, b, off, ca, cb, floor: float, budget: int):
    """The scan of `mgp_exact`: (gluing of the best relation S or None,
    max(L(S), g(S)) or inf, the flow that gave g(S), nodes, level where
    ``budget`` stopped the scan or None).

    Pairs u = (i, j), v = (k, l) with m = ``off`` < 1 meet at level
    max((|r1(i, k) - r2(j, l)| + m_ij + m_kl) / 2, m_ij, m_kl).  Levels d go
    up from the largest below ``floor`` - 1e-9 (lower cliques are dominated)
    while d is below the best value.  The first level lists every maximal
    clique of the graph of pairs within d, later ones those through a new
    edge or isolated pair (Bron-Kerbosch from R = {u, v}, P = N(u) & N(v),
    Tomita pivot, the first of the most neighbours in P).  A branch whose
    R | P cannot route 1 - best of p or q mass is cut; every other clique
    hands its row masks to `_max_flow_mass` for g(S).  The level matrix
    and its sort take O(|Z|^2).
    """
    zi, zj = np.nonzero(off < 1.0)
    m = off[zi, zj]
    lev = a.distances[np.ix_(zi, zi)]  # in place: at most two |Z|^2 arrays alive
    lev -= b.distances[np.ix_(zj, zj)]
    np.abs(lev, out=lev)
    lev += m[:, None]
    lev += m[None, :]
    lev /= 2.0
    np.maximum(np.maximum(lev, lev.T, out=lev), np.maximum.outer(m, m), out=lev)
    iu, ju = (k.astype(np.int32) for k in np.triu_indices(len(lev)))
    order = np.argsort(lev[iu, ju], kind="stable")
    iu, ju = iu[order], ju[order]
    levels = lev[iu, ju]
    first = np.flatnonzero(np.diff(levels, prepend=-np.inf))  # where each level starts
    levels, first = levels[first], np.append(first, len(levels))
    k0 = max(0, int(np.searchsorted(levels, floor - 1e-9)) - 1)
    cp, cq = ca.tolist(), cb.tolist()
    row_pairs = _masks(zi == np.arange(len(ca))[:, None])  # the pairs of each atom
    col_pairs = _masks(zj == np.arange(len(cb))[:, None])
    row_of, col_of = zi.tolist(), zj.tolist()
    graph = lev <= (levels[k0] if len(levels) else 0.0)
    present = _masks(np.diag(graph)[None, :])[0]
    adj = [mask & ~(1 << u) for u, mask in enumerate(_masks(graph))]

    best, members, flow, nodes, stopped_at, starts = 1.0, None, None, 0, None, [(0, present)]
    for k in range(k0, len(levels)):
        level = float(levels[k])
        if level >= best or stopped_at is not None:
            break
        if k > k0:
            joined, edges = [], []
            new = slice(first[k], first[k + 1])
            for u, v in zip(iu[new].tolist(), ju[new].tolist()):
                if u == v:
                    joined.append(u)
                else:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    edges.append((u, v))
            starts = [(1 << u | 1 << v, adj[u] & adj[v]) for u, v in edges]
            starts += [(1 << u, 0) for u in joined if not adj[u]]
        seen, stack = set(), [(r, p, 0) for r, p in reversed(starts)]
        while stack and level < best:
            if nodes >= budget:
                stopped_at = level
                break
            nodes += 1
            r, p, x = stack.pop()
            if not p and (x or r in seen):  # no new maximal clique
                continue
            reach = r | p  # cut unless R | P routes over 1 - best (> 0) of p and of q
            if 1.0 - sum(compress(cp, map(reach.__and__, row_pairs))) / FLOW_SCALE >= best:
                continue
            if 1.0 - sum(compress(cq, map(reach.__and__, col_pairs))) / FLOW_SCALE >= best:
                continue
            if not p:
                seen.add(r)
                pattern = [0] * len(ca)
                for u in _bits(r):
                    pattern[row_of[u]] |= 1 << col_of[u]
                mass, got = _max_flow_mass(cp, cq, pattern)
                g = max(0.0, 1.0 - mass / FLOW_SCALE)
                if max(level, g) < best:
                    best, members, flow = max(level, g), r, got
                continue
            pivot, most, rest = -1, -1, p | x
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest ^= 1 << u
                count = (p & adj[u]).bit_count()
                if count > most:
                    pivot, most = u, count
            children, rest = [], p & ~adj[pivot]
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest ^= 1 << v
                children.append((r | 1 << v, p & adj[v], x & adj[v]))
                p, x = p & ~(1 << v), x | 1 << v
            stack.extend(reversed(children))
    if members is None:
        return None, math.inf, None, nodes, stopped_at
    members = np.fromiter(_bits(members), dtype=np.int64)
    beta = lev[np.ix_(members, members)].max() - m[members]
    pairs = list(zip(zi[members].tolist(), zj[members].tolist()))
    return correspondence_cross(a, b, pairs, beta)[0], best, flow, nodes, stopped_at


def _mgp(a: FiniteMmmSpace, b: FiniteMmmSpace, budget: int, exact: bool = False) -> MgpResult:
    """`mgp_exact` (``exact``), `mgp_bounds` and `mgp_upper`: scan, then fallback."""
    _require_finite(a, b)
    for space in (a, b):
        _weight_total(space)  # positive total, before the marginal check
    if a.mark_space != b.mark_space:
        raise ParameterError("both spaces must share the mark space")
    off = a.mark_space.cross_distances(a.marks, b.marks)
    size = int(np.count_nonzero(off < 1.0))
    if exact and size > EXACT_PAIR_BOUND:  # before mgp_lower, whose laws grow as n^2
        raise TooLargeError(f"the relation scan is limited to {EXACT_PAIR_BOUND} pairs of "
                            f"mark distance below 1; this pair has {size}")
    floor = mgp_lower(a, b)  # checks the weights
    ca, cb = _integer_masses(a.weights), _integer_masses(b.weights)
    cross, value, flow, nodes, stopped_at = None, math.inf, None, None, None
    if size <= EXACT_PAIR_BOUND:
        cross, value, flow, nodes, stopped_at = _relation_scan(a, b, off, ca, cb, floor, budget)
    if cross is None or stopped_at is not None:  # no scan, a stopped one, or none below 1
        support = _greedy_coupling_pairs(_profile_cost(a, b), a.weights, b.weights)
        for pairs in chain([support], _pruned(a, b, support)):
            c = correspondence_cross(a, b, pairs)[0]
            got = _prohorov_search(c + off, ca, cb, value)
            if got is not None:
                (value, flow), cross = got, c
            if value <= floor:  # no gluing goes below mgp_lower
                break
    glue(a, b, cross)  # witness must validate; raises if not
    finished = nodes is not None and stopped_at is None
    lower = (value if finished else max(floor, min(value, stopped_at))) if exact else floor
    lower = min(lower, value)
    return MgpResult(lower=float(lower), upper=float(value),
                     exact=float(value) if exact or finished else None,
                     slack=float(value - lower) if exact else 0.0 if finished else None,
                     witness_cross=cross, witness_coupling=_coupling(flow, a.weights, b.weights),
                     nodes=nodes, budget_exhausted=None if nodes is None else not finished)


def mgp_exact(a: FiniteMmmSpace, b: FiniteMmmSpace, budget: int = SCAN_BUDGET) -> MgpResult:
    """Marked Gromov-Prohorov distance by a finite scan over relations.

    Works for every mark metric.  Let Z be the pairs (i, j) of mark
    distance m_ij < 1; two of them, (i, j) and (k, l), meet at level
    (|r1(i, k) - r2(j, l)| + m_ij + m_kl) / 2, and one is at level m_ij.
    For a relation S in Z let L(S) be its largest level and g(S) the mass
    the integer max-flow over S leaves out.  The distance is min(1, min
    over S of max(L(S), g(S))): a gluing and coupling at eps < 1 keep
    S = {C + m <= eps}, where the triangle inequality gives L(S) <= eps and
    the coupling g(S) <= eps (Greven, Pfaffelhuber and Winter, PTRF 2009);
    and `correspondence_cross` of S at beta_ij = L(S) - m_ij glues every
    pair of S within L(S) (Memoli's correspondence gluing, FoCM 2011,
    weighted).  The witness is that gluing for the best S found by
    `_relation_scan`, with the coupling of the flow that gave g(S); when
    no S beats 1 it is the best candidate of the fallback of `mgp_bounds`,
    with the coupling of its Prohorov search.

    More than EXACT_PAIR_BOUND (1500) pairs in Z raise TooLargeError: the
    level matrix holds O(|Z|^2) floats.  ``budget`` caps the scan's search
    nodes, ``nodes`` counts them and ``budget_exhausted`` says whether the
    cap stopped the scan.  Stopped at level d, the fallback of
    `mgp_bounds` may still lower ``exact`` (then an upper bound), ``lower``
    is max(mgp_lower, min(exact, d)) and ``slack`` the gap; otherwise lower
    = upper = exact and slack is 0.  A ``budget`` that is not a nonnegative
    integer raises ParameterError.
    """
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 0:
        raise ParameterError(f"budget must be a nonnegative integer, not {budget!r}")
    return _mgp(a, b, budget, exact=True)


def mgp_bounds(a: FiniteMmmSpace, b: FiniteMmmSpace) -> MgpResult:
    """Lower and upper bound on the marked Gromov-Prohorov distance.

    ``lower`` is `mgp_lower`, clamped to ``upper``.  ``upper`` comes from
    the scan of `mgp_exact` at SCAN_BUDGET (5000) search nodes; when it
    finishes, ``upper`` is the distance, ``exact`` too, and slack 0.  When
    it stops, or above EXACT_PAIR_BOUND pairs where none runs, ``exact`` and
    ``slack`` are None.  Every witness is the correspondence gluing of a
    relation, and it passes `glue`: the scan's best relation, or a fallback
    candidate.  The fallback runs when no scan ran, the scan stopped, or no
    relation beats 1.  Its candidates are the greedy coupling support of a
    profile cost and its prune chain (`_pruned`); the first strict minimum
    wins, and the loop stops once the value reaches `mgp_lower`, which no
    gluing goes below.  NaN/inf entries and a nonpositive total weight raise
    ParameterError, weights that do not sum to 1 MarginalError.
    """
    return _mgp(a, b, SCAN_BUDGET)


def mgp_upper(a: FiniteMmmSpace, b: FiniteMmmSpace):
    """Upper bound on the marked Gromov-Prohorov distance: the upper bound
    and witness cross matrix of `mgp_bounds`, (value, cross)."""
    res = _mgp(a, b, SCAN_BUDGET)
    return res.upper, res.witness_cross
