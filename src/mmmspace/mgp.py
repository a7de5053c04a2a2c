"""Marked Gromov-Prohorov distance between finite spaces.

The distance is the infimum, over metric gluings of the two point sets,
of the Prohorov distance between the pushforward measures on the glued
space crossed with the mark space (metric = glued distance + mark
distance).  A gluing is determined by its cross matrix C; the four
triangle-inequality families tie C to the two given metrics.

Key structural facts used throughout (and unit-tested):

* the Prohorov objective depends on the gluing only through the matrix
  M = C + mark offsets, is entrywise nondecreasing in M, and is
  1-Lipschitz under sup-norm perturbations of M;
* any admissible C may be truncated at max(diam1, diam2) entrywise
  without breaking admissibility or increasing the objective, so the
  search box [0, max diam]^(N1 x N2) contains minimizers;
* given all other entries, the feasible interval of one entry has the
  closed form [max over pairs of |C_neighbor - r|, min over pairs of
  C_neighbor + r], so coordinate descent moves straight to the lower
  endpoint and stays admissible.

`mgp_exact` combines descent with a branch-and-bound refinement whose
reported slack bounds the gap to the true infimum.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (
    FiniteMmmSpace, _find_isometry, _require_finite, _triangle_blocks, _weight_total,
)
from .dmat import mark_marginal, pair_distance_law
from .errors import GluingError, ParameterError, TooLargeError
from .prohorov import (
    _check_probs, _coupling, _integer_masses, _line_flow_mass, _prohorov_search,
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
EXACT_SIZE_BOUND = 6

# ---------------------------------------------------------------------------
# gluings
# ---------------------------------------------------------------------------

def _triangle_excess(m: np.ndarray):
    """Worst triangle violation of a symmetric matrix: (excess, (i, j, k)).

    Scans the triples block by block in O(n^2) memory and keeps the first
    maximum in C order (a NaN counts as the maximum, as in np.argmax).
    """
    best, worst = 0.0, ()
    for i0, excess in _triangle_blocks(m):
        flat = int(np.argmax(excess))
        value = excess.flat[flat]
        if not worst or value > best or (np.isnan(value) and not np.isnan(best)):
            a, j, k = np.unravel_index(flat, excess.shape)
            best, worst = value, (i0 + int(a), int(j), int(k))
    return float(best), worst


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
        Weights that are not a probability vector raise MarginalError."""
        for space in (self.left, self.right):
            _check_probs(space.weights, f"space {space.label!r}: ")
        m, wp, wq = self.product_measures()
        value, flow = _prohorov_search(m, _integer_masses(wp), _integer_masses(wq))
        return value, _coupling(flow, wp, wq)


def glue(
    a: FiniteMmmSpace, b: FiniteMmmSpace, cross: np.ndarray, tol: float = GLUE_TOL
) -> GluedSpace:
    """Glue two spaces along a cross matrix, validating the metric.

    The full (N1+N2) matrix must satisfy every triangle inequality within
    ``tol`` and the cross entries must be nonnegative; violations raise
    GluingError naming the worst triple.  The triangle check holds
    O((N1+N2)^2) memory.
    """
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
    excess, idx = _triangle_excess(g.z_metric())
    if excess > tol:
        raise GluingError(
            f"gluing violates the triangle inequality at {idx} by {excess:g}",
            indices=idx,
            excess=excess,
        )
    return g


def glue_three(g12: GluedSpace, g23: GluedSpace, tol: float = GLUE_TOL) -> np.ndarray:
    """Compose two gluings sharing the middle space into a metric on X1+X2+X3.

    The outer cross matrix routes through the middle block:
    C13[i, k] = min_j C12[i, j] + C23[j, k].  The result satisfies every
    triangle inequality (validated within ``tol``).
    """
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
    c13 = (c12[:, :, None] + c23[None, :, :]).min(axis=1)
    z = np.block([
        [g12.left.distances, c12, c13],
        [c12.T, mid_a.distances, c23],
        [c13.T, c23.T, g23.right.distances],
    ])
    excess, idx = _triangle_excess(z)
    if excess > tol:
        raise GluingError(
            f"three-space gluing violates the triangle inequality at {idx}",
            indices=idx,
            excess=excess,
        )
    return z


# ---------------------------------------------------------------------------
# upper bounds via correspondences
# ---------------------------------------------------------------------------

def correspondence_cross(
    a: FiniteMmmSpace, b: FiniteMmmSpace, pairs, beta: float | None = None
):
    """Cross matrix from a correspondence: C = min over (k,l) of
    r1(., k) + beta + r2(l, .), with beta >= distortion(pairs)/2.

    Always yields an admissible gluing; returns (C, beta, distortion).
    Indices outside [0, N1) x [0, N2) raise ParameterError.
    """
    pairs = [(int(i), int(j)) for i, j in pairs]
    if not pairs:
        raise ParameterError("correspondence needs at least one pair")
    si = np.array([p[0] for p in pairs])
    sj = np.array([p[1] for p in pairs])
    if min(si.min(), sj.min()) < 0 or si.max() >= a.n or sj.max() >= b.n:
        raise ParameterError(f"correspondence pairs must lie in [0, {a.n}) x [0, {b.n})")
    r1, r2 = a.distances, b.distances
    dis = float(np.abs(r1[np.ix_(si, si)] - r2[np.ix_(sj, sj)]).max())
    if beta is None:
        beta = dis / 2.0
    elif beta < dis / 2.0:
        raise ParameterError("beta below half the correspondence distortion")
    stack = r1[:, si][:, :, None] + beta + r2[sj, :][None, :, :]
    return stack.min(axis=1), float(beta), dis


def _profile_cost(a: FiniteMmmSpace, b: FiniteMmmSpace) -> np.ndarray:
    """Heuristic matching cost: distance-profile quantiles + marks + weights."""
    qs = np.linspace(0.0, 1.0, 9)
    pa = np.quantile(np.sort(a.distances, axis=1), qs, axis=1).T
    pb = np.quantile(np.sort(b.distances, axis=1), qs, axis=1).T
    cost = np.abs(pa[:, None, :] - pb[None, :, :]).mean(axis=2)
    cost += a.mark_space.cross_distances(a.marks, b.marks)
    return cost + np.abs(a.weights[:, None] - b.weights[None, :])


def _greedy_coupling_pairs(cost: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> list:
    """Support of a greedy transportation plan for the heuristic cost."""
    rem_p = wa.astype(float).copy()
    rem_q = wb.astype(float).copy()
    order = np.dstack(np.unravel_index(np.argsort(cost, axis=None), cost.shape))[0]
    pairs = []
    for i, j in order:
        move = min(rem_p[i], rem_q[j])
        if move > 1e-15:
            pairs.append((int(i), int(j)))
            rem_p[i] -= move
            rem_q[j] -= move
    return pairs


def _all_pairs_cross(a: FiniteMmmSpace, b: FiniteMmmSpace) -> np.ndarray:
    """`correspondence_cross` of all pairs, in closed form (see `mgp_upper`)."""
    diam = max(a.distances.max(initial=0.0), b.distances.max(initial=0.0))
    return np.full((a.n, b.n), diam / 2.0)


def _candidate_pairs(a: FiniteMmmSpace, b: FiniteMmmSpace, seed: int):
    """The correspondences of `mgp_upper`, in its order, repeats included."""
    n1, n2 = a.n, b.n
    cost = _profile_cost(a, b)
    if n1 == n2:
        if n1 <= 8:
            perm = _find_isometry(a, b, atol=1e-9)
            if perm is not None:
                yield [(i, perm[i]) for i in range(n1)]
        row, col = linear_sum_assignment(cost)
        yield list(zip(row.tolist(), col.tolist()))
    support = _greedy_coupling_pairs(cost, a.weights, b.weights)
    yield support
    by_i: dict[int, int] = {}
    for i, j in support:
        by_i.setdefault(i, j)
    yield list(by_i.items())
    rng = np.random.default_rng(seed)
    k = min(n1, n2)
    for _ in range(16):
        yield list(zip(rng.permutation(n1)[:k].tolist(), rng.permutation(n2)[:k].tolist()))


def _candidate_crosses(a: FiniteMmmSpace, b: FiniteMmmSpace, seed: int):
    """The correspondence gluings of `_candidate_pairs`, each pair set once
    (`correspondence_cross` depends only on the set), then the all-pairs
    gluing: the candidates of `_best_gluing` and the start points of
    `mgp_exact`."""
    seen = set()
    for pairs in _candidate_pairs(a, b, seed):
        key = frozenset(pairs)
        if key and key not in seen:
            seen.add(key)
            yield correspondence_cross(a, b, pairs)[0]
    yield _all_pairs_cross(a, b)


def _best_gluing(a: FiniteMmmSpace, b: FiniteMmmSpace, seed: int):
    """`mgp_upper` over `_candidate_crosses`: (value, coupling, witness
    cross).  The coupling comes from the flow of the Prohorov search that
    accepted the witness."""
    if a.mark_space != b.mark_space:
        raise ParameterError("both spaces must share the mark space")
    _require_finite(a, b)
    for space in (a, b):
        _weight_total(space)
        _check_probs(space.weights, f"space {space.label!r}: ")
    off = a.mark_space.cross_distances(a.marks, b.marks)
    ca, cb = _integer_masses(a.weights), _integer_masses(b.weights)
    value, flow, cross = math.inf, None, None
    for c in _candidate_crosses(a, b, seed):
        got = _prohorov_search(c + off, ca, cb, value)
        if got is not None:
            (value, flow), cross = got, c
    glue(a, b, cross)  # witness must validate; raises if not
    return float(value), _coupling(flow, a.weights, b.weights), cross


def mgp_upper(a: FiniteMmmSpace, b: FiniteMmmSpace, seed: int = 0):
    """Upper bound on the marked Gromov-Prohorov distance.

    Evaluates the Prohorov distance across one list of correspondence
    gluings (see `correspondence_cross`): the isometry when n1 = n2 <= 8,
    the profile assignment when n1 = n2, the greedy coupling support and
    its first pair per row, and 16 seeded random partial bijections, each
    pair set once, then the all-pairs gluing.  Returns (best value, witness
    cross matrix); the first strict minimum in that order wins.  A
    candidate after the first costs one max-flow against the incumbent
    (`_prohorov_search`) unless it is strictly better.  The witness passes
    `glue`.  Deterministic per seed.
    Memory is O(N1 N2 (N1 + N2)).  NaN/inf entries and a nonpositive total weight
    raise ParameterError, weights that do not sum to 1 MarginalError.

    The all-pairs gluing is the constant max(diam1, diam2)/2: on metrics
    with a zero diagonal and nonnegative entries all pairs have distortion
    max(diam1, diam2), and the k=i, l=j term of the min is the least.
    """
    value, _, cross = _best_gluing(a, b, seed)
    return value, cross


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

    Each order hands the Prohorov solver the Ka x Kb matrix of distances
    between the Ka distinct values of one law and the Kb of the other.
    Order 1 has at most one atom per mark and runs Dinic's max-flow.
    Order 2 compares two laws on the real line with increasing atoms, so
    every threshold's admissible pairs form intervals and the greedy line
    flow solves it in O(Ka + Kb) Python steps after O(Ka Kb) numpy passes
    over the matrix; with Ka, Kb up to about N1^2 / 2 and N2^2 / 2 the
    matrix and its sort bound time and memory.  The value equals Dinic's
    bit for bit.  The weights of each space must be a probability vector
    (MarginalError naming the space otherwise).
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
        cross = np.abs(va[:, None] - vb[None, :])
        masses = _integer_masses(pa), _integer_masses(pb)
        bounds.append(0.5 * _prohorov_search(cross, *masses, flow=_line_flow_mass)[0])
    return float(max(bounds))


# ---------------------------------------------------------------------------
# certified exact optimization (tiny spaces)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MgpResult:
    """Bounds (and optionally a certified value) for one space pair.

    `mgp_exact` also reports its work: ``nodes``, the branch-and-bound
    nodes it expanded, and ``budget_exhausted``, whether boxes that could
    still beat ``exact`` were left when the node budget ran out.
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
            raise ParameterError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.exact is not None and not (
            self.lower - 1e-9 <= self.exact <= self.upper + 1e-9
        ):
            raise ParameterError("certified value escapes the bounds")


def _tighten_box(lo, hi, r1, r2):
    """Interval propagation of the gluing constraints; returns
    (lo, hi, feasible).  The sweeps stop once both corners move by at most
    1e-14 + 1e-5 * |old| entrywise, the test of ``np.allclose(new, old,
    atol=1e-14)`` on finite arrays."""
    lo = lo.copy()
    hi = hi.copy()
    r1_rows, r2_cols = r1[:, :, None], r2[None, :, :]
    for _ in range(2 * (r1.shape[0] + r2.shape[0])):
        hi_rows = (r1_rows + hi[None, :, :]).min(axis=1)
        hi_cols = (hi[:, :, None] + r2_cols).min(axis=1)
        new_hi = np.minimum(hi, np.minimum(hi_rows, hi_cols))
        lo_rows = np.maximum(r1_rows - hi[None, :, :], lo[None, :, :] - r1_rows).max(axis=1)
        lo_cols = np.maximum(lo[:, :, None] - r2_cols, r2_cols - hi[:, :, None]).max(axis=1)
        new_lo = np.maximum(lo, np.maximum(lo_rows, lo_cols))
        new_lo = np.maximum(new_lo, 0.0)
        settled = (np.all(np.abs(new_lo - lo) <= 1e-14 + 1e-5 * np.abs(lo))
                   and np.all(np.abs(new_hi - hi) <= 1e-14 + 1e-5 * np.abs(hi)))
        lo, hi = new_lo, new_hi
        if settled:
            break
    feasible = bool(np.all(lo <= hi + 1e-12))
    return lo, hi, feasible


def _coordinate_floor(c, r1, r2, sweeps: int = 60):
    """Push every cross entry to the lower end of its feasible interval.

    Runs on Python floats (the same IEEE arithmetic as numpy's scalars, in
    the same order, so the result is bitwise that of a numpy loop)."""
    c = c.tolist()
    r1, r2 = r1.tolist(), r2.tolist()
    n1, n2 = len(r1), len(r2)
    for _ in range(sweeps):
        delta = 0.0
        for i in range(n1):
            row, ri = c[i], r1[i]
            for j in range(n2):
                rj = r2[j]
                lo = 0.0
                for i2 in range(n1):
                    if i2 != i:
                        lo = max(lo, abs(c[i2][j] - ri[i2]))
                for j2 in range(n2):
                    if j2 != j:
                        lo = max(lo, abs(row[j2] - rj[j2]))
                if lo < row[j]:
                    delta = max(delta, row[j] - lo)
                    row[j] = lo
        if delta < 1e-14:
            break
    return np.array(c, dtype=float)


def _repair(c, r1, r2, lo=None, hi=None, sweeps: int = 40):
    """Clamp entries into their feasible intervals (Gauss-Seidel), on Python
    floats as in `_coordinate_floor`."""
    c = c.tolist()
    r1, r2 = r1.tolist(), r2.tolist()
    lo = None if lo is None else lo.tolist()
    hi = None if hi is None else hi.tolist()
    n1, n2 = len(r1), len(r2)
    for _ in range(sweeps):
        worst = 0.0
        for i in range(n1):
            row, ri = c[i], r1[i]
            for j in range(n2):
                rj = r2[j]
                lob = 0.0
                upb = math.inf
                for i2 in range(n1):
                    if i2 != i:
                        lob = max(lob, abs(c[i2][j] - ri[i2]))
                        upb = min(upb, c[i2][j] + ri[i2])
                for j2 in range(n2):
                    if j2 != j:
                        lob = max(lob, abs(row[j2] - rj[j2]))
                        upb = min(upb, row[j2] + rj[j2])
                if lo is not None:
                    lob = max(lob, lo[i][j])
                if hi is not None:
                    upb = min(upb, hi[i][j])
                new = min(max(row[j], lob), upb)
                worst = max(worst, abs(new - row[j]))
                row[j] = new
        if worst < 1e-14:
            break
    return np.array(c, dtype=float)


def _gluing_feasible(c, r1, r2, tol=1e-9) -> bool:
    """Whether |C[i] - C[i2]| <= r(i, i2) <= C[i] + C[i2] on rows and columns."""
    for m, r in ((c, r1), (c.T, r2)):
        x, y, rr = m[:, None, :], m[None, :, :], r[:, :, None]
        if np.any(np.abs(x - y) > rr + tol) or np.any(x + y < rr - tol):
            return False
    return True


def mgp_exact(
    a: FiniteMmmSpace,
    b: FiniteMmmSpace,
    budget: int = 4000,
    grid: float = 0.02,
    seed: int = 0,
) -> MgpResult:
    """Certified marked Gromov-Prohorov distance for tiny discrete pairs.

    Requires discrete marks and at most 6 points in total.  The upper side
    floors the candidates of `mgp_upper` (its correspondence gluings, then
    the all-pairs gluing) and four random
    repaired gluings by coordinate descent and tests each against the
    incumbent.  Then a branch-and-bound refinement over the cross-matrix
    box: nodes are pruned with the monotone bound (objective at the
    tightened lower corner) and split until the edge length falls below
    ``grid`` or the node budget runs out.  The result carries the best
    value found as ``exact`` (and ``upper``) plus a ``slack`` such that the
    true infimum lies in [exact - slack, exact]; the first strict minimum
    among the start points, then the node candidates, is the witness, and
    its coupling is the one the Prohorov search that accepted it returned.
    ``nodes`` counts the expanded nodes, and ``budget_exhausted`` says
    whether the budget stopped the search with boxes still open.

    Parameters
    ----------
    budget : int
        Branch-and-bound node cap.
    grid : float
        Box edge-length resolution: absolute when the spaces have unit
        scale, interpreted times max(1, max diameter).
    seed : int
        Seed for the heuristic start points.
    """
    if a.mark_space != b.mark_space:
        raise ParameterError("both spaces must share the mark space")
    if a.mark_space.kind != "discrete":
        raise TooLargeError("certified search supports discrete mark spaces only")
    if a.n + b.n > EXACT_SIZE_BOUND:
        raise TooLargeError(
            f"certified search is limited to {EXACT_SIZE_BOUND} points in total"
        )

    r1, r2 = a.distances, b.distances
    wa, wb = a.weights, b.weights
    diam = max(
        float(r1.max()) if r1.size else 0.0, float(r2.max()) if r2.size else 0.0
    )
    off = a.mark_space.cross_distances(a.marks, b.marks)
    resolution = grid * max(1.0, diam)

    ca, cb = _integer_masses(wa), _integer_masses(wb)

    def search(c, bound):
        return _prohorov_search(c + off, ca, cb, bound)

    lower = mgp_lower(a, b)

    # ---- upper side: the candidates of mgp_upper + coordinate descent ----
    starts = list(_candidate_crosses(a, b, seed))
    rng = np.random.default_rng(seed)
    for _ in range(4):
        c = _repair(rng.uniform(0.0, max(diam, 1e-12), size=(a.n, b.n)), r1, r2)
        if _gluing_feasible(c, r1, r2):
            starts.append(c)

    best_v, best_c, best_flow = math.inf, None, None
    for c0 in starts:
        c = _coordinate_floor(c0, r1, r2)
        got = search(c, best_v) if _gluing_feasible(c, r1, r2) else None
        if got is not None:
            (best_v, best_flow), best_c = got, c

    # ---- branch-and-bound certificate ----
    # A box whose bound is not below best_v costs one flow and is never
    # pushed: best_v only falls, so popped it would stop the search, and
    # a bound >= best_v reaches slack only through min(., best_v).
    heap: list = []
    counter = itertools.count()

    def push(lo, hi):
        got = search(lo, best_v)
        if got is not None:
            heapq.heappush(heap, (got[0], next(counter), lo, hi))

    lo0 = np.zeros((a.n, b.n))
    hi0 = np.full((a.n, b.n), diam)
    lo0, hi0, feasible = _tighten_box(lo0, hi0, r1, r2)
    glob_lb = lower
    if feasible:
        push(lo0, hi0)
    nodes = 0
    leaf_bounds: list[float] = []
    while heap and nodes < budget:
        bound, _, lo, hi = heapq.heappop(heap)
        if bound >= best_v - 1e-12:
            leaf_bounds.append(bound)
            heap.clear()
            break
        nodes += 1
        width = hi - lo
        if width.max() <= resolution:
            leaf_bounds.append(bound)
            continue
        # candidate inside the node keeps the upper side honest
        mid = _repair((lo + hi) / 2.0, r1, r2, lo=lo, hi=hi)
        if _gluing_feasible(mid, r1, r2):
            floored = _coordinate_floor(mid, r1, r2)
            if not _gluing_feasible(floored, r1, r2):
                floored = mid
            got = search(floored, best_v)
            if got is not None:
                (best_v, best_flow), best_c = got, floored
        ij = np.unravel_index(np.argmax(width), width.shape)
        cut = (lo[ij] + hi[ij]) / 2.0
        for side in (0, 1):
            clo, chi = lo.copy(), hi.copy()
            if side == 0:
                chi[ij] = cut
            else:
                clo[ij] = cut
            clo, chi, ok = _tighten_box(clo, chi, r1, r2)
            if ok:
                push(clo, chi)

    budget_exhausted = bool(heap)
    for bound, _, _, _ in heap:
        leaf_bounds.append(bound)
    if leaf_bounds:
        glob_lb = max(glob_lb, min(min(leaf_bounds), best_v))
    else:
        glob_lb = max(glob_lb, best_v)  # every box explored or hopeless
    slack = max(0.0, best_v - glob_lb)

    return MgpResult(
        lower=lower,
        upper=float(best_v),
        exact=float(best_v),
        slack=float(slack),
        witness_cross=best_c,
        witness_coupling=_coupling(best_flow, wa, wb),
        nodes=nodes,
        budget_exhausted=budget_exhausted,
    )


def mgp_bounds(a: FiniteMmmSpace, b: FiniteMmmSpace, seed: int = 0) -> MgpResult:
    """`mgp_lower` and `mgp_upper` in one result (no certificate).

    The upper bound and its witness cross are those of `mgp_upper`, and the
    witness coupling comes from the Prohorov search that accepted it.
    """
    lower = mgp_lower(a, b)
    upper, coupling, witness = _best_gluing(a, b, seed)
    return MgpResult(lower=lower, upper=upper, witness_cross=witness,
                     witness_coupling=coupling)
