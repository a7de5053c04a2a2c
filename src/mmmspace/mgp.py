"""Marked Gromov-Prohorov distance between finite spaces.

The distance is the infimum, over metric gluings of the two point sets,
of the Prohorov distance between the pushforward measures on the glued
space crossed with the mark space (metric = glued distance + mark
distance).  A gluing is determined by its cross matrix C; the four
triangle-inequality families tie C to the two given metrics.  The
Prohorov objective depends on the gluing only through the matrix
M = C + mark offsets.

Upper bounds come from correspondence gluings, which put every pair of a
relation R at half its distortion dis(R) or closer, and lower bounds from
projections to the mark marginal and the pair-distance law.  With 0/1
mark distances a gluing below 1 matches only equal-mark points, and no
gluing brings the pairs of R closer than dis(R)/2, so `mgp_exact`
computes the distance as a finite minimum over relations.
"""

from __future__ import annotations

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
    FLOW_SCALE, _check_probs, _coupling, _cut_excluded_mass, _integer_masses,
    _line_flow_mass, _max_flow_mass, _prohorov_search, _require_finite_entries,
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

    The full (N1+N2) matrix must be finite (ParameterError otherwise),
    satisfy every triangle inequality within ``tol`` and have nonnegative
    cross entries; violations raise GluingError naming the worst triple.
    The triangle check holds O((N1+N2)^2) memory.
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
    excess, idx = _triangle_excess(_require_finite_entries(g.z_metric(), "glued metric"))
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
    C13[i, k] = min_j C12[i, j] + C23[j, k].  The result is finite
    (ParameterError otherwise) and satisfies every triangle inequality
    (validated within ``tol``).
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
    excess, idx = _triangle_excess(_require_finite_entries(z, "glued metric"))
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


def _candidate_pairs(a: FiniteMmmSpace, b: FiniteMmmSpace):
    """The correspondences of `mgp_upper`, in its order, repeats included."""
    cost = _profile_cost(a, b)
    if a.n == b.n <= 8:
        perm = _find_isometry(a, b, atol=1e-9)
        if perm is not None:
            yield [(i, perm[i]) for i in range(a.n)]
    row, col = linear_sum_assignment(cost)
    yield list(zip(row.tolist(), col.tolist()))
    support = _greedy_coupling_pairs(cost, a.weights, b.weights)
    yield support
    by_i: dict[int, int] = {}
    for i, j in support:
        by_i.setdefault(i, j)
    yield list(by_i.items())
    yield from _pruned(a, b, support)


def _candidate_crosses(a: FiniteMmmSpace, b: FiniteMmmSpace):
    """The correspondence gluings of `_candidate_pairs`, each pair set once
    (`correspondence_cross` depends only on the set), then the all-pairs
    gluing: the candidates of `_best_gluing`."""
    seen = set()
    for pairs in _candidate_pairs(a, b):
        key = frozenset(pairs)
        if key and key not in seen:
            seen.add(key)
            yield correspondence_cross(a, b, pairs)[0]
    yield _all_pairs_cross(a, b)


def _best_gluing(a: FiniteMmmSpace, b: FiniteMmmSpace):
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
    for c in _candidate_crosses(a, b):
        got = _prohorov_search(c + off, ca, cb, value)
        if got is not None:
            (value, flow), cross = got, c
    glue(a, b, cross)  # witness must validate; raises if not
    return float(value), _coupling(flow, a.weights, b.weights), cross


def mgp_upper(a: FiniteMmmSpace, b: FiniteMmmSpace):
    """Upper bound on the marked Gromov-Prohorov distance.

    Evaluates the Prohorov distance across one list of correspondence
    gluings (see `correspondence_cross`): the isometry when n1 = n2 <= 8,
    the profile assignment, the greedy coupling support, its first pair
    per row and the prune chain of the support (`_pruned`), each pair set
    once, then the all-pairs gluing.  Returns (best value, witness cross
    matrix); the first strict minimum in that order wins.  A candidate
    after the first costs one max-flow against the incumbent
    (`_prohorov_search`) unless it is strictly better.  The witness passes
    `glue`.  The result depends on the two spaces alone.
    Memory is O(N1 N2 (N1 + N2)).  NaN/inf entries and a nonpositive total weight
    raise ParameterError, weights that do not sum to 1 MarginalError.

    The all-pairs gluing is the constant max(diam1, diam2)/2: on metrics
    with a zero diagonal and nonnegative entries all pairs have distortion
    max(diam1, diam2), and the k=i, l=j term of the min is the least.
    """
    value, _, cross = _best_gluing(a, b)
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
# exact value (tiny discrete-marked spaces)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MgpResult:
    """Bounds (and optionally a certified value) for one space pair.

    `mgp_exact` also reports its work: ``nodes``, the max-flows it ran,
    and ``budget_exhausted``, whether its flow budget stopped the scan
    before every relation that could beat ``exact`` was tried.
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


def _maximal_cliques(adj: list) -> list:
    """Maximal cliques, as bitmasks, of the graph whose vertex v has the
    neighbour bitmask ``adj[v]`` (no self loops): Bron-Kerbosch with the
    highest vertex of P | X as pivot."""
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(r)
            return
        pivot = (p | x).bit_length() - 1
        rest = p & ~adj[pivot]
        while rest:
            v = rest & -rest
            n = adj[v.bit_length() - 1]
            expand(r | v, p & n, x & n)
            p, x, rest = p & ~v, x | v, rest & ~v

    expand(0, (1 << len(adj)) - 1, 0)
    return cliques


def mgp_exact(a: FiniteMmmSpace, b: FiniteMmmSpace, budget: int = 4000) -> MgpResult:
    """Marked Gromov-Prohorov distance of tiny discrete pairs, by a finite scan.

    Requires discrete marks and at most 6 points in total.  Let Z be the
    pairs (i, j) with equal marks, dis(S) the distortion of a relation S
    in Z (max over (i, j), (k, l) in S of |r1(i, k) - r2(j, l)|) and g(S)
    the excluded mass of the integer max-flow with only S admissible.
    The distance is min(1, min over nonempty S of max(dis(S)/2, g(S))):

    * a gluing and coupling at some eps < 1 keep S = {C + marks <= eps}
      inside Z (mark distances are 0 or 1), the triangle inequality gives
      dis(S)/2 <= eps and the coupling g(S) <= eps;
    * `correspondence_cross` of S puts every pair of S at dis(S)/2 or
      below, so its Prohorov distance is at most max(dis(S)/2, g(S)).

    The scan takes the distinct levels d of |r1 - r2|/2 over pairs of Z in
    increasing order and stops at the first d that is not below the best
    value.  At level d it runs one flow per maximal clique of the graph on
    Z joining pairs within d, since g only falls as S grows.  A clique met
    at an earlier level, or whose `_cut_excluded_mass` already reaches the
    best value, can improve nothing and runs no flow.

    The witness is `correspondence_cross` of the best relation, or the
    all-pairs gluing when no relation beats 1; ``exact`` and ``upper`` are
    its Prohorov distance and the coupling comes from that search.
    ``budget`` caps the flows; ``nodes`` counts those run and
    ``budget_exhausted`` says whether the cap stopped the scan.  Stopped at
    level d, the distance lies in [max(lower, min(exact, d)), exact] and
    ``slack`` is the width of that bracket; otherwise ``slack`` is 0.
    """
    if a.mark_space != b.mark_space:
        raise ParameterError("both spaces must share the mark space")
    if a.mark_space.kind != "discrete":
        raise TooLargeError("certified search supports discrete mark spaces only")
    if a.n + b.n > EXACT_SIZE_BOUND:
        raise TooLargeError(
            f"certified search is limited to {EXACT_SIZE_BOUND} points in total"
        )
    lower = mgp_lower(a, b)
    off = a.mark_space.cross_distances(a.marks, b.marks)
    ca, cb = _integer_masses(a.weights), _integer_masses(b.weights)
    zi, zj = np.nonzero(off == 0.0)
    half = np.abs(a.distances[np.ix_(zi, zi)] - b.distances[np.ix_(zj, zj)]) / 2.0
    half = np.maximum(half, half.T)
    loops = np.eye(len(zi), dtype=bool)
    bits = 1 << np.arange(len(zi), dtype=np.int64)

    best, best_members, flows, stopped_at, seen = 1.0, None, 0, None, set()
    for level in np.unique(half).tolist():
        if level >= best or stopped_at is not None:
            break
        adj = (((half <= level) & ~loops) @ bits).tolist()
        for clique in _maximal_cliques(adj):
            if level >= best:
                break
            if clique in seen:
                continue
            members = [k for k in range(len(zi)) if clique >> k & 1]
            admissible = np.zeros(off.shape, dtype=bool)
            admissible[zi[members], zj[members]] = True
            if _cut_excluded_mass(ca, cb, admissible) < best:
                if flows >= budget:
                    stopped_at = level
                    break
                flows += 1
                g = max(0.0, 1.0 - _max_flow_mass(ca, cb, admissible)[0] / FLOW_SCALE)
                if max(level, g) < best:
                    best, best_members = max(level, g), members
            seen.add(clique)

    if best_members:
        cross = correspondence_cross(a, b, zip(zi[best_members], zj[best_members]))[0]
    else:
        cross = _all_pairs_cross(a, b)
    exact, flow = _prohorov_search(cross + off, ca, cb)
    floor = exact if stopped_at is None else max(lower, min(exact, stopped_at))
    return MgpResult(
        lower=lower,
        upper=float(exact),
        exact=float(exact),
        slack=float(max(0.0, exact - floor)),
        witness_cross=cross,
        witness_coupling=_coupling(flow, a.weights, b.weights),
        nodes=flows,
        budget_exhausted=stopped_at is not None,
    )


def mgp_bounds(a: FiniteMmmSpace, b: FiniteMmmSpace) -> MgpResult:
    """`mgp_lower` and `mgp_upper` in one result (no certificate).

    The upper bound and its witness cross are those of `mgp_upper`, and the
    witness coupling comes from the Prohorov search that accepted it.
    """
    lower = mgp_lower(a, b)
    upper, coupling, witness = _best_gluing(a, b)
    return MgpResult(lower=lower, upper=upper, witness_cross=witness,
                     witness_coupling=coupling)
