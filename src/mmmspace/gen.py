"""Random space generators: coalescent genealogies and Gaussian clouds.

Distances follow the one-way convention r(i, j) = time to the most
recent common ancestor.  Mutation marks default to a parent-independent
("house of cards") model on a finite alphabet: mutation events fall as a
Poisson process of rate theta per lineage per unit time, and each event
redraws the type from the transition row of the current one (uniform
rows by default).  The mutation mechanism is a package default, not a
modeling claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteMmmSpace, MarkSpace
from .errors import ParameterError

__all__ = [
    "CoalescentConfig",
    "MoranConfig",
    "kingman",
    "moran",
    "euclidean_cloud",
]

DNA = ("A", "C", "G", "T")


def _check_mutation(config) -> None:
    """Checks shared by both configs: finite ``theta`` >= 0, a nonempty
    ``alphabet``, and a finite stochastic ``transition`` (stored read-only)."""
    if not 0 <= config.theta < math.inf:
        raise ParameterError(f"mutation rate must be finite and nonnegative, got {config.theta!r}")
    if not config.alphabet:
        raise ParameterError("alphabet must be nonempty")
    if config.transition is None:
        return
    k = len(config.alphabet)
    t = np.asarray(config.transition, dtype=float)
    if t.shape != (k, k):
        raise ParameterError(f"transition matrix must be {k}x{k}")
    if not (t >= 0).all() or not np.abs(t.sum(axis=1) - 1.0).max() <= 1e-9:
        raise ParameterError("transition rows must be stochastic")
    t.flags.writeable = False
    object.__setattr__(config, "transition", t)


@dataclass(frozen=True)
class CoalescentConfig:
    """Kingman coalescent: ``leaves`` lineages, pairwise coalescence rate 1."""

    leaves: int
    theta: float = 0.0
    alphabet: tuple = DNA
    transition: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.leaves >= 1:
            raise ParameterError("need at least one leaf")
        _check_mutation(self)


@dataclass(frozen=True)
class MoranConfig:
    """Moran genealogy of ``population`` individuals observed at one time.

    Simulated through its ancestral dual: the coalescent (unordered pairs
    merge at rate 1) run backward for ``horizon`` time units.  Pairs
    without a common ancestor by then sit at the sentinel distance
    2*horizon from each other, which keeps the matrix ultrametric: any
    two founder families are equally unrelated.
    """

    population: int
    horizon: float = 10.0
    theta: float = 0.0
    alphabet: tuple = DNA
    transition: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.population >= 2:
            raise ParameterError("population must be at least 2")
        if not 0 < self.horizon < math.inf:
            raise ParameterError(f"horizon must be finite and positive, got {self.horizon!r}")
        _check_mutation(self)


# ---------------------------------------------------------------------------
# the shared backward construction
# ---------------------------------------------------------------------------

def _simulate_coalescent(k: int, rng, horizon: float | None = None):
    """Coalescent from k lineages; returns (distances, nodes, root ids).

    Every unordered pair of active lineages merges at rate 1.  Distances
    are filled with the merge time for each newly related leaf pair; with
    a horizon, unresolved pairs keep the 2*horizon sentinel.  Nodes carry
    (birth time, child ids, leaf ids below); leaves are nodes 0..k-1.
    """
    dist = np.zeros((k, k))
    if horizon is not None:
        dist += 2.0 * horizon
        np.fill_diagonal(dist, 0.0)
    nodes = [{"birth": 0.0, "children": (), "leaves": (i,)} for i in range(k)]
    active = list(range(k))
    t = 0.0
    while len(active) > 1:
        m = len(active)
        t += rng.exponential(2.0 / (m * (m - 1)))
        if horizon is not None and t > horizon:
            break
        pos = rng.choice(m, size=2, replace=False)
        a, b = active[int(pos[0])], active[int(pos[1])]
        la, lb = nodes[a]["leaves"], nodes[b]["leaves"]
        dist[np.ix_(la, lb)] = t
        dist[np.ix_(lb, la)] = t
        nodes.append({"birth": t, "children": (a, b), "leaves": la + lb})
        active = [x for x in active if x != a and x != b]
        active.append(len(nodes) - 1)
    return dist, nodes, active


def _mutate_along(type_index: int, length: float, theta: float, trans, k: int, rng):
    if theta <= 0 or length <= 0:
        return type_index
    for _ in range(rng.poisson(theta * length)):
        if trans is None:
            type_index = int(rng.integers(k))
        else:
            type_index = int(rng.choice(k, p=trans[type_index]))
    return type_index


def _leaf_types(nodes, roots, n_leaves, theta, alphabet, trans, rng, top_of):
    """Root-to-leaf type propagation; returns the leaf marks in leaf order.

    ``top_of(node)`` gives the branch length above a root (0 for a
    complete tree, horizon minus birth for a truncated forest).
    """
    k = len(alphabet)
    marks = [None] * n_leaves
    for root in sorted(roots):
        start = _mutate_along(
            int(rng.integers(k)), top_of(nodes[root]), theta, trans, k, rng
        )
        stack = [(root, start)]
        while stack:
            node_id, type_index = stack.pop()
            node = nodes[node_id]
            if not node["children"]:
                marks[node_id] = alphabet[type_index]
                continue
            for child in node["children"]:
                length = node["birth"] - nodes[child]["birth"]
                stack.append(
                    (child, _mutate_along(type_index, length, theta, trans, k, rng))
                )
    return tuple(marks)


def kingman(config: CoalescentConfig) -> FiniteMmmSpace:
    """One Kingman n-coalescent genealogy with mutation marks.

    r(i, j) is the TMRCA of leaves i and j, so the output is ultrametric
    and, for n = 2, r(1, 2) is a standard exponential.  Weights uniform.
    """
    rng = np.random.default_rng(config.seed)
    n = config.leaves
    dist, nodes, roots = _simulate_coalescent(n, rng)
    marks = _leaf_types(
        nodes, roots, n, config.theta, config.alphabet, config.transition, rng,
        top_of=lambda node: 0.0,
    )
    return FiniteMmmSpace(
        distances=dist,
        marks=marks,
        weights=np.full(n, 1.0 / n),
        mark_space=MarkSpace.discrete(config.alphabet),
        label=f"kingman-n{n}-seed{config.seed}",
    )


def moran(config: MoranConfig) -> FiniteMmmSpace:
    """One Moran-model genealogy via its backward coalescent dual.

    Runs the pairwise-rate-1 coalescent for ``horizon`` time units;
    founder lineages still alive then carry independent uniform types,
    mutated down the forest as in `kingman`.  Unresolved pairs get the
    2*horizon sentinel distance (see `MoranConfig`).
    """
    rng = np.random.default_rng(config.seed)
    n = config.population
    dist, nodes, roots = _simulate_coalescent(n, rng, horizon=config.horizon)
    marks = _leaf_types(
        nodes, roots, n, config.theta, config.alphabet, config.transition, rng,
        top_of=lambda node: config.horizon - node["birth"],
    )
    return FiniteMmmSpace(
        distances=dist,
        marks=marks,
        weights=np.full(n, 1.0 / n),
        mark_space=MarkSpace.discrete(config.alphabet),
        label=f"moran-N{n}-T{config.horizon:g}-seed{config.seed}",
    )


# ---------------------------------------------------------------------------
# non-ultrametric corpus
# ---------------------------------------------------------------------------

def euclidean_cloud(
    n: int,
    dim: int,
    mark_map="sign",
    seed: int = 0,
    mark_space: MarkSpace | None = None,
) -> FiniteMmmSpace:
    """n standard Gaussian points in R^dim with uniform weights.

    ``mark_map`` picks the marks: "sign" (discrete "-"/"+" by the first
    coordinate), "point" (the point itself, Euclidean mark space of the
    same dimension), "constant" (single label "c"), or a callable
    point -> mark, in which case ``mark_space`` is required.
    """
    if n < 1 or dim < 1:
        raise ParameterError("need n >= 1 points in dimension >= 1")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, dim))
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    if callable(mark_map):
        if mark_space is None:
            raise ParameterError("a callable mark_map needs an explicit mark_space")
        marks = tuple(mark_map(p) for p in points)
    elif mark_map == "sign":
        mark_space = MarkSpace.discrete(("-", "+"))
        marks = tuple("+" if p[0] >= 0 else "-" for p in points)
    elif mark_map == "point":
        mark_space = MarkSpace.euclidean(dim)
        marks = tuple(tuple(float(x) for x in p) for p in points)
    elif mark_map == "constant":
        mark_space = MarkSpace.discrete(("c",))
        marks = ("c",) * n
    else:
        raise ParameterError(f"unknown mark_map {mark_map!r}")
    return FiniteMmmSpace(
        distances=dist,
        marks=marks,
        weights=np.full(n, 1.0 / n),
        mark_space=mark_space,
        label=f"cloud-n{n}-d{dim}-seed{seed}",
    )
