import math

import numpy as np
import pytest
from hypothesis import strategies as st

from mmmspace import DomainError, FiniteMmmSpace, MarkSpace, euclidean_cloud

BIT_MARKS = MarkSpace.discrete((0, 1))
AB_MARKS = MarkSpace.discrete(("a", "b"))


def two_point(d=1.0, weights=(0.5, 0.5), marks=(0, 1), mark_space=BIT_MARKS,
              label="two-point"):
    return FiniteMmmSpace(
        distances=np.array([[0.0, d], [d, 0.0]]),
        marks=tuple(marks),
        weights=np.asarray(weights, dtype=float),
        mark_space=mark_space,
        label=label,
    )


def nan_cloud():
    """A 6-point Gaussian cloud with d(0, 1) = NaN, labelled "nan"."""
    good = euclidean_cloud(6, 2, seed=4)
    d = good.distances.copy()
    d[0, 1] = d[1, 0] = np.nan
    return FiniteMmmSpace(distances=d, marks=good.marks, weights=good.weights,
                          mark_space=good.mark_space, label="nan")


def dyadic_weights(rng, n, denom=64):
    """Random positive weights summing exactly to 1, all multiples of 1/denom.

    Exact dyadic weights keep the rational path of exact_law honest and
    make float sums reproducible across grouping orders.
    """
    counts = 1 + rng.multinomial(denom - n, [1.0 / n] * n)
    return counts / float(denom)


def random_points_metric(rng, n, dim=3, scale=1.0):
    pts = rng.uniform(0.0, scale, size=(n, dim))
    diffs = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return d


def random_space(rng, max_n=5, labels=("a", "b"), scale=1.0, min_n=1):
    """Random discrete-marked space with dyadic weights; always validates."""
    n = int(rng.integers(min_n, max_n + 1))
    d = random_points_metric(rng, n, scale=scale)
    marks = tuple(labels[t] for t in rng.integers(0, len(labels), size=n))
    return FiniteMmmSpace(
        distances=d,
        marks=marks,
        weights=dyadic_weights(rng, n),
        mark_space=MarkSpace.discrete(labels),
        label=f"random-{n}",
    )


@st.composite
def tiny_spaces(draw):
    """1-4 points on a line (repeated positions allowed), any weights in
    [0, 1] with a positive total, two labels."""
    n = draw(st.integers(1, 4))
    coord = st.floats(0.0, 10.0).filter(lambda v: v == 0.0 or v >= 1e-6)
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
                   .filter(lambda ws: math.fsum(ws) > 0))
    marks = draw(st.lists(st.sampled_from(("a", "b")), min_size=n, max_size=n))
    return FiniteMmmSpace(distances=np.abs(x[:, None] - x[None, :]), marks=marks,
                          weights=weights, mark_space=AB_MARKS)


@st.composite
def tiny_marked_spaces(draw):
    """`tiny_spaces` whose marks are either labels or 2-D Euclidean points
    from a small grid, so that repeated marks are common."""
    space = draw(tiny_spaces())
    if draw(st.booleans()):
        return space
    grid = st.tuples(st.sampled_from((0.0, 0.5, -1.0)), st.sampled_from((0.0, 2.0)))
    marks = draw(st.lists(grid, min_size=space.n, max_size=space.n))
    return FiniteMmmSpace(distances=space.distances, marks=marks, weights=space.weights,
                          mark_space=MarkSpace.euclidean(2))


@st.composite
def rough_spaces(draw):
    """Tiny marked spaces, some with a non-finite, huge or tiny distance,
    zero weights, or weights near either end of the float range."""
    space = draw(tiny_marked_spaces())
    d, w = space.distances.copy(), np.array(space.weights)
    how = draw(st.sampled_from(("plain", "distance", "zero", "scaled")))
    if how == "distance" and space.n > 1:
        d[0, 1] = d[1, 0] = draw(st.sampled_from((np.nan, np.inf, 1e-300, 1e300)))
    elif how == "zero":
        w[:] = 0.0
    elif how == "scaled":
        w *= draw(st.sampled_from((1e-300, 1e300)))
    return FiniteMmmSpace(distances=d, marks=space.marks, weights=w,
                          mark_space=space.mark_space)


def or_none(call):
    """The value of ``call()``, or None if it raises a DomainError."""
    try:
        return call()
    except DomainError:
        return None


def relabeled(space, rng):
    """The same space with atoms in a random order."""
    perm = rng.permutation(space.n)
    return FiniteMmmSpace(
        distances=space.distances[np.ix_(perm, perm)],
        marks=tuple(space.marks[i] for i in perm),
        weights=space.weights[perm],
        mark_space=space.mark_space,
        label=space.label,
    ), perm


def uniform_space(d, label=""):
    """The metric ``d`` with uniform weights and the one mark "c" of the
    constant clouds of `euclidean_cloud`."""
    n = len(d)
    return FiniteMmmSpace(distances=d, marks=("c",) * n, weights=np.full(n, 1 / n),
                          mark_space=MarkSpace.discrete(("c",)), label=label)


def cycle_space(n):
    """The graph metric of the n-cycle, which colour refinement cannot split."""
    steps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return uniform_space(np.minimum(steps, n - steps).astype(float), f"cycle-{n}")


def balanced_tree(levels):
    """The ultrametric of the balanced binary tree on 2**levels leaves: two
    leaves sit at the height of their least common ancestor."""
    i = np.arange(2 ** levels)
    return uniform_space(np.frexp(np.bitwise_xor.outer(i, i))[1].astype(float),
                         f"tree-{2 ** levels}")


def graph_space(rng, n, labels=("a", "b")):
    """The shortest-path metric of a random graph on n vertices, at distance
    n between components, with uniform weights and random labels from
    ``labels``: small graphs of few distinct distances have many
    automorphisms."""
    adj = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8), 1)
    d = np.where(adj | adj.T, 1.0, float(n))
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    marks = tuple(labels[t] for t in rng.integers(0, len(labels), size=n))
    return FiniteMmmSpace(distances=d, marks=marks, weights=np.full(n, 1 / n),
                          mark_space=MarkSpace.discrete(labels), label=f"graph-{n}")


def rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph, at distance 3 from
    each other.  Both are strongly regular with parameters (16, 6, 2, 2), so
    colour refinement cannot tell their atoms apart, but they are not
    isomorphic: the search must try an atom of each."""
    r, c = np.divmod(np.arange(16), 4)
    dr, dc = np.subtract.outer(r, r) % 4, np.subtract.outer(c, c) % 4
    rook = (dr == 0) ^ (dc == 0)
    # Z4 x Z4 with the differences +-(0, 1), +-(1, 0) and +-(1, 1)
    shrikhande = ((dr == 0) | (dc == 0) | (dr == dc)) & ((dr % 2 == 1) | (dc % 2 == 1))
    d = np.full((32, 32), 3.0)
    for k, adj in enumerate((rook, shrikhande)):
        d[16 * k: 16 * k + 16, 16 * k: 16 * k + 16] = np.where(adj, 1.0, 2.0) - 2.0 * np.eye(16)
    return uniform_space(d, "rook+shrikhande")


def hamming_cube(k):
    """The Hamming metric on {0, 1}**k."""
    i = np.arange(2 ** k)
    x = np.bitwise_xor.outer(i, i)
    return uniform_space(sum((x >> b) & 1 for b in range(k)).astype(float), f"cube-{k}")


@pytest.fixture
def space_A():
    """Two points at distance 1, weights 1/2 each, marks 0 and 1."""
    return two_point()


@pytest.fixture
def space_A2():
    """Same as space_A but with distance 2."""
    return two_point(d=2.0, label="two-point-d2")


def rounding_witness(rng, tol, relative):
    """(a, b, c) >= 0 with a violation fl(fl(a - b) - c) > L that the
    reordered sum misses: fl(a - fl(b + c)) <= L, with L = tol max(1, a)
    when ``relative`` and tol otherwise.  Searched near the tight c."""
    for _ in range(100000):
        a = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(0.0, a))
        limit = tol * max(1.0, a) if relative else tol
        for ulps in range(-4, 5):
            c = (a - b) - limit
            c += ulps * float(np.spacing(c))
            if c >= 0.0 and (a - b) - c > limit >= a - (b + c):
                return a, b, c
    raise AssertionError("no rounding witness found")


def witness_metric(a, b, c, n=40):
    """Points 0, 1, 2 at d(0,1) = b, d(1,2) = c, d(0,2) = a, and n - 3 points
    at distance 1 from each other and 50 from those three: the only
    triangle that can break is (0, 1, 2)."""
    d = np.full((n, n), 1.0)
    d[:3, :] = d[:, :3] = 50.0
    d[:3, :3] = [[0.0, b, a], [b, 0.0, c], [a, c, 0.0]]
    np.fill_diagonal(d, 0.0)
    return d
