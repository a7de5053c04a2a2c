import numpy as np
import pytest

from mmmspace import FiniteMmmSpace, MarkSpace, euclidean_cloud

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


@pytest.fixture
def space_A():
    """Two points at distance 1, weights 1/2 each, marks 0 and 1."""
    return two_point()


@pytest.fixture
def space_A2():
    """Same as space_A but with distance 2."""
    return two_point(d=2.0, label="two-point-d2")
