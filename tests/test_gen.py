"""Tests for the genealogy and cloud generators."""

import math

import numpy as np
import pytest

from mmmspace import (
    CoalescentConfig,
    MarkSpace,
    MoranConfig,
    ParameterError,
    euclidean_cloud,
    kingman,
    moran,
)

DNA = ("A", "C", "G", "T")


def ultrametric_excess(d):
    """max over triples of d(i,k) - max(d(i,j), d(j,k))."""
    if d.shape[0] < 3:
        return 0.0
    two_leg = np.maximum(d[:, :, None], d[None, :, :])
    return float((d[:, None, :] - two_leg).max())


# --- kingman -----------------------------------------------------------------


def test_kingman_single_leaf():
    space = kingman(CoalescentConfig(leaves=1, seed=3))
    assert space.n == 1
    assert space.distances == pytest.approx(np.zeros((1, 1)))
    assert space.marks[0] in DNA
    assert space.weights == pytest.approx([1.0])


def test_kingman_shape_and_label():
    space = kingman(CoalescentConfig(leaves=7, theta=1.0, seed=11))
    assert space.n == 7
    assert space.mark_space == MarkSpace.discrete(DNA)
    assert space.weights == pytest.approx(np.full(7, 1.0 / 7.0))
    assert space.label == "kingman-n7-seed11"
    d = space.distances
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    off = d[~np.eye(7, dtype=bool)]
    assert off.min() > 0.0


def test_kingman_without_mutation_is_monochrome():
    for seed in range(5):
        space = kingman(CoalescentConfig(leaves=10, theta=0.0, seed=seed))
        assert len(set(space.marks)) == 1


def test_kingman_identity_transition_is_monochrome():
    # mutations fire but never change the type
    eye = np.eye(4)
    space = kingman(CoalescentConfig(leaves=10, theta=5.0, transition=eye,
                                     seed=2))
    assert len(set(space.marks)) == 1


def test_kingman_hot_mutation_varies_marks():
    space = kingman(CoalescentConfig(leaves=30, theta=50.0, seed=4))
    assert len(set(space.marks)) > 1


def test_kingman_is_ultrametric():
    for seed in range(50):
        space = kingman(CoalescentConfig(leaves=25, seed=seed))
        assert ultrametric_excess(space.distances) <= 1e-12, seed


def test_kingman_determinism():
    cfg = CoalescentConfig(leaves=12, theta=2.0, seed=77)
    s1, s2 = kingman(cfg), kingman(cfg)
    assert np.array_equal(s1.distances, s2.distances)
    assert s1.marks == s2.marks
    s3 = kingman(CoalescentConfig(leaves=12, theta=2.0, seed=78))
    assert not np.array_equal(s1.distances, s3.distances)


def test_kingman_pair_distance_is_standard_exponential():
    # two lineages merge at rate 1, so r12 ~ Exp(1); check the mean
    m = 2000
    vals = np.array([
        kingman(CoalescentConfig(leaves=2, seed=s)).distances[0, 1]
        for s in range(m)
    ])
    assert abs(vals.mean() - 1.0) <= 5.0 / math.sqrt(m)


def test_coalescent_config_validation():
    with pytest.raises(ParameterError):
        CoalescentConfig(leaves=0)
    with pytest.raises(ParameterError):
        CoalescentConfig(leaves=2, theta=-1.0)
    with pytest.raises(ParameterError):
        CoalescentConfig(leaves=2, alphabet=())
    with pytest.raises(ParameterError):
        CoalescentConfig(leaves=2, transition=np.ones((2, 2)))
    bad_rows = np.full((4, 4), 0.3)
    with pytest.raises(ParameterError):
        CoalescentConfig(leaves=2, transition=bad_rows)


# --- moran ---------------------------------------------------------------------


def test_moran_tiny_horizon_leaves_everyone_unrelated():
    horizon = 1e-8
    space = moran(MoranConfig(population=6, horizon=horizon, seed=5))
    off = ~np.eye(6, dtype=bool)
    assert np.all(space.distances[off] == 2.0 * horizon)
    assert all(m in DNA for m in space.marks)
    assert space.label == "moran-N6-T1e-08-seed5"


def test_moran_is_ultrametric_with_sentinels():
    for seed in range(30):
        space = moran(MoranConfig(population=8, horizon=1.0, seed=seed))
        assert ultrametric_excess(space.distances) <= 1e-12, seed
        assert space.distances.max() <= 2.0 + 1e-12


def test_moran_determinism():
    cfg = MoranConfig(population=9, horizon=2.0, theta=1.5, seed=31)
    s1, s2 = moran(cfg), moran(cfg)
    assert np.array_equal(s1.distances, s2.distances)
    assert s1.marks == s2.marks


def test_moran_pair_distance_matches_exponential_for_long_horizons():
    # with a horizon of 50 the truncation is invisible: r12 ~ Exp(1)
    m = 500
    vals = np.sort([
        moran(MoranConfig(population=2, horizon=50.0, seed=s)).distances[0, 1]
        for s in range(m)
    ])
    cdf = 1.0 - np.exp(-vals)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    ks = max(float(np.abs(hi - cdf).max()), float(np.abs(lo - cdf).max()))
    assert ks < 0.09  # ~alpha 0.001 Kolmogorov-Smirnov band at m=500


def test_moran_config_validation():
    with pytest.raises(ParameterError):
        MoranConfig(population=1)
    with pytest.raises(ParameterError):
        MoranConfig(population=3, horizon=0.0)
    with pytest.raises(ParameterError):
        MoranConfig(population=3, theta=-0.5)


def test_configs_reject_non_finite_parameters():
    nan, inf = math.nan, math.inf
    with pytest.raises(ParameterError, match="horizon must be finite and positive, got nan"):
        MoranConfig(population=4, horizon=nan, seed=1)
    with pytest.raises(ParameterError, match="horizon must be finite and positive, got inf"):
        MoranConfig(population=4, horizon=inf)
    for config in (CoalescentConfig, MoranConfig):
        size = 3
        for theta in (nan, inf):
            with pytest.raises(ParameterError, match="mutation rate must be finite"):
                config(size, theta=theta)
        with pytest.raises(ParameterError, match="transition rows must be stochastic"):
            config(size, transition=np.full((4, 4), nan))
        rows = np.eye(4)
        rows[1] = [inf, 0.0, 0.0, 0.0]
        with pytest.raises(ParameterError, match="transition rows must be stochastic"):
            config(size, transition=rows)
        with pytest.raises(ParameterError):
            config(nan)
        # a valid transition is kept, read-only
        kept = config(size, theta=1.0, transition=np.eye(4)).transition
        assert np.array_equal(kept, np.eye(4)) and not kept.flags.writeable


# --- euclidean clouds ------------------------------------------------------------


def test_cloud_point_marks_reproduce_the_metric():
    space = euclidean_cloud(8, 3, mark_map="point", seed=6)
    assert space.mark_space == MarkSpace.euclidean(3)
    for i in range(8):
        for j in range(8):
            want = float(np.linalg.norm(
                np.array(space.marks[i]) - np.array(space.marks[j])
            ))
            assert space.distances[i, j] == pytest.approx(want, abs=1e-12)


def test_cloud_sign_marks():
    space = euclidean_cloud(40, 2, mark_map="sign", seed=7)
    assert space.mark_space == MarkSpace.discrete(("-", "+"))
    assert set(space.marks) == {"-", "+"}  # 40 Gaussians hit both signs
    assert space.label == "cloud-n40-d2-seed7"


def test_cloud_constant_and_callable_marks():
    space = euclidean_cloud(5, 2, mark_map="constant", seed=8)
    assert space.marks == ("c",) * 5
    ms = MarkSpace.discrete(("lo", "hi"))
    space = euclidean_cloud(
        5, 2, mark_map=lambda p: "hi" if p[1] >= 0 else "lo", seed=8,
        mark_space=ms,
    )
    assert space.mark_space == ms
    assert set(space.marks) <= {"lo", "hi"}


def test_cloud_metric_is_euclidean():
    space = euclidean_cloud(10, 4, seed=9)
    d = space.distances
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    # triangle inequality
    excess = (d[:, None, :] - d[:, :, None] - d[None, :, :]).max()
    assert excess <= 1e-12


def test_cloud_determinism_and_validation():
    s1 = euclidean_cloud(6, 2, seed=10)
    s2 = euclidean_cloud(6, 2, seed=10)
    assert np.array_equal(s1.distances, s2.distances)
    with pytest.raises(ParameterError):
        euclidean_cloud(0, 2)
    with pytest.raises(ParameterError):
        euclidean_cloud(3, 2, mark_map="nope")
    with pytest.raises(ParameterError):
        euclidean_cloud(3, 2, mark_map=lambda p: "x")
