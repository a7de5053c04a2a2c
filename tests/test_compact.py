"""Tests for tightness diagnostics: ball masses, moduli, tails, verdicts."""

import math

import numpy as np
import pytest

from mmmspace import (
    FiniteMmmSpace,
    MarkSpace,
    ParameterError,
    ball_masses,
    distance_tail,
    family_tightness,
    mark_tail,
    modulus_mass,
    sampled_functionals,
)

from conftest import AB_MARKS, BIT_MARKS, nan_cloud, random_space, relabeled, two_point


def path_space(n_points, spacing, label="path"):
    """Uniform measure on n evenly spaced points on a line, one mark."""
    xs = np.arange(n_points) * spacing
    d = np.abs(xs[:, None] - xs[None, :])
    return FiniteMmmSpace(
        distances=d,
        weights=np.full(n_points, 1.0 / n_points),
        marks=("a",) * n_points,
        mark_space=AB_MARKS,
        label=label,
    )


# --- frozen values on the balanced two-point space ---------------------------


def test_ball_masses(space_A):
    assert ball_masses(space_A, 0.5) == pytest.approx([0.5, 0.5])
    assert ball_masses(space_A, 1.5) == pytest.approx([1.0, 1.0])
    # the ball is open: radius exactly 1 excludes the other atom
    assert ball_masses(space_A, 1.0) == pytest.approx([0.5, 0.5])
    with pytest.raises(ParameterError):
        ball_masses(space_A, 0.0)


def test_modulus_frozen_values(space_A):
    # both atoms carry ball mass 1/2, so the modulus jumps at delta = 1/2
    assert modulus_mass(space_A, 0.5, 0.25) == 0.0
    assert modulus_mass(space_A, 0.5, 0.5) == 1.0
    assert modulus_mass(space_A, 1.5, 0.25) == 0.0
    with pytest.raises(ParameterError):
        modulus_mass(space_A, 0.5, 1.5)


def test_distance_tail_frozen_values(space_A):
    # r12 = 1 exactly when the two draws differ: probability 1/2
    assert distance_tail(space_A, [0.5]) == pytest.approx([0.5])
    assert distance_tail(space_A, [0.25, 0.5, 1.0]) == pytest.approx(
        [0.5, 0.5, 0.0]
    )
    with pytest.raises(ParameterError):
        distance_tail(space_A, [])
    with pytest.raises(ParameterError):
        distance_tail(space_A, [0.5, 0.5])


def test_mark_tail_discrete(space_A):
    assert mark_tail(space_A, labels=(0,)) == pytest.approx([0.5])
    assert mark_tail(space_A, labels=(0, 1)) == pytest.approx([0.0])
    with pytest.raises(ParameterError):
        mark_tail(space_A, radii=[1.0])  # discrete space wants labels
    with pytest.raises(ParameterError):
        mark_tail(space_A)


def test_mark_tail_euclidean():
    euc = MarkSpace.euclidean(2)
    space = two_point(marks=((0.0, 0.0), (3.0, 4.0)), mark_space=euc,
                      weights=(0.25, 0.75), label="euc")
    # second mark has norm 5
    assert mark_tail(space, radii=[1.0, 5.0, 6.0]) == pytest.approx(
        [0.75, 0.0, 0.0]
    )
    with pytest.raises(ParameterError):
        mark_tail(space, labels=("a",))
    with pytest.raises(ParameterError):
        mark_tail(space, radii=[2.0, 1.0])


def test_one_point_space_is_trivially_tight():
    pt = FiniteMmmSpace(
        distances=np.zeros((1, 1)), weights=np.array([1.0]), marks=("a",),
        mark_space=AB_MARKS, label="pt",
    )
    assert modulus_mass(pt, 0.1, 0.5) == 0.0
    assert distance_tail(pt, [0.01, 1.0]) == pytest.approx([0.0, 0.0])
    assert mark_tail(pt, labels=("a",)) == pytest.approx([0.0])


# --- structure and monotonicity ----------------------------------------------


def test_modulus_monotone():
    rng = np.random.default_rng(44)
    for _ in range(15):
        space = random_space(rng, max_n=6, min_n=2)
        eps_values = [0.1, 0.3, 0.9, 2.7]
        deltas = [0.0, 0.25, 0.5, 1.0]
        for delta in deltas:
            curve = [modulus_mass(space, e, delta) for e in eps_values]
            assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
        for eps in eps_values:
            curve = [modulus_mass(space, eps, d) for d in deltas]
            assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))


def test_distance_tail_vanishes_past_the_diameter():
    rng = np.random.default_rng(45)
    for _ in range(10):
        space = random_space(rng, max_n=6, min_n=2)
        diam = float(space.distances.max())
        # the law aggregates distances at 12 significant digits, so probe
        # just past the diameter rather than exactly at it
        past = diam * (1.0 + 1e-9)
        tail = distance_tail(space, [diam / 2 + 1e-9, past, diam + 1.0])
        assert all(x >= y - 1e-12 for x, y in zip(tail, tail[1:]))
        assert tail[-1] == 0.0
        assert tail[-2] == 0.0


def test_curves_split_by_component():
    # modulus and distance tail ignore marks; mark tail ignores distances
    rng = np.random.default_rng(46)
    space = random_space(rng, max_n=5, min_n=3)
    remarked = FiniteMmmSpace(
        distances=space.distances, weights=space.weights,
        marks=("b",) * space.n, mark_space=space.mark_space, label="remarked",
    )
    assert modulus_mass(space, 0.4, 0.3) == modulus_mass(remarked, 0.4, 0.3)
    assert distance_tail(space, [0.2, 0.7]) == pytest.approx(
        distance_tail(remarked, [0.2, 0.7])
    )
    rescaled = FiniteMmmSpace(
        distances=space.distances * 7.0, weights=space.weights,
        marks=space.marks, mark_space=space.mark_space, label="rescaled",
    )
    assert mark_tail(space, labels=("a",)) == pytest.approx(
        mark_tail(rescaled, labels=("a",))
    )


# --- family reports -----------------------------------------------------------


def test_singleton_family_reproduces_the_curves(space_A):
    eps = [0.5, 1.5]
    deltas = [0.25, 0.5]
    report = family_tightness([space_A], eps, deltas, mark_labels=(0, 1))
    want = [[modulus_mass(space_A, e, d) for e in eps] for d in deltas]
    assert report.modulus == pytest.approx(np.array(want))
    assert report.distance_tail == pytest.approx(distance_tail(space_A, eps))
    assert report.mark_tail == pytest.approx([0.0])
    assert report.verdicts["mark_tail"] is True
    assert report.tail_grid == pytest.approx(eps)


def test_family_sup_is_relabel_invariant():
    rng = np.random.default_rng(48)
    space = random_space(rng, max_n=5, min_n=3)
    twin, _ = relabeled(space, rng)
    eps = [0.2, 0.6, 1.8]
    deltas = [0.1, 0.4]
    solo = family_tightness([space], eps, deltas)
    both = family_tightness([space, twin], eps, deltas)
    assert both.modulus == pytest.approx(solo.modulus)
    assert both.distance_tail == pytest.approx(solo.distance_tail)
    assert both.mark_tail.size == 0
    assert "mark_tail" not in both.verdicts


def test_growing_diameters_fail_the_distance_tail():
    family = [
        two_point(d=2.0 ** k, marks=("a", "b"), mark_space=AB_MARKS,
                  label=f"spread-{k}")
        for k in range(6)
    ]
    report = family_tightness(family, [0.25, 1.0, 4.0], [0.01, 0.25])
    # the largest member keeps half the pair mass beyond every threshold
    assert report.distance_tail[-1] == pytest.approx(0.5)
    assert report.verdicts["distance_tail"] is False
    assert report.tightness_consistent is False


def test_shrinking_spacing_family_is_tightness_consistent():
    family = [path_space(8, spacing=1.0 / k, label=f"path-{k}")
              for k in range(1, 6)]
    report = family_tightness(
        family, [0.5, 2.0, 8.0], [0.02, 0.25], mark_labels=("a", "b"),
    )
    assert report.verdicts["modulus"] is True
    assert report.verdicts["distance_tail"] is True
    assert report.verdicts["mark_tail"] is True
    assert report.tightness_consistent is True


def test_distance_tail_rejects_non_finite_distances():
    # the NaN pair carries mass 1/18 that `values > t` would silently drop
    with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
        distance_tail(nan_cloud(), [0.0])


def test_family_validation(space_A):
    with pytest.raises(ParameterError):
        family_tightness([], [0.5], [0.25])
    with pytest.raises(ParameterError):
        family_tightness([space_A], [0.0, 0.5], [0.25])
    with pytest.raises(ParameterError):
        family_tightness([space_A], [0.5], [0.5, 0.25])
    with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
        family_tightness([space_A, nan_cloud()], [0.5], [0.25])


# --- sampled functionals --------------------------------------------------------


def test_sampled_functionals_frozen_ball_mass(space_A):
    s = sampled_functionals(space_A, 64, seed=11, eps=0.5)
    assert np.all(s.z_eps == 0.5)
    assert len(s.v) == 64
    assert s.w.shape == (64,)
    assert set(s.w.tolist()) <= {0.0, 1.0}


def test_sampled_functionals_match_the_laws(space_A):
    n = 4000
    s = sampled_functionals(space_A, n, seed=2, eps=0.5)
    # P(w = 1) = 1/2 and P(v = 0) = 1/2, both within 5 binomial sigmas
    tol = 5.0 * 0.5 / math.sqrt(n)
    assert abs(float(np.mean(s.w)) - 0.5) <= tol
    assert abs(sum(1 for v in s.v if v == 0) / n - 0.5) <= tol


def test_sampled_ball_mass_mean_matches_expectation():
    rng = np.random.default_rng(19)
    space = random_space(rng, max_n=5, min_n=3)
    eps = 0.7
    exact = float(ball_masses(space, eps) @ space.weights)
    s = sampled_functionals(space, 4000, seed=8, eps=eps)
    assert abs(float(s.z_eps.mean()) - exact) <= 5.0 / math.sqrt(4000)


def test_sampled_functionals_determinism(space_A):
    s1 = sampled_functionals(space_A, 32, seed=9, eps=0.5)
    s2 = sampled_functionals(space_A, 32, seed=9, eps=0.5)
    s3 = sampled_functionals(space_A, 32, seed=10, eps=0.5)
    assert s1.v == s2.v
    assert np.array_equal(s1.w, s2.w)
    assert not np.array_equal(s1.w, s3.w)
    with pytest.raises(ParameterError):
        sampled_functionals(space_A, 0, seed=1, eps=0.5)
