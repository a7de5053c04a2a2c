"""Tests for tightness diagnostics: ball masses, moduli, tails, verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmmspace import (
    FiniteMmmSpace,
    MarkSpace,
    ParameterError,
    Polynomial,
    ball_masses,
    distance_monomial,
    distance_tail,
    empirical_from_samples,
    euclidean_cloud,
    evaluate_mc,
    family_tightness,
    mark_tail,
    modulus_mass,
    sample,
    sample_many,
    sampled_functionals,
    two_sample_test,
)

from conftest import (
    AB_MARKS, BIT_MARKS, nan_cloud, or_none, random_space, relabeled, rough_spaces, two_point,
)


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


def test_ball_masses_reject_non_finite_distances():
    # the NaN pair would count as outside every ball: modulus_mass read 0.333
    for call in (lambda s: ball_masses(s, 0.5), lambda s: modulus_mass(s, 0.5, 0.2)):
        with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
            call(nan_cloud())


def planar_pair():
    """Two atoms of mass 1/2 at distance 1, marked (0, 0) and (3, 4)."""
    return FiniteMmmSpace(distances=np.array([[0.0, 1.0], [1.0, 0.0]]),
                          marks=((0.0, 0.0), (3.0, 4.0)), weights=np.array([0.5, 0.5]),
                          mark_space=MarkSpace.euclidean(2))


def test_mark_tail_rejects_a_non_finite_weight():
    # mark_tail read [nan]: the marginal summed the NaN weight
    s = euclidean_cloud(5, 2, "sign", seed=3)
    w = s.weights.copy()
    w[2] = np.nan
    bad = FiniteMmmSpace(distances=s.distances, marks=s.marks, weights=w,
                         mark_space=s.mark_space, label="nan-weight")
    with pytest.raises(ParameterError, match="'nan-weight': weight 2 = nan is not finite"):
        mark_tail(bad, labels=["+"])
    with pytest.raises(ParameterError, match="'nan-weight'"):
        family_tightness([s, bad], [0.5], [0.25], mark_labels=["+"])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(space=rough_spaces(), order=st.integers(1, 3))
def test_curves_draws_and_the_test_give_finite_values_or_domain_errors(space, order):
    marks = ({"labels": ["a"]} if space.mark_space.kind == "discrete"
             else {"radii": [0.5, 2.0]})
    summed = Polynomial(order=order, body=lambda dist, marks: float(dist.sum()), bound=10.0)
    calls = [
        lambda: evaluate_mc(distance_monomial(0, order - 1, order=order), space, 50, 0),
        lambda: evaluate_mc(summed, space, 50, 1),
        lambda: distance_tail(space, [0.5, 1.0, 1e300]),
        lambda: mark_tail(space, **marks),
        lambda: modulus_mass(space, 0.5, 0.25),
        lambda: family_tightness([space, space], [0.5, 1.0], [0.1, 0.5],
                                 **{"mark_" + k: v for k, v in marks.items()}),
        lambda: two_sample_test(space, space, m=20, permutations=99, seed=2),
        lambda: sample(space, order, 3).dist,
        lambda: [s.dist for s in sample_many(space, order, 4, 3)],
        lambda: np.r_[empirical_from_samples(space, 5, 4).distances.ravel(),
                      empirical_from_samples(space, 5, 4).weights],
        lambda: np.r_[sampled_functionals(space, 20, 5, 0.5).w,
                      sampled_functionals(space, 20, 5, 0.5).z_eps],
    ]
    for call in calls:
        out = or_none(call)
        if hasattr(out, "verdicts"):
            out = np.concatenate([out.modulus.ravel(), out.distance_tail, out.mark_tail])
        elif hasattr(out, "p_value"):
            out = (out.statistic, out.p_value)
        assert out is None or np.isfinite(np.asarray(out, dtype=float)).all()


def test_every_sampler_rejects_a_non_finite_space():
    # sample_many and empirical_from_samples drew NaN distances, and an
    # infinite weight made numpy's choice raise a plain ValueError
    good = euclidean_cloud(6, 2, seed=4)
    inf_weight = FiniteMmmSpace(distances=good.distances, marks=good.marks,
                                weights=np.r_[math.inf, good.weights[1:]],
                                mark_space=good.mark_space, label="inf-weight")
    calls = [
        lambda s: sample(s, 3, 0),
        lambda s: sample_many(s, 3, 2, 0),
        lambda s: empirical_from_samples(s, 5, 0),
        lambda s: sampled_functionals(s, 20, 0, 0.5),
        lambda s: evaluate_mc(distance_monomial(0, 1, order=2), s, 20, 0),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=r"^space 'nan': d\(0,1\) = nan is not finite$"):
            call(nan_cloud())
        with pytest.raises(ParameterError, match=r"^space 'inf-weight': weight 0 = inf is not"):
            call(inf_weight)


def test_every_sampler_rejects_a_negative_weight():
    # numpy's choice raised a plain ValueError, and two_sample_test drew
    # from canonical forms that had dropped the negative atom (p = 0.53)
    neg = FiniteMmmSpace(distances=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5],
                                             [2.0, 1.5, 0.0]]),
                         marks=("a", "b", "a"), weights=np.array([0.6, 0.6, -0.2]),
                         mark_space=AB_MARKS, label="neg")
    good = FiniteMmmSpace(distances=neg.distances, marks=neg.marks,
                          weights=np.array([0.5, 0.3, 0.2]), mark_space=AB_MARKS)
    calls = [
        lambda: sample(neg, 3, 0),
        lambda: sample_many(neg, 3, 2, 0),
        lambda: empirical_from_samples(neg, 5, 0),
        lambda: sampled_functionals(neg, 20, 0, 0.5),
        lambda: evaluate_mc(distance_monomial(0, 1, order=2), neg, 20, 0),
        lambda: two_sample_test(neg, neg, m=20, permutations=99),
        lambda: two_sample_test(good, neg, m=20, permutations=99),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=r"^space 'neg': weight 2 = -0.2 is negative$"):
            call()
    # -0.0 is not negative: its atom is never drawn
    signed_zero = FiniteMmmSpace(distances=neg.distances, marks=neg.marks,
                                 weights=np.array([0.5, -0.0, 0.5]), mark_space=AB_MARKS)
    assert {s.marks[0] for s in sample_many(signed_zero, 1, 200, 0)} == {"a"}


def test_nan_radii_and_thresholds_are_rejected(space_A):
    # every comparison with NaN is false: ball masses read all zeros and
    # both tails read 0
    calls = [
        lambda: ball_masses(space_A, math.nan),
        lambda: modulus_mass(space_A, math.nan, 0.25),
        lambda: distance_tail(space_A, [math.nan]),
        lambda: distance_tail(space_A, [0.5, math.nan]),
        lambda: mark_tail(planar_pair(), radii=[math.nan]),
        lambda: family_tightness([space_A], [math.nan], [0.25]),
        lambda: family_tightness([space_A], [0.5], [math.nan]),
        lambda: family_tightness([space_A], [0.5], [0.25], tail_grid=[math.nan]),
        lambda: family_tightness([space_A], [0.5], [0.25], threshold=math.nan),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_infinite_radii_and_thresholds_stay_legal(space_A):
    assert ball_masses(space_A, math.inf).tolist() == [1.0, 1.0]
    assert distance_tail(space_A, [0.5, math.inf]).tolist() == [0.5, 0.0]
    assert mark_tail(planar_pair(), radii=[4.0, math.inf]).tolist() == [0.5, 0.0]
    report = family_tightness([space_A], [0.5, math.inf], [0.25], threshold=math.inf)
    assert report.tightness_consistent is True


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
