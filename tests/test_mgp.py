"""Tests for gluings, the distance bounds, and the certified tiny-case solver."""

import math
import tracemalloc

import numpy as np
import pytest

import mmmspace.core
from mmmspace import (
    CoalescentConfig,
    FiniteMmmSpace,
    GluedSpace,
    GluingError,
    MarkSpace,
    MgpResult,
    ParameterError,
    TooLargeError,
    correspondence_cross,
    euclidean_cloud,
    glue,
    glue_three,
    is_equivalent_exact,
    kingman,
    mgp_bounds,
    mgp_exact,
    mgp_lower,
    mgp_upper,
    two_sample_test,
)
from mmmspace.mgp import _all_pairs_cross

from conftest import AB_MARKS, random_space, relabeled, two_point


def one_point(mark, mark_space=AB_MARKS, label="pt"):
    return FiniteMmmSpace(
        distances=np.zeros((1, 1)),
        weights=np.array([1.0]),
        marks=(mark,),
        mark_space=mark_space,
        label=label,
    )


def random_pair(rng, max_n=3):
    a = random_space(rng, max_n=max_n, min_n=1)
    b = random_space(rng, max_n=max_n, min_n=1)
    return a, b


# --- gluing -----------------------------------------------------------------


def test_glue_accepts_a_valid_cross(space_A):
    g = glue(space_A, space_A, np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = g.z_metric()
    assert z.shape == (4, 4)
    assert np.allclose(z, z.T)
    assert z[0, 2] == 0.0 and z[0, 3] == 1.0


def test_glue_rejects_triangle_violation(space_A):
    pt = one_point(0, mark_space=space_A.mark_space)
    # d(x0, x1) = 1 but the cross claims 0 and 5: the 5 side overshoots
    # the route through x0 by 4.
    with pytest.raises(GluingError) as err:
        glue(space_A, pt, np.array([[0.0], [5.0]]))
    assert err.value.excess == pytest.approx(4.0, abs=1e-12)
    assert len(err.value.indices) == 3


def test_glue_names_the_first_worst_triple_of_the_full_scan(monkeypatch):
    # blocks of 4 rows over the 30-point glued metric; integer distances
    # make many triples tie for the worst excess, so the first one in C
    # order must win as in argmax over the full n^3 tensor
    monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", 4 * 30 * 30)
    rng = np.random.default_rng(5)
    path = np.abs(np.subtract.outer(np.arange(15.0), np.arange(15.0)))
    a = FiniteMmmSpace(distances=path, marks=("a",) * 15,
                       weights=np.full(15, 1 / 15), mark_space=AB_MARKS)
    for _ in range(10):
        cross = rng.integers(0, 8, size=(15, 15)).astype(float)
        z = GluedSpace(left=a, right=a, cross=cross).z_metric()
        excess = z[:, None, :] - z[:, :, None] - z[None, :, :]
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        with pytest.raises(GluingError) as err:
            glue(a, a, cross)
        assert err.value.indices == tuple(int(t) for t in worst)
        assert err.value.excess == excess[worst]


def test_glue_rejects_negative_cross(space_A):
    with pytest.raises(GluingError) as err:
        glue(space_A, space_A, np.array([[0.0, 1.0], [1.0, -0.2]]))
    assert err.value.excess == pytest.approx(0.2, abs=1e-12)


def test_glue_clamps_float_noise(space_A):
    g = glue(space_A, space_A, np.array([[-1e-12, 1.0], [1.0, 0.0]]))
    assert g.cross.min() == 0.0


def test_glue_parameter_checks(space_A):
    with pytest.raises(ParameterError):
        glue(space_A, space_A, np.zeros((2, 3)))
    other = two_point(marks=("a", "b"), mark_space=AB_MARKS, label="ab")
    with pytest.raises(ParameterError):
        glue(space_A, other, np.zeros((2, 2)))


def test_product_measures_add_mark_offsets(space_A):
    g = GluedSpace(left=space_A, right=space_A, cross=np.zeros((2, 2)))
    m, wp, wq = g.product_measures()
    # same-mark pairs cost 0, cross-mark pairs cost 1
    assert m == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert wp == pytest.approx(space_A.weights)
    assert wq == pytest.approx(space_A.weights)


def test_glue_three_routes_through_the_middle(space_A):
    eye = np.array([[0.0, 1.0], [1.0, 0.0]])
    g12 = glue(space_A, space_A, eye)
    g23 = glue(space_A, space_A, eye)
    z = glue_three(g12, g23)
    assert z.shape == (6, 6)
    # outer block is the min-sum through the middle: identity chain
    assert z[:2, 4:] == pytest.approx(eye)
    assert np.allclose(z, z.T)


def test_glue_three_needs_matching_middle(space_A):
    eye = np.array([[0.0, 1.0], [1.0, 0.0]])
    g12 = glue(space_A, space_A, eye)
    other = two_point(weights=(0.25, 0.75))
    g23 = glue(other, space_A, eye)
    with pytest.raises(ParameterError):
        glue_three(g12, g23)


# --- correspondences ---------------------------------------------------------


def test_correspondence_default_beta_is_half_distortion(space_A, space_A2):
    pairs = [(0, 0), (1, 1)]
    cross, beta, dis = correspondence_cross(space_A, space_A2, pairs)
    assert dis == pytest.approx(1.0)  # |1 - 2| on the matched pair
    assert beta == pytest.approx(0.5)
    glue(space_A, space_A2, cross)  # always admissible
    with pytest.raises(ParameterError):
        correspondence_cross(space_A, space_A2, pairs, beta=0.49)
    with pytest.raises(ParameterError):
        correspondence_cross(space_A, space_A2, [])


def test_correspondence_always_glues():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a, b = random_pair(rng, max_n=4)
        full = [(i, j) for i in range(a.n) for j in range(b.n)]
        cross, beta, dis = correspondence_cross(a, b, full)
        assert beta >= dis / 2.0
        assert cross.min() >= 0.0
        glue(a, b, cross)
        # mgp_upper's closed form of the all-pairs gluing, bit for bit
        assert cross.tobytes() == _all_pairs_cross(a, b).tobytes()


# --- upper and lower bounds ---------------------------------------------------


def test_identity_strategy_nails_relabeled_copies():
    rng = np.random.default_rng(62)
    for _ in range(20):
        a = random_space(rng, max_n=5, min_n=2)
        b, _ = relabeled(a, rng)
        v, cross = mgp_upper(a, b, strategy="identity-ish", budget=8, seed=0)
        assert v <= 1e-9
        assert is_equivalent_exact(a, b)
        glue(a, b, cross)


def test_lower_never_exceeds_upper():
    rng = np.random.default_rng(7)
    for strategy in ("identity-ish", "coupling-search", "random-restarts"):
        for _ in range(25):
            a, b = random_pair(rng)
            lo = mgp_lower(a, b)
            up, _ = mgp_upper(a, b, strategy=strategy, budget=8, seed=1)
            assert lo <= up + 1e-9


def test_upper_is_deterministic_per_seed():
    rng = np.random.default_rng(80)
    a, b = random_pair(rng, max_n=4)
    v1, c1 = mgp_upper(a, b, strategy="random-restarts", budget=12, seed=4)
    v2, c2 = mgp_upper(a, b, strategy="random-restarts", budget=12, seed=4)
    assert v1 == v2
    assert np.array_equal(c1, c2)


def test_lower_parameter_checks(space_A):
    with pytest.raises(ParameterError):
        mgp_lower(space_A, space_A, orders=())
    with pytest.raises(ParameterError):
        mgp_lower(space_A, space_A, orders=(3,))
    other = two_point(marks=("a", "b"), mark_space=AB_MARKS)
    with pytest.raises(ParameterError):
        mgp_lower(space_A, other)


def test_lower_separates_distance_scalings(space_A, space_A2):
    # equal mark marginals, so order 1 gives 0; the pair-distance laws sit
    # at Prohorov distance 1/2, so order 2 gives 1/4
    assert mgp_lower(space_A, space_A2, orders=(1,)) == pytest.approx(0.0, abs=1e-12)
    assert mgp_lower(space_A, space_A2, orders=(2,)) == pytest.approx(0.25, abs=1e-9)
    assert mgp_lower(space_A, space_A2) == pytest.approx(0.25, abs=1e-9)


# --- certified tiny cases ------------------------------------------------------


def test_one_point_mark_mismatch_costs_one():
    a = one_point("a", label="pa")
    b = one_point("b", label="pb")
    res = mgp_exact(a, b)
    assert res.exact == pytest.approx(1.0, abs=1e-9)
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    assert res.slack <= 1e-9


def test_one_point_same_mark_costs_zero():
    a = one_point("a")
    res = mgp_exact(a, a)
    assert res.exact == pytest.approx(0.0, abs=1e-12)
    assert res.slack <= 1e-12


def test_scaled_two_point_distance_is_half(space_A, space_A2):
    res = mgp_exact(space_A, space_A2)
    assert res.lower == pytest.approx(0.25, abs=1e-9)
    assert res.exact == pytest.approx(0.5, abs=1e-9)
    assert res.slack <= 1e-9
    g = glue(space_A, space_A2, res.witness_cross)
    v, _ = g.prohorov()
    assert v == pytest.approx(res.exact, abs=1e-9)


def test_exact_sits_inside_the_bounds():
    rng = np.random.default_rng(314)
    for trial in range(30):
        a, b = random_pair(rng)
        res = mgp_exact(a, b, budget=500, grid=0.05, seed=trial)
        assert res.lower - 1e-9 <= res.exact <= res.upper + 1e-9
        assert res.slack >= 0.0
        # the witness is a real gluing whose pushforward distance is the value
        g = glue(a, b, res.witness_cross)
        v, _ = g.prohorov()
        assert v == pytest.approx(res.exact, abs=1e-9)
        # coupling marginals match the two weight vectors
        pi = res.witness_coupling
        assert np.abs(pi.sum(axis=1) - a.weights).max() <= 1e-9
        assert np.abs(pi.sum(axis=0) - b.weights).max() <= 1e-9


def test_exact_is_symmetric_up_to_slack():
    rng = np.random.default_rng(2718)
    for trial in range(10):
        a, b = random_pair(rng)
        r1 = mgp_exact(a, b, budget=600, grid=0.05, seed=trial)
        r2 = mgp_exact(b, a, budget=600, grid=0.05, seed=trial)
        assert abs(r1.exact - r2.exact) <= r1.slack + r2.slack + 1e-9


def test_exact_triangle_up_to_slack():
    rng = np.random.default_rng(10)
    for trial in range(8):
        a = random_space(rng, max_n=2, min_n=1)
        b = random_space(rng, max_n=2, min_n=1)
        c = random_space(rng, max_n=2, min_n=1)
        rab = mgp_exact(a, b, budget=600, grid=0.05, seed=trial)
        rbc = mgp_exact(b, c, budget=600, grid=0.05, seed=trial)
        rac = mgp_exact(a, c, budget=600, grid=0.05, seed=trial)
        assert rac.exact - rac.slack <= rab.exact + rbc.exact + 1e-9


def test_exact_preconditions(space_A):
    euc = MarkSpace.euclidean(1)
    pa = FiniteMmmSpace(
        distances=np.zeros((1, 1)), weights=np.array([1.0]),
        marks=((0.0,),), mark_space=euc, label="e",
    )
    with pytest.raises(TooLargeError):
        mgp_exact(pa, pa)
    rng = np.random.default_rng(9)
    big = random_space(rng, max_n=4, min_n=4)
    other = random_space(rng, max_n=3, min_n=3)
    with pytest.raises(TooLargeError):
        mgp_exact(big, other)


def test_bounds_memory_stays_below_the_all_pairs_arrays():
    a = kingman(CoalescentConfig(leaves=60, theta=1.0, seed=1))
    b = kingman(CoalescentConfig(leaves=60, theta=1.0, seed=2))
    tracemalloc.start()
    try:
        mgp_bounds(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the all-pairs correspondence alone would take 3600 x 3600 floats (99 MiB)
    assert peak < 32 * 2**20


def test_non_finite_spaces_are_rejected():
    good = euclidean_cloud(6, 2, seed=4)
    d = good.distances.copy()
    d[0, 1] = d[1, 0] = math.nan
    bad = FiniteMmmSpace(distances=d, marks=good.marks, weights=good.weights,
                         mark_space=good.mark_space, label="nan")
    calls = (mgp_lower, mgp_upper, mgp_bounds,
             lambda x, y: two_sample_test(x, y, m=20, permutations=99))
    for call in calls:
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
                call(*pair)
    inf_weight = FiniteMmmSpace(distances=good.distances, marks=good.marks,
                                weights=np.r_[math.inf, good.weights[1:]],
                                mark_space=good.mark_space)
    with pytest.raises(ParameterError, match=r"^space '': weight 0 = inf is not finite$"):
        mgp_bounds(good, inf_weight)


# --- bundle ---------------------------------------------------------------------


def test_mgp_bounds_bundle():
    rng = np.random.default_rng(55)
    a, b = random_pair(rng, max_n=4)
    res = mgp_bounds(a, b, budget=12, seed=3)
    assert res.exact is None
    assert res.lower <= res.upper + 1e-9
    glue(a, b, res.witness_cross)
    best = min(
        mgp_upper(a, b, strategy=s, budget=12, seed=3)[0]
        for s in ("identity-ish", "coupling-search", "random-restarts")
    )
    assert res.upper == pytest.approx(best, abs=1e-12)


def test_result_validation():
    with pytest.raises(ParameterError):
        MgpResult(lower=0.5, upper=0.1)
    with pytest.raises(ParameterError):
        MgpResult(lower=0.0, upper=0.2, exact=0.5)
