"""Tests for polynomial construction, evaluation, products and the family."""

import math

import numpy as np
import pytest

import mmmspace.poly
from mmmspace import (
    BudgetError,
    CoalescentConfig,
    FiniteMmmSpace,
    MarkSpace,
    ParameterError,
    Polynomial,
    constant,
    default_family_spec,
    default_panel,
    distance_monomial,
    euclidean_cloud,
    evaluate_exact,
    evaluate_mc,
    kingman,
    mark_indicator,
    multiply,
    product_family,
)

from conftest import AB_MARKS, nan_cloud, random_space, two_point

IDENT = lambda s: np.asarray(s, dtype=float)  # noqa: E731
ONE = lambda u: 1.0  # noqa: E731


@pytest.fixture
def quarter_space():
    # two atoms at distance 1 with weights 1/4 and 3/4, marks a and b
    return two_point(weights=(0.25, 0.75), marks=("a", "b"),
                     mark_space=AB_MARKS, label="quarter")


# --- frozen values ----------------------------------------------------------


def test_constant_polynomial(space_A):
    phi = constant(2.5)
    assert evaluate_exact(phi, space_A) == 2.5
    est, err = evaluate_mc(phi, space_A, m=50, seed=3)
    assert est == 2.5
    assert err == 0.0


def test_mean_distance_on_balanced_two_point(space_A):
    # P(i1 != i2) = 1/2 at distance 1, so E[r12] = 1/2
    assert evaluate_exact(distance_monomial(0, 1), space_A) == pytest.approx(
        0.5, abs=1e-15
    )


def test_exp_distance_on_balanced_two_point(space_A):
    # E[exp(-r12)] = 1/2 (1 + e^-1) = 0.68393972058572117
    phi = Polynomial(
        order=2,
        body=lambda dist, marks: math.exp(-dist[0, 1]),
        bound=1.0,
        description="exp(-r12)",
        mark_factors=(ONE, ONE),
        pair_factors=(((0, 1), lambda s: np.exp(-np.asarray(s, dtype=float))),),
    )
    assert evaluate_exact(phi, space_A) == pytest.approx(
        0.68393972058572117, abs=1e-15
    )


def test_mark_indicator_reads_the_weights(quarter_space):
    assert evaluate_exact(mark_indicator("a"), quarter_space) == pytest.approx(
        0.25, abs=1e-15
    )
    assert evaluate_exact(mark_indicator("b"), quarter_space) == pytest.approx(
        0.75, abs=1e-15
    )
    assert evaluate_exact(
        mark_indicator("a", pos=1, order=2), quarter_space
    ) == pytest.approx(0.25, abs=1e-15)


def test_disjoint_pairs_factorize(quarter_space):
    # E[r12 r34] = E[r12]^2 = (2 * 1/4 * 3/4)^2 = 9/64 because the two
    # pairs use disjoint sampled indices.
    phi = multiply(distance_monomial(0, 1), distance_monomial(0, 1))
    assert phi.order == 4
    assert evaluate_exact(phi, quarter_space) == pytest.approx(
        9.0 / 64.0, abs=1e-14
    )


def test_overlapping_pairs_do_not_factorize(quarter_space):
    # E[r12 r23] shares index 2: sum_j w_j (1 - w_j)^2
    #   = 1/4 * 9/16 + 3/4 * 1/16 = 12/64, which differs from 9/64.
    phi = Polynomial(
        order=3,
        body=lambda dist, marks: float(dist[0, 1] * dist[1, 2]),
        bound=1.0,
        description="r12*r23",
        mark_factors=(ONE, ONE, ONE),
        pair_factors=(((0, 1), IDENT), ((1, 2), IDENT)),
    )
    assert evaluate_exact(phi, quarter_space) == pytest.approx(
        12.0 / 64.0, abs=1e-14
    )


# --- evaluation routes ------------------------------------------------------


def test_tensor_route_matches_law_route():
    rng = np.random.default_rng(17)
    for _ in range(15):
        space = random_space(rng, max_n=4, min_n=2)
        fast = Polynomial(
            order=3,
            body=lambda dist, marks: float(dist[0, 1] * dist[1, 2]),
            bound=float(space.distances.max()) ** 2 + 1.0,
            mark_factors=(ONE, ONE, ONE),
            pair_factors=(((0, 1), IDENT), ((1, 2), IDENT)),
        )
        slow = Polynomial(order=3, body=fast.body, bound=fast.bound)
        assert not slow.has_product_form
        assert evaluate_exact(fast, space) == pytest.approx(
            evaluate_exact(slow, space), abs=1e-12
        )
    # orders 4 and 5: products of family members with a factor on every pair
    panel = default_panel(AB_MARKS, n_max=3, size=120)
    by_order = {k: [phi for phi in panel if phi.order == k] for k in (2, 3)}
    for k in range(12):
        space = random_space(rng, max_n=4, min_n=2)
        a = by_order[2][int(rng.integers(len(by_order[2])))]
        b = by_order[2 + k % 2][int(rng.integers(len(by_order[2 + k % 2])))]
        fast = multiply(a, b)
        assert fast.order == 4 + k % 2 and fast.has_product_form
        slow = Polynomial(order=fast.order, body=fast.body, bound=fast.bound)
        assert evaluate_exact(fast, space) == pytest.approx(
            evaluate_exact(slow, space), abs=1e-12
        )


def test_product_integral_is_product_of_integrals():
    rng = np.random.default_rng(40)
    panel = default_panel(AB_MARKS, n_max=2, size=4)
    for _ in range(20):
        space = random_space(rng, max_n=4, min_n=2)
        a = panel[int(rng.integers(len(panel)))]
        b = panel[int(rng.integers(len(panel)))]
        lhs = evaluate_exact(multiply(a, b), space)
        rhs = evaluate_exact(a, space) * evaluate_exact(b, space)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mc_agrees_with_exact_within_error_bars():
    rng = np.random.default_rng(91)
    phi = distance_monomial(0, 1)
    for trial in range(8):
        space = random_space(rng, max_n=5, min_n=2)
        exact = evaluate_exact(phi, space)
        est, err = evaluate_mc(phi, space, m=4000, seed=trial)
        assert abs(est - exact) <= max(6.0 * err, 1e-12), trial


def test_mc_determinism(space_A):
    phi = distance_monomial(0, 1)
    a = evaluate_mc(phi, space_A, m=200, seed=5)
    b = evaluate_mc(phi, space_A, m=200, seed=5)
    c = evaluate_mc(phi, space_A, m=200, seed=6)
    assert a == b
    assert a != c


def test_mc_edge_cases(space_A):
    # one draw has no sample standard deviation: it is refused, not NaN
    for m in (0, 1):
        with pytest.raises(ParameterError, match="at least two Monte Carlo draws"):
            evaluate_mc(distance_monomial(0, 1), space_A, m=m, seed=0)
    est, err = evaluate_mc(distance_monomial(0, 1), space_A, m=2, seed=0)
    assert est in (0.0, 0.5, 1.0)
    assert math.isfinite(err)


def test_evaluation_rejects_zero_total_weight():
    zero = two_point(weights=(0.0, 0.0), label="zero")
    with pytest.raises(ParameterError, match="'zero': weights must have positive total"):
        evaluate_mc(distance_monomial(0, 1), zero, m=10, seed=0)
    with pytest.raises(ParameterError, match="'zero': weights must have positive total"):
        evaluate_exact(distance_monomial(0, 1), zero)


def test_evaluate_mc_rejects_non_finite_distances():
    with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
        evaluate_mc(distance_monomial(0, 1), nan_cloud(), 200, 0)


def test_mc_of_huge_values_scales_exactly():
    # squaring deviations near 1e300 would overflow; the estimate and its
    # error must be the ones of the scaled-down space times 2^900, exactly
    space = random_space(np.random.default_rng(46), max_n=5, min_n=4)
    huge = FiniteMmmSpace(distances=np.ldexp(space.distances, 900), marks=space.marks,
                          weights=space.weights, mark_space=space.mark_space)
    for phi in (distance_monomial(0, 1), multiply(distance_monomial(0, 1), constant(1.0))):
        est, err = evaluate_mc(phi, space, 300, 7)
        assert evaluate_mc(phi, huge, 300, 7) == (math.ldexp(est, 900), math.ldexp(err, 900))
        assert math.isfinite(math.ldexp(err, 900))


def test_budget_guard():
    rng = np.random.default_rng(12)
    space = random_space(rng, max_n=5, min_n=5)
    plain = Polynomial(order=3, body=lambda dist, marks: 1.0, bound=1.0)
    with pytest.raises(BudgetError):
        evaluate_exact(plain, space, budget=10)
    # the contraction keeps the enumeration's cap above order 3 only
    pair = distance_monomial(0, 1)
    with pytest.raises(BudgetError, match="enumeration needs 625 tuples, budget is 624"):
        evaluate_exact(multiply(pair, pair), space, budget=624)
    assert evaluate_exact(multiply(pair, pair), space, budget=625) >= 0.0
    assert evaluate_exact(multiply(pair, distance_monomial(0, 0, order=1)), space,
                          budget=10) == 0.0


# --- the product algebra ----------------------------------------------------


def test_multiply_metadata():
    a = Polynomial(order=2, body=lambda d, m: 1.0, bound=3.0, smoothness=2.0,
                   description="a")
    b = Polynomial(order=1, body=lambda d, m: 1.0, bound=0.5, smoothness=7.0,
                   description="b")
    ab = multiply(a, b)
    assert ab.order == 3
    assert ab.bound == 1.5
    assert ab.smoothness == 2.0
    assert ab.description == "(a)*(b@+2)"
    assert not ab.has_product_form  # neither factor carries product form


def test_multiply_shifts_second_factor(quarter_space):
    # ind[u1=a] * ind[u3=b] via multiply(ind_a, ind_b): independent draws,
    # so the integral is 1/4 * 3/4.
    phi = multiply(mark_indicator("a"), mark_indicator("b"))
    assert phi.order == 2
    assert evaluate_exact(phi, quarter_space) == pytest.approx(
        3.0 / 16.0, abs=1e-14
    )


def test_order_validation():
    with pytest.raises(ParameterError):
        Polynomial(order=0, body=lambda d, m: 1.0, bound=1.0)
    with pytest.raises(ParameterError):
        Polynomial(order=2, body=lambda d, m: 1.0, bound=1.0,
                   mark_factors=(ONE,), pair_factors=())


# --- product family and panel ------------------------------------------------


def test_family_enumeration_order_and_count():
    spec = default_family_spec(AB_MARKS, max_order=2)
    members = list(product_family(spec))
    # order 1: 3 mark choices; order 2: 3^2 mark choices * 4 pair choices
    assert len(members) == 3 + 9 * 4
    descriptions = [m.description for m in members]
    assert descriptions[:4] == ["1", "ind[u1=a]", "ind[u1=b]",
                                "exp(-0.5*r12)"]
    assert all(m.bound == 1.0 for m in members)
    assert members[0].order == 1
    assert members[3].order == 2


def test_default_panel_skips_constant():
    panel = default_panel(AB_MARKS, n_max=2, size=6)
    assert [m.description for m in panel] == [
        "ind[u1=a]",
        "ind[u1=b]",
        "exp(-0.5*r12)",
        "exp(-1*r12)",
        "exp(-2*r12)",
        "exp(-4*r12)",
    ]
    with pytest.raises(ParameterError):
        default_panel(AB_MARKS, n_max=2, size=0)


def test_euclidean_family_uses_axis_factors():
    spec = default_family_spec(MarkSpace.euclidean(2), max_order=1)
    members = list(product_family(spec))
    # constant plus 3 rates per axis
    assert len(members) == 1 + 2 * 3
    space = two_point(marks=((0.0, 0.0), (1.0, -2.0)),
                      mark_space=MarkSpace.euclidean(2), label="euc")
    for member in members:
        v = evaluate_exact(member, space)
        assert 0.0 < v <= 1.0


def test_panel_members_integrate_in_range(space_A):
    for member in default_panel(MarkSpace.discrete((0, 1)), n_max=3, size=10):
        v = evaluate_exact(member, space_A)
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_cached_contraction_path_matches_optimize_true(monkeypatch):
    # a path planned once per operand spec and reused must give every float
    # that einsum's own planning (optimize=True) gives
    spaces = [kingman(CoalescentConfig(leaves=14, theta=1.0, seed=3)),
              euclidean_cloud(11, 2, "sign", seed=5), euclidean_cloud(7, 2, "point", seed=6)]
    for space in spaces:
        members = default_panel(space.mark_space, 3, 250)
        for order in (1, 2, 3):
            panel = [phi for phi in members if phi.order == order][::7]
            assert panel
            cached = [evaluate_exact(phi, space) for phi in panel]
            with monkeypatch.context() as m:
                m.setattr(mmmspace.poly, "_contraction_path", lambda spec: True)
                planned = [evaluate_exact(phi, space) for phi in panel]
            assert np.array(cached).tobytes() == np.array(planned).tobytes()
    info = mmmspace.poly._contraction_path.cache_info()
    assert info.hits > info.misses
