import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mmmspace import (
    FiniteMmmSpace,
    MarkSpace,
    ParameterError,
    BudgetError,
    exact_law,
    law_push,
    law_shift,
    laws_equal,
    mark_marginal,
    pair_distance_law,
    permute,
    project_mm,
    sample,
    sample_many,
    shift,
)
from mmmspace.dmat import MM_DUMMY_LABEL, round_sig

from conftest import random_space, two_point


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_deterministic_and_consistent(space_A):
    s1 = sample(space_A, 3, seed=11)
    s2 = sample(space_A, 3, seed=11)
    assert s1 == s2
    assert s1.dist.shape == (3, 3)
    assert np.all(np.diag(s1.dist) == 0.0)
    assert np.array_equal(s1.dist, s1.dist.T)
    # every entry is a distance the space actually has
    assert set(np.unique(s1.dist)) <= {0.0, 1.0}


def test_sample_many_matches_singles(space_A):
    many = sample_many(space_A, 2, 5, seed=4)
    assert len(many) == 5
    for s in many:
        assert s.order == 2


def test_sample_frequency_follows_weights():
    s = two_point(weights=(0.25, 0.75))
    draws = sample_many(s, 1, 4000, seed=13)
    frac_b = sum(1 for d in draws if d.marks[0] == 1) / 4000
    assert abs(frac_b - 0.75) < 0.03


# ---------------------------------------------------------------------------
# the exact sampling law
# ---------------------------------------------------------------------------

def test_exact_law_two_point_order_two(space_A):
    # four equally likely index pairs: (0,0),(0,1),(1,0),(1,1)
    law = exact_law(space_A, 2)
    assert law.exact
    assert law.total() == 1
    assert len(law.samples) == 4
    assert all(p == Fraction(1, 4) for p in law.probs)
    keys = {(tuple(np.round(s.dist[np.triu_indices(2, 1)], 9)), s.marks)
            for s in law.samples}
    assert ((0.0,), (0, 0)) in keys
    assert ((1.0,), (0, 1)) in keys
    assert ((1.0,), (1, 0)) in keys
    assert ((0.0,), (1, 1)) in keys


def test_exact_law_order_one_is_mark_marginal(space_A):
    law = exact_law(space_A, 1)
    got = {s.marks[0]: float(p) for s, p in zip(law.samples, law.probs)}
    assert got == {0: 0.5, 1: 0.5}


def test_exact_law_probabilities_are_exact_fractions():
    s = two_point(weights=(0.25, 0.75))
    law = exact_law(s, 2)
    table = {s_.marks: p for s_, p in zip(law.samples, law.probs)}
    assert table[(0, 0)] == Fraction(1, 16)
    assert table[(0, 1)] == Fraction(3, 16)
    assert table[(1, 0)] == Fraction(3, 16)
    assert table[(1, 1)] == Fraction(9, 16)


def test_exact_law_unnormalized_weights_normalize():
    a = two_point()
    b = two_point(weights=(2.0, 2.0))  # same space, scaled weights
    assert laws_equal(exact_law(a, 2), exact_law(b, 2))


def test_exact_law_budget_guard(space_A):
    with pytest.raises(BudgetError):
        exact_law(space_A, 3, budget=7)


def test_exact_law_float_fallback_above_tuple_limit():
    # 5 atoms at mutual distance 1, one shared mark: 5^8 = 390625 tuples
    # forces the float path, and the law compresses to coincidence patterns
    n = 5
    d = np.ones((n, n)) - np.eye(n)
    s = FiniteMmmSpace(distances=d, marks=("a",) * n,
                       weights=np.full(n, 1.0 / n),
                       mark_space=MarkSpace.discrete(("a",)))
    law = exact_law(s, 8, exact=None)
    assert not law.exact
    assert abs(law.total() - 1.0) < 1e-9
    # 8 draws from 5 atoms always collide, so the all-distinct pattern
    # (every off-diagonal distance 1) cannot appear
    for smp in law.samples:
        assert (smp.dist[np.triu_indices(8, 1)] == 0).any()


def test_prob_of_known_sample(space_A):
    law = exact_law(space_A, 2)
    s = law.samples[0]
    assert law.prob_of(s) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# exchangeability and shift consistency (exact identities)
# ---------------------------------------------------------------------------

def test_exchangeability_exact():
    rng = np.random.default_rng(31)
    for _ in range(10):
        s = random_space(rng, max_n=4)
        law = exact_law(s, 3)
        for sigma in itertools.permutations(range(3)):
            assert laws_equal(law_push(law, sigma), law)


def test_shift_consistency_exact():
    rng = np.random.default_rng(32)
    for _ in range(8):
        s = random_space(rng, max_n=4)
        law3 = exact_law(s, 3)
        law2 = exact_law(s, 2)
        assert laws_equal(law_shift(law3, 1), law2)


def test_injective_pushforward_consistency():
    # restricting the order-3 law to indices (0, 2) equals the order-2 law
    rng = np.random.default_rng(33)
    s = random_space(rng, max_n=3)
    law3 = exact_law(s, 3)
    law2 = exact_law(s, 2)
    assert laws_equal(law_push(law3, (0, 2)), law2)


def test_law_push_rejects_non_injective(space_A):
    law = exact_law(space_A, 2)
    with pytest.raises(ParameterError):
        law_push(law, (0, 0))


def test_laws_equal_tolerance(space_A):
    a = exact_law(space_A, 2)
    b = exact_law(space_A, 2, exact=False)
    assert laws_equal(a, b, tol=1e-12)


# ---------------------------------------------------------------------------
# sample-level index maps
# ---------------------------------------------------------------------------

def test_permute_and_shift_samples(space_A):
    s = sample(space_A, 3, seed=2)
    p = permute(s, (2, 0, 1))
    assert p.marks == (s.marks[2], s.marks[0], s.marks[1])
    assert p.dist[0, 1] == s.dist[2, 0]
    sh = shift(s, 1)
    assert sh.order == 2
    assert sh.marks == s.marks[1:]
    assert sh.dist[0, 1] == s.dist[1, 2]
    with pytest.raises(ParameterError):
        permute(s, (0, 0, 1))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_mm_forgets_marks(space_A):
    mm = project_mm(space_A)
    assert all(m == MM_DUMMY_LABEL for m in mm.marks)
    assert np.array_equal(mm.distances, space_A.distances)


def test_project_mm_merges_coincident_points():
    d = np.zeros((2, 2))
    s = FiniteMmmSpace(distances=d, marks=("a", "b"),
                       weights=np.array([0.5, 0.5]),
                       mark_space=MarkSpace.discrete(("a", "b")))
    mm = project_mm(s)
    assert mm.n == 1
    assert mm.weights[0] == 1.0


def test_mark_marginal(space_A):
    marg = mark_marginal(space_A)
    assert marg == {0: 0.5, 1: 0.5}


def test_pair_distance_law(space_A):
    values, probs = pair_distance_law(space_A)
    assert values.tolist() == [0.0, 1.0]
    assert probs.tolist() == [0.5, 0.5]


def test_pair_distance_law_weighted():
    s = two_point(weights=(0.25, 0.75))
    values, probs = pair_distance_law(s)
    # P(same atom) = 1/16 + 9/16
    assert values.tolist() == [0.0, 1.0]
    assert probs[0] == pytest.approx(10 / 16)
    assert probs[1] == pytest.approx(6 / 16)


def test_pair_distance_law_sums_to_one():
    rng = np.random.default_rng(37)
    for _ in range(6):
        s = random_space(rng)
        _, probs = pair_distance_law(s)
        assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)


def rational_pair_law(space):
    """pair_distance_law as a plain double loop over Fraction weights."""
    w = [Fraction(float(x)) for x in space.weights]
    agg: dict = {}
    for i in range(space.n):
        for j in range(space.n):
            key = float(round_sig(space.distances[i, j]))
            agg[key] = agg.get(key, Fraction(0)) + w[i] * w[j]
    values = sorted(agg)
    return values, [float(agg[v] / sum(w) ** 2) for v in values]


def test_pair_distance_law_matches_the_rational_double_loop():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        # points on a 0.1-spaced line: many tied distances, some only tied
        # through the 12-digit key (0.1 * 3 against 0.3), coincident points
        x = 0.1 * rng.integers(0, 6, size=n)
        w = rng.uniform(0.0, 1.0, size=n)
        w[rng.random(n) < 0.2] = 0.0
        w[0] = 0.5
        s = FiniteMmmSpace(distances=np.abs(x[:, None] - x[None, :]),
                           marks=tuple(rng.integers(0, 2, size=n).tolist()),
                           weights=w, mark_space=MarkSpace.discrete((0, 1)))
        values, probs = pair_distance_law(s)
        ref_values, ref_probs = rational_pair_law(s)
        assert values.tolist() == ref_values
        assert np.abs(probs - np.array(ref_probs)).max() <= 1e-15
