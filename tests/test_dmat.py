import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmmspace import (
    FiniteMmmSpace,
    MarkSpace,
    ParameterError,
    Polynomial,
    BudgetError,
    distance_monomial,
    evaluate_exact,
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
from mmmspace import dmat
from mmmspace.dmat import MM_DUMMY_LABEL, DistanceMatrixSample, round_sig

from _oracles import exact_law_oracle
from conftest import (
    AB_MARKS, nan_cloud, or_none, random_space, rough_spaces, tiny_marked_spaces,
    tiny_spaces, two_point,
)


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


def test_sample_rejects_zero_total_weight():
    with pytest.raises(ParameterError, match="'zero': weights must have positive total"):
        sample(two_point(weights=(0.0, 0.0), label="zero"), 3, seed=0)


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


def oracle_spaces(rng, count):
    """Small spaces with tied and only key-tied distances (points on a
    0.1-spaced line), coincident points, zero and non-dyadic weights, and
    label or Euclidean marks that repeat."""
    spaces = []
    for k in range(count):
        n = int(rng.integers(1, 6))
        x = 0.1 * rng.integers(0, 4, size=n)
        w = rng.uniform(0.0, 1.0, size=n)
        w[rng.random(n) < 0.25] = 0.0
        w[0] = 0.1
        if k % 2:
            ms, marks = MarkSpace.euclidean(2), rng.integers(0, 2, size=(n, 2)) * 0.5
        else:
            ms, marks = MarkSpace.discrete(("a", "b")), rng.choice(["a", "b"], size=n)
        spaces.append(FiniteMmmSpace(distances=np.abs(x[:, None] - x[None, :]),
                                     marks=tuple(marks.tolist()), weights=w,
                                     mark_space=ms, label=f"oracle-{k}"))
    return spaces


def test_exact_law_matches_the_fraction_tuple_loop():
    rng = np.random.default_rng(43)
    for space in oracle_spaces(rng, 14):
        for order in (1, 2, 3, 4):
            ref = exact_law_oracle(space, order)
            law = exact_law(space, order)
            assert law.exact
            assert [s.key() for s in law.samples] == [key for key, _, _ in ref]
            assert list(law.probs) == [p for _, _, p in ref]
            for s, (key, first, _) in zip(law.samples, ref):
                assert np.array_equal(s.dist, space.distances[np.ix_(first, first)])
                assert DistanceMatrixSample(order, s.dist, s.marks).key() == key
            flt = exact_law(space, order, exact=False)
            assert [s.key() for s in flt.samples] == [key for key, _, _ in ref]
            assert max(abs(p - float(q)) for p, (_, _, q) in zip(flt.probs, ref)) <= 1e-15


def test_exact_law_merges_chunks(monkeypatch):
    # dyadic weights with a small denominator make every float product and
    # sum exact, so the float law must equal the rational one bit for bit
    rng = np.random.default_rng(44)
    base = random_space(rng, max_n=5, min_n=5)
    spaces = [base, FiniteMmmSpace(distances=base.distances, marks=base.marks,
                                   weights=rng.uniform(0.1, 1.0, size=5),
                                   mark_space=base.mark_space)]
    whole = [(exact_law(s, 4), exact_law(s, 4, exact=False)) for s in spaces]
    monkeypatch.setattr(dmat, "EXACT_LAW_CHUNK", 37)  # 17 chunks of 625 tuples
    for space, (rational, flt) in zip(spaces, whole):
        for law, ref in ((exact_law(space, 4), rational),
                         (exact_law(space, 4, exact=False), flt)):
            assert [s.key() for s in law.samples] == [s.key() for s in ref.samples]
            for a, b in zip(law.samples, ref.samples):
                assert a.dist.tobytes() == b.dist.tobytes()
        assert exact_law(space, 4).probs == rational.probs
        chunked = exact_law(space, 4, exact=False).probs
        assert max(abs(p - float(q)) for p, q in zip(chunked, rational.probs)) <= 1e-15
    assert exact_law(base, 4, exact=False).probs == tuple(map(float, whole[0][0].probs))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(space=tiny_marked_spaces(), order=st.integers(1, 3))
def test_exact_law_matches_the_oracle_on_tiny_marked_spaces(space, order):
    ref = exact_law_oracle(space, order)
    law = exact_law(space, order)
    flt = exact_law(space, order, exact=False)
    assert law.exact and not flt.exact
    for got in (law, flt):
        assert [repr(s.key()) for s in got.samples] == [repr(key) for key, _, _ in ref]
        for s, (_, first, _) in zip(got.samples, ref):
            assert s.dist.tobytes() == space.distances[np.ix_(first, first)].tobytes()
            assert s.marks == tuple(space.marks[i] for i in first)
            assert not s.dist.flags.writeable
    assert list(law.probs) == [p for _, _, p in ref]
    assert max(abs(p - float(q)) for p, (_, _, q) in zip(flt.probs, ref)) <= 1e-15


class _BareLabel:
    """A mark label that prints as its bare text, so that "A" prints as a
    prefix of "A, B" and of "A)"."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text

    def __eq__(self, other):
        return isinstance(other, _BareLabel) and other.text == self.text

    def __hash__(self):
        return hash(self.text)


def prefix_spaces():
    """Spaces whose keys test the atom order: labels whose reprs are
    prefixes of each other or hold ", " and ")", Euclidean marks, negative
    distances, distances whose reprs are prefixes of each other (0.5 and
    0.55, 1.5 and 1.5e-05), and -0.0, zero and negative dyadic weights."""
    x = np.array([0.0, 1.5e-05, 0.5, 0.55, 1.5])
    line = np.abs(x[:, None] - x[None, :])
    w = np.array([-0.0, 0.5, 0.0, -0.125, 0.75])
    labels = [(1, 12, 123), ("a, b", "a", "a)", "(a", "x', 'y"),
              tuple(map(_BareLabel, ("A", "A, B", "A)", "B")))]
    spaces = []
    for k, labs in enumerate(labels):
        marks = tuple(labs[i % len(labs)] for i in (0, 1, 2, 1, 3))
        for d in (line, -line):
            spaces.append(FiniteMmmSpace(distances=d, marks=marks, weights=w[::1 - 2 * (k % 2)],
                                         mark_space=MarkSpace.discrete(labs)))
    points = ((0.0, -0.5), (0.5, 1e-05), (0.5, 1e-05), (-0.5, 0.0), (0.55, 1.5))
    spaces.append(FiniteMmmSpace(distances=line, marks=points, weights=w,
                                 mark_space=MarkSpace.euclidean(2)))
    return spaces


def test_atom_order_is_the_key_order_on_prefix_reprs():
    # distances compare as numbers (1.5e-05 before 0.5, -1.5 before -0.55),
    # then marks by repr; exact_law and law_push list one law alike
    for space in prefix_spaces():
        for order in (1, 2, 3):
            ref = exact_law_oracle(space, order)
            keys, firsts = [key for key, _, _ in ref], [first for _, first, _ in ref]
            law, flt = exact_law(space, order), exact_law(space, order, exact=False)
            for got in (law, flt):
                assert [s.key() for s in got.samples] == keys
                assert got.blocks.tobytes() == b"".join(
                    space.distances[np.ix_(t, t)].tobytes() for t in firsts)
                assert got.marks.tolist() == [[space.marks[i] for i in t] for t in firsts]
            assert list(law.probs) == [p for _, _, p in ref]
            # dyadic weights: every float product and sum is exact
            assert np.array(flt.probs).tobytes() == np.array([float(p) for _, _, p in ref]).tobytes()
        for sigma in ((2,), (2, 0), (1, 2), (2, 1, 0)):
            ref = exact_law_oracle(space, len(sigma))
            for pushed in (law_push(law, sigma), law_push(flt, sigma)):
                assert [s.key() for s in pushed.samples] == [key for key, _, _ in ref]
            assert list(law_push(law, sigma).probs) == [p for _, _, p in ref]
            assert np.allclose(law_push(flt, sigma).probs, [float(p) for _, _, p in ref],
                               rtol=0, atol=1e-15)


def int64_edge_weights(count, order, above):
    """Weights of ``count`` points whose mantissas over their gcd are
    consecutive integers with max|m|^order * count^order just below 2^63
    (or just above it), all scaled by 3 * 2^-23 so that the gcd is not 1."""
    top = int(2 ** (63 / order)) // count
    while (top * count) ** order >= 2 ** 63:
        top -= 1
    while ((top + 1) * count) ** order < 2 ** 63:
        top += 1
    m = [top + count * above - k for k in range(count)]
    return np.array(m, dtype=float) * 3 * 2.0 ** -23


@pytest.mark.parametrize("chunk", [dmat.EXACT_LAW_CHUNK, 3])
@pytest.mark.parametrize("count,order", [(2, 3), (3, 2), (3, 4)])
def test_int64_masses_hold_up_to_the_bound(monkeypatch, chunk, count, order):
    # int64 sums wrap silently, so the bound max|m|^n * N^n < 2^63 is what
    # keeps them exact; coincident points put all the mass on one atom,
    # whose sum exceeds 2^63 just above the bound, and a chunk of 3 tuples
    # makes exact_law merge int64 chunk sums
    monkeypatch.setattr(dmat, "EXACT_LAW_CHUNK", chunk)
    rng = np.random.default_rng(count * 10 + order)
    for above in (False, True):
        w = int64_edge_weights(count, order, above)
        mantissas, _ = dmat._mantissas(w)
        factors = dmat._exact_factors(mantissas, order)
        assert factors.dtype == (object if above else np.int64)
        top = max(map(abs, factors.tolist()))
        assert ((top * count) ** order < 2 ** 63) != above
        assert (sum(factors.tolist()) ** order >= 2 ** 63) == above
        x = rng.integers(0, 2, size=count) * 0.5
        for d in (np.zeros((count, count)), np.abs(x[:, None] - x[None, :])):
            space = FiniteMmmSpace(distances=d, marks=("a",) * count, weights=w,
                                   mark_space=MarkSpace.discrete(("a",)))
            law = exact_law(space, order)
            assert list(law.probs) == [p for _, _, p in exact_law_oracle(space, order)]
            assert law.total() == 1


@settings(max_examples=120, deadline=None, derandomize=True)
@given(space=rough_spaces(), order=st.integers(1, 3))
def test_law_entry_points_give_finite_values_or_domain_errors(space, order):
    for exact in (True, False):
        law = or_none(lambda: exact_law(space, order, exact=exact))
        if law is not None:
            assert all(math.isfinite(p) for p in law.probs)
            assert all(np.isfinite(s.dist).all() for s in law.samples)
    pair = or_none(lambda: pair_distance_law(space))
    if pair is not None:
        assert np.isfinite(pair[0]).all() and np.isfinite(pair[1]).all()
    summed = Polynomial(order=order, body=lambda dist, marks: float(dist.sum()), bound=10.0)
    for phi in (summed, distance_monomial(0, order - 1, order=order)):
        value = or_none(lambda: evaluate_exact(phi, space))
        assert value is None or math.isfinite(value)


def test_samples_hold_read_only_views(space_A):
    draws = [sample(space_A, 3, seed=2), *sample_many(space_A, 3, 4, seed=2)]
    draws += exact_law(space_A, 3).samples
    for s in draws:
        assert not s.dist.flags.writeable
        with pytest.raises(ValueError):
            s.dist[0, 1] = 5.0


def test_exact_law_and_evaluate_exact_reject_non_finite_distances():
    plain = Polynomial(order=2, body=lambda dist, marks: float(dist[0, 1]), bound=10.0)
    calls = (lambda s: exact_law(s, 2), lambda s: exact_law(s, 2, exact=False),
             lambda s: evaluate_exact(distance_monomial(0, 1), s),
             lambda s: evaluate_exact(plain, s))
    for call in calls:
        with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
            call(nan_cloud())


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(space=tiny_spaces(), order=st.integers(1, 3), data=st.data())
def test_rational_law_sums_to_one_and_is_exchangeable(space, order, data):
    law = exact_law(space, order)
    assert law.exact and law.total() == 1
    sigma = data.draw(st.permutations(range(order)))
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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(space=tiny_marked_spaces(), order=st.integers(1, 3), data=st.data())
def test_an_injective_push_is_the_law_of_the_chosen_indices(space, order, data):
    # sigma picks len(sigma) distinct indices in any order, so the pushed law
    # must be the law of that many indices; law_push merges the source atoms
    # by the same grouping that exact_law runs on its tuples
    sigma = data.draw(st.permutations(range(order)))[: data.draw(st.integers(1, order))]
    for exact in (True, False):
        pushed = law_push(exact_law(space, order, exact=exact), sigma)
        assert pushed.exact == exact
        assert laws_equal(pushed, exact_law(space, len(sigma), exact=exact), tol=1e-15)


def test_a_law_holds_read_only_arrays_and_builds_samples_on_demand(monkeypatch):
    space = random_space(np.random.default_rng(45), max_n=4, min_n=4)
    law = exact_law(space, 3)
    assert "samples" not in law.__dict__
    assert law.blocks.shape == (len(law.probs), 3, 3) and law.marks.shape == (len(law.probs), 3)
    assert not law.blocks.flags.writeable and not law.marks.flags.writeable
    plain = Polynomial(order=3, body=lambda dist, marks: float(dist[0, 2]), bound=10.0)
    want = math.fsum(float(p) * float(s.dist[0, 2]) for s, p in law.atoms)
    with monkeypatch.context() as m:
        # the enumerated path of evaluate_exact reads blocks and marks only
        m.setattr(dmat, "_wrap", lambda *args: pytest.fail("samples were built"))
        assert evaluate_exact(plain, space) == want
    for a, s in enumerate(law.samples):
        assert np.shares_memory(s.dist, law.blocks) and not s.dist.flags.writeable
        assert s.dist.tobytes() == law.blocks[a].tobytes()
        assert s.marks == tuple(law.marks[a])
        assert s.key() == DistanceMatrixSample(3, s.dist, s.marks).key()
    assert law.samples is law.samples
    pushed = law_push(law, (2, 0))
    assert "samples" not in pushed.__dict__ and not pushed.blocks.flags.writeable


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


def test_keys_of_a_distance_below_the_decimal_scale_range():
    # 10^dec overflows for |x| below about 1e-297, so the key of 1e-300
    # must come from the fallback, finite and equal for equal distances
    ab = two_point(d=1e-300, marks=("a", "b"), mark_space=AB_MARKS)
    keys = [s.key() for s in exact_law(ab, 2).samples]
    assert all(math.isfinite(v) for key, _ in keys for v in key)
    assert ((1e-300,), ("a", "b")) in keys and ((1e-300,), ("b", "a")) in keys
    values, _ = pair_distance_law(ab)
    assert values.tolist() == [0.0, 1e-300]

    aa = two_point(d=1e-300, marks=("a", "a"), mark_space=AB_MARKS)
    law = exact_law(aa, 2)
    assert sorted(s.key() for s in law.samples) == [((0.0,), ("a", "a")),
                                                    ((1e-300,), ("a", "a"))]
    assert law.probs == (Fraction(1, 2), Fraction(1, 2))
    assert round_sig(np.array([5e-324, -1.23456789012345e-299])).tolist() == [
        5e-324, -1.23456789012e-299]


def test_a_negative_zero_distance_keys_as_zero():
    # -0.0 == 0.0, so both land in one atom; its key must print one way
    # whichever tuple comes first, or law_push could sort differently
    aa = FiniteMmmSpace(distances=np.array([[-0.0, -0.0], [0.0, 0.0]]), marks=("a", "a"),
                        weights=(0.5, 0.5), mark_space=AB_MARKS)
    assert math.copysign(1.0, round_sig(-0.0)) == 1.0
    for exact in (True, False):
        law = exact_law(aa, 3, exact=exact)
        assert [repr(s.key()) for s in law.samples] == ["((0.0, 0.0, 0.0), ('a', 'a', 'a'))"]
        assert law.probs == ((Fraction(1) if exact else 1.0),)
        pushed = law_push(law, (2, 0, 1))
        assert [repr(s.key()) for s in pushed.samples] == [repr(law.samples[0].key())]


def test_pair_distance_law_rejects_non_finite_distances():
    with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
        pair_distance_law(nan_cloud())


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


@pytest.mark.parametrize("draw", ["uniform", "wide", "signed-zeros", "cancelling"])
def test_float_aggregate_sums_are_the_groups_fsums(draw):
    # one or two masses are summed by one float addition and three or more
    # by fsum; every sum must be the fsum of its group, bytes included (fsum
    # reads -0.0 as 0.0)
    rng = np.random.default_rng(len(draw))
    for _ in range(20):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 60)))  # groups of 1 to 6
        group = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        keys = np.stack([group // 7, group % 7], axis=1)
        n = len(keys)
        masses = {
            "uniform": rng.random(n),
            "wide": rng.random(n) * 10.0 ** rng.integers(-300, 1, n),
            "signed-zeros": rng.choice([-0.0, 0.0, 5e-324, 1e-16, 1.0], n),
            "cancelling": rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n),
        }[draw]
        firsts, sums = dmat._aggregate(keys, masses, exact=False)
        assert group[firsts].tolist() == list(range(len(sizes)))
        want = [math.fsum(masses[group == g].tolist()) for g in range(len(sizes))]
        assert sums.tobytes() == np.array(want).tobytes()
