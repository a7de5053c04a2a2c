import math
import tracemalloc

import numpy as np
import pytest

import mmmspace.core
from mmmspace import (
    FiniteMmmSpace,
    MarkFunctionInput,
    MarkSpace,
    ParameterError,
    TooLargeError,
    canonicalize,
    empirical_from_samples,
    euclidean_cloud,
    from_mark_function,
    is_equivalent_exact,
    validate,
)

from _oracles import mark_distance
from conftest import AB_MARKS, BIT_MARKS, random_space, relabeled, two_point


# ---------------------------------------------------------------------------
# mark spaces
# ---------------------------------------------------------------------------

def test_discrete_mark_space_metric():
    ms = MarkSpace.discrete(("a", "b", "c"))
    assert ms.distance("a", "a") == 0.0
    assert ms.distance("a", "b") == 1.0
    assert ms.contains("c")
    assert not ms.contains("z")


def test_euclidean_mark_space_metric():
    ms = MarkSpace.euclidean(2)
    # 3-4-5 triangle
    assert ms.distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert ms.contains((1.0, 2.0))
    assert not ms.contains((1.0,))


def test_cross_distances_match_the_pairwise_metric():
    rng = np.random.default_rng(19)
    ms = MarkSpace.discrete(("a", "b", "c"))
    us = tuple(rng.choice(ms.labels, size=7).tolist())
    vs = tuple(rng.choice(ms.labels, size=4).tolist())
    spaces = [(ms, us, vs)]
    for dim in (1, 2, 3):
        scale = 10.0 ** rng.integers(-6, 7, size=(9, 1))
        pts = [tuple(x) for x in (rng.normal(size=(9, dim)) * scale).tolist()]
        spaces.append((MarkSpace.euclidean(dim), pts[:5], pts[3:]))
    for ms, us, vs in spaces:
        got = ms.cross_distances(us, vs)
        want = np.array([[mark_distance(ms, u, v) for v in vs] for u in us])
        assert got.shape == (len(us), len(vs))
        np.testing.assert_array_max_ulp(got, want, maxulp=2)
        assert ms.distance(us[-1], vs[0]) == got[-1, 0]
        assert ms.cross_distances([], vs).shape == (0, len(vs))


def test_duplicate_labels_rejected():
    with pytest.raises(ParameterError):
        MarkSpace.discrete(("a", "a"))


def test_euclidean_coercion_to_float_tuples():
    ms = MarkSpace.euclidean(2)
    s = FiniteMmmSpace(
        distances=np.zeros((1, 1)),
        marks=(np.array([1, 2]),),
        weights=np.array([1.0]),
        mark_space=ms,
    )
    assert s.marks[0] == (1.0, 2.0)
    assert isinstance(s.marks[0][0], float)


# ---------------------------------------------------------------------------
# construction and equality
# ---------------------------------------------------------------------------

def test_space_is_frozen(space_A):
    with pytest.raises(ValueError):
        space_A.distances[0, 1] = 7.0
    with pytest.raises(ValueError):
        space_A.weights[0] = 0.9


def test_value_equality(space_A):
    again = two_point()
    assert space_A == again
    assert space_A != two_point(d=1.5)
    assert space_A != two_point(label="other")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_accepts_good_space(space_A):
    report = validate(space_A)
    assert report.ok
    assert report.violations == ()


def test_validate_random_spaces_clean():
    rng = np.random.default_rng(42)
    for _ in range(25):
        assert validate(random_space(rng)).ok


def test_validate_flags_diagonal():
    d = np.array([[0.5, 1.0], [1.0, 0.0]])
    s = two_point()
    bad = FiniteMmmSpace(distances=d, marks=s.marks, weights=s.weights,
                         mark_space=s.mark_space)
    report = validate(bad)
    assert not report.ok
    assert "diagonal" in report


def test_validate_flags_asymmetry():
    d = np.array([[0.0, 1.0], [1.2, 0.0]])
    bad = FiniteMmmSpace(distances=d, marks=(0, 1),
                         weights=np.array([0.5, 0.5]), mark_space=BIT_MARKS)
    assert "asymmetry" in validate(bad)


def test_validate_flags_negative_distance():
    d = np.array([[0.0, -1.0], [-1.0, 0.0]])
    bad = FiniteMmmSpace(distances=d, marks=(0, 1),
                         weights=np.array([0.5, 0.5]), mark_space=BIT_MARKS)
    assert "negativity" in validate(bad)


def test_validate_names_triangle_triple():
    # 0-2 direct distance 5 but through 1 only 1+1
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    bad = FiniteMmmSpace(distances=d, marks=(0, 0, 0),
                         weights=np.array([0.25, 0.5, 0.25]),
                         mark_space=BIT_MARKS)
    report = validate(bad)
    assert "triangle" in report
    v = [v for v in report.violations if v.kind == "triangle"][0]
    assert set(v.indices) == {0, 1, 2}
    assert v.magnitude == pytest.approx(3.0)  # 5 > 1 + 1 by 3


def test_validate_flags_weight_problems():
    s = two_point(weights=(0.5, 0.4))
    assert "weight-sum" in validate(s)
    s2 = two_point(weights=(1.2, -0.2))
    assert "weight-negative" in validate(s2)


def test_bad_marks_rejected_at_construction():
    with pytest.raises(ParameterError):
        FiniteMmmSpace(distances=np.zeros((1, 1)), marks=("z",),
                       weights=np.array([1.0]), mark_space=AB_MARKS)
    with pytest.raises(ParameterError):
        FiniteMmmSpace(distances=np.zeros((1, 1)), marks=((1.0, 2.0, 3.0),),
                       weights=np.array([1.0]),
                       mark_space=MarkSpace.euclidean(2))


def test_validate_flags_duplicate_points():
    d = np.zeros((2, 2))
    s = FiniteMmmSpace(distances=d, marks=(0, 0),
                       weights=np.array([0.5, 0.5]), mark_space=BIT_MARKS)
    assert "duplicate-points" in validate(s)
    # same location but different marks is fine
    s2 = FiniteMmmSpace(distances=d, marks=(0, 1),
                        weights=np.array([0.5, 0.5]), mark_space=BIT_MARKS)
    assert "duplicate-points" not in validate(s2)


def test_validate_flags_non_finite_entries_first():
    nan = two_point(d=math.nan)
    report = validate(nan)
    assert not report.ok
    assert [v.kind for v in report.violations] == ["non-finite", "non-finite"]
    assert report.violations[0].indices == (0, 1)
    assert report.violations[0].message == "d(0,1) = nan is not finite"
    report = validate(two_point(weights=(math.inf, 0.5)))
    assert [(v.kind, v.indices) for v in report.violations] == [("non-finite", (0,))]


def reference_validate(space, tol=1e-12):
    """validate written as plain loops over pairs and all n^3 triples."""
    d, w, n = space.distances, space.weights, space.n
    out = []
    for i in range(n):
        if d[i, i] != 0.0:
            out.append(("diagonal", (i,), float(d[i, i]), f"d({i},{i}) != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > tol * max(1.0, abs(d[i, j])):
                out.append(("asymmetry", (i, j), float(abs(d[i, j] - d[j, i])),
                            f"d({i},{j}) != d({j},{i})"))
    for i in range(n):
        for j in range(i, n):
            if d[i, j] < 0.0:
                out.append(("negativity", (i, j), float(d[i, j]),
                            f"negativity at ({i},{j})"))
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                excess = d[i, k] - d[i, j] - d[j, k]
                if j not in (i, k) and excess > tol * max(1.0, d[i, k]):
                    out.append(("triangle", (i, j, k), float(excess),
                                f"triangle violation ({i},{j},{k}), excess {excess:g}"))
    for i in range(n):
        if w[i] < 0:
            out.append(("weight-negative", (i,), float(w[i]), f"weight {i} < 0"))
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > tol:
        out.append(("weight-sum", (), float(total - 1.0), f"weights sum to {total!r}"))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] <= tol and space.marks[i] == space.marks[j]:
                out.append(("duplicate-points", (i, j), float(d[i, j]),
                            f"points {i},{j} at distance 0 share a mark"))
    return out


def test_validate_blockwise_scan_matches_plain_loops(monkeypatch):
    # blocks of 4 rows of i over 30 points: 8 blocks, the last one short
    monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", 4 * 30 * 30)
    rng = np.random.default_rng(11)
    for _ in range(5):
        d = rng.uniform(0.0, 2.0, size=(30, 30))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        d[3, 3] = 0.5
        d[4, 7] += 1e-6
        d[8, 9] = d[9, 8] = -0.25
        d[10, 11] = d[11, 10] = 0.0
        w = np.full(30, 1 / 30)
        w[5] = -0.01
        space = FiniteMmmSpace(distances=d, marks=("a",) * 15 + ("b",) * 15,
                               weights=w, mark_space=AB_MARKS)
        assert len(list(mmmspace.core._triangle_blocks(d))) == 8
        got = [(v.kind, v.indices, v.magnitude, v.message)
               for v in validate(space).violations]
        assert got == reference_validate(space)
        assert {v[0] for v in got} == {
            "diagonal", "asymmetry", "negativity", "triangle",
            "weight-negative", "weight-sum", "duplicate-points",
        }


def test_validate_memory_is_quadratic():
    space = euclidean_cloud(400, 3, seed=1)
    tracemalloc.start()
    try:
        assert validate(space).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full n^3 excess tensor alone would be 488 MiB
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# from_mark_function
# ---------------------------------------------------------------------------

def test_from_mark_function_builds_space():
    inp = MarkFunctionInput(
        distances=np.array([[0.0, 1.0], [1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
        kappa={0: "a", 1: "b"},
    )
    s = from_mark_function(inp, AB_MARKS)
    assert s.marks == ("a", "b")
    assert validate(s).ok


def test_from_mark_function_missing_with_mass_raises():
    inp = MarkFunctionInput(
        distances=np.array([[0.0, 1.0], [1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
        kappa={0: "a"},
    )
    with pytest.raises(ParameterError, match="index 1"):
        from_mark_function(inp, AB_MARKS)


def test_from_mark_function_missing_without_mass_gets_filler():
    inp = MarkFunctionInput(
        distances=np.array([[0.0, 1.0], [1.0, 0.0]]),
        weights=np.array([1.0, 0.0]),
        kappa={0: "b"},
    )
    s = from_mark_function(inp, AB_MARKS)
    assert s.marks == ("b", "a")  # filler is the first label


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_merges_coincident_equal_marks():
    # atoms 0 and 2 coincide with the same mark: weights 1/4 + 1/2 merge
    d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    s = FiniteMmmSpace(distances=d, marks=("a", "b", "a"),
                       weights=np.array([0.25, 0.25, 0.5]),
                       mark_space=AB_MARKS)
    c = canonicalize(s)
    assert c.n == 2
    assert sorted(zip(c.marks, c.weights)) == [("a", 0.75), ("b", 0.25)]
    assert validate(c).ok


def test_canonicalize_drops_zero_weights():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = FiniteMmmSpace(distances=d, marks=("a", "b"),
                       weights=np.array([1.0, 0.0]), mark_space=AB_MARKS)
    c = canonicalize(s)
    assert c.n == 1
    assert c.marks == ("a",)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = random_space(rng)
        c = canonicalize(s)
        assert canonicalize(c) == c


def test_canonicalize_keeps_distinct_marks_apart():
    d = np.zeros((2, 2))
    s = FiniteMmmSpace(distances=d, marks=("a", "b"),
                       weights=np.array([0.5, 0.5]), mark_space=AB_MARKS)
    assert canonicalize(s).n == 2


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalent_to_relabeled_copy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = random_space(rng, max_n=6)
        t, _ = relabeled(s, rng)
        assert is_equivalent_exact(s, t)


def test_equivalence_sees_through_atom_splitting(space_A):
    # splitting an atom into two coincident copies changes nothing
    d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    split = FiniteMmmSpace(distances=d, marks=(0, 0, 1),
                           weights=np.array([0.25, 0.25, 0.5]),
                           mark_space=BIT_MARKS)
    assert is_equivalent_exact(split, space_A)


def test_not_equivalent_on_weight_change(space_A):
    assert not is_equivalent_exact(space_A, two_point(weights=(0.25, 0.75)))


def test_not_equivalent_on_distance_change(space_A, space_A2):
    assert not is_equivalent_exact(space_A, space_A2)


def test_not_equivalent_on_mark_swap():
    a = two_point(marks=(0, 1), weights=(0.25, 0.75))
    b = two_point(marks=(1, 0), weights=(0.25, 0.75))
    assert not is_equivalent_exact(a, b)
    # but symmetric weights make the swap an isometry
    assert is_equivalent_exact(two_point(marks=(0, 1)), two_point(marks=(1, 0)))


def test_equivalence_rejects_zero_total_weight(space_A):
    zero = two_point(weights=(0.0, 0.0), label="zero")
    for pair in ((zero, zero), (zero, space_A), (space_A, zero)):
        with pytest.raises(ParameterError, match="'zero': weights must have positive total"):
            is_equivalent_exact(*pair)


def test_equivalence_size_guard():
    rng = np.random.default_rng(3)
    big = random_space(rng, max_n=12, min_n=11)
    with pytest.raises(TooLargeError, match="two_sample_test"):
        is_equivalent_exact(big, big)


# ---------------------------------------------------------------------------
# empirical spaces
# ---------------------------------------------------------------------------

def test_empirical_deterministic_and_valid(space_A):
    e1 = empirical_from_samples(space_A, 50, seed=9)
    e2 = empirical_from_samples(space_A, 50, seed=9)
    assert e1 == e2
    assert validate(e1).ok
    assert e1.n <= 2
    assert abs(e1.weights.sum() - 1.0) < 1e-12


def test_empirical_single_point(space_A):
    e = empirical_from_samples(space_A, 1, seed=0)
    assert e.n == 1
    assert e.weights[0] == 1.0


def test_empirical_converges_in_weights(space_A):
    e = empirical_from_samples(space_A, 4000, seed=2)
    w0 = dict(zip(e.marks, e.weights))[0]
    assert abs(w0 - 0.5) < 0.05
