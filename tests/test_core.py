import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mmmspace.core
from mmmspace import (
    CoalescentConfig,
    FiniteMmmSpace,
    MarkFunctionInput,
    MarkSpace,
    ParameterError,
    TooLargeError,
    canonicalize,
    distance_monomial,
    empirical_from_samples,
    euclidean_cloud,
    evaluate_mc,
    exact_law,
    from_mark_function,
    is_equivalent_exact,
    kingman,
    mgp_lower,
    two_sample_test,
    validate,
)
from mmmspace.core import Violation, _non_finite, _require_finite, _sample_indices

from _oracles import (
    canonicalize_oracle, empirical_oracle, equivalent_oracle, listed_rows, listed_triangles,
    mark_distance, triangle_rows_oracle, triangle_violations_oracle,
)
from conftest import (
    AB_MARKS, BIT_MARKS, balanced_tree, cycle_space, graph_space, hamming_cube,
    random_points_metric, random_space, relabeled, rook_and_shrikhande, rounding_witness,
    two_point, witness_metric,
)


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


@pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf])
def test_validate_rejects_a_tol_that_hides_or_invents_violations(tol):
    # NaN compares false with everything, so this broken space read as valid;
    # a negative tol flags every pair as asymmetric, an infinite one every
    # pair with equal marks as duplicate points
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    bad = FiniteMmmSpace(distances=d, marks=(0, 0, 0),
                         weights=np.array([0.25, 0.5, 0.25]),
                         mark_space=BIT_MARKS)
    with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
        validate(bad, tol=tol)
    assert "triangle" in validate(bad, tol=0.0)


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


def test_non_finite_report_lists_the_first_hundred_and_the_count():
    n = 300
    d = np.full((n, n), np.nan)
    np.fill_diagonal(d, 0.0)
    space = FiniteMmmSpace(distances=d, marks=("a",) * n, weights=np.full(n, 1 / n),
                           mark_space=MarkSpace.discrete(("a",)))
    report = validate(space)
    first = [tuple(ix) for ix in np.argwhere(np.isnan(d))[:100].tolist()]
    assert [v.indices for v in report.violations[:100]] == first
    assert report.violations[0].message == "d(0,1) = nan is not finite"
    assert report.violations[100] == Violation(
        "non-finite", (), 0.0,
        "89700 entries are not finite, the first 100 and the largest listed")
    assert len(report.violations) == 101 and report.kinds() == {"non-finite"}
    # distances come first, then weights fill the list up to 100
    d = np.zeros((n, n))
    d[0, 1:6] = d[1:6, 0] = np.inf
    w = np.full(n, np.nan)
    report = validate(FiniteMmmSpace(distances=d, marks=("a",) * n, weights=w,
                                     mark_space=MarkSpace.discrete(("a",))))
    assert [v.indices for v in report.violations[:100]] == (
        [(0, j) for j in range(1, 6)] + [(j, 0) for j in range(1, 6)] + [(i,) for i in range(90)])
    assert report.violations[9].message == "d(5,0) = inf is not finite"
    assert report.violations[100].message == (
        "310 entries are not finite, the first 100 and the largest listed")
    # exactly 100 bad entries: all listed, no count
    d = np.zeros((n, n))
    d[0, 1:101] = np.nan
    assert [v.indices for v in validate(FiniteMmmSpace(
        distances=d, marks=("a",) * n, weights=np.full(n, 1 / n),
        mark_space=MarkSpace.discrete(("a",)))).violations] == [(0, j) for j in range(1, 101)]


def test_first_non_finite_entry_is_the_full_scans_first():
    rng = np.random.default_rng(29)
    good = euclidean_cloud(7, 2, "point", seed=5)
    for trial in range(60):
        d, w = good.distances.copy(), good.weights.copy()
        marks = list(good.marks)
        for _ in range(rng.integers(1, 4)):
            bad = rng.choice([math.nan, math.inf, -math.inf])
            where = rng.integers(3)
            if where == 0:
                d[tuple(rng.integers(0, 7, 2))] = bad
            elif where == 1:
                w[rng.integers(7)] = bad
            else:
                k = rng.integers(7)
                marks[k] = (marks[k][0], bad)
        space = FiniteMmmSpace(distances=d, marks=tuple(marks), weights=w,
                               mark_space=good.mark_space, label=f"t{trial}")
        full = _non_finite(space)
        if full:
            want = full[0].message
        else:
            k = next(i for i, mk in enumerate(space.marks) if not np.isfinite(mk).all())
            want = f"mark {k} = {space.marks[k]!r} is not finite"
        assert space._first_non_finite == want
        with pytest.raises(ParameterError) as err:
            _require_finite(good, space)
        assert str(err.value) == f"space 't{trial}': {want}"
    assert good._first_non_finite is None


def test_an_all_nan_space_is_rejected_by_its_first_entry():
    n = 1000
    spaces = [FiniteMmmSpace(distances=np.full((n, n), math.nan), marks=(0,) * n,
                             weights=np.full(n, math.nan), mark_space=BIT_MARKS,
                             label="nan1000") for _ in range(3)]
    calls = [lambda s: mgp_lower(s, s), lambda s: exact_law(s, 2),
             lambda s: evaluate_mc(distance_monomial(0, 1), s, m=2, seed=0)]
    tracemalloc.start()
    try:
        for call, space in zip(calls, spaces):
            with pytest.raises(ParameterError, match=re.escape(
                    "space 'nan1000': d(0,0) = nan is not finite")):
                call(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one Violation per entry took 429 MiB and 26 s before the message
    assert peak < 8 * 2**20


def reference_validate(space, tol=1e-12):
    """validate written as plain loops over pairs and all n^3 triples; each
    kind is cut to its listed rows by `listed_rows`."""
    d, w, n = space.distances, space.weights, space.n
    kinds = {kind: [] for kind in ("diagonal", "asymmetry", "negativity", "triangle",
                                   "weight-negative", "mark-invalid", "duplicate-points")}
    for i in range(n):
        if d[i, i] != 0.0:
            kinds["diagonal"].append(("diagonal", (i,), float(d[i, i]), f"d({i},{i}) != 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > tol * max(1.0, abs(d[i, j])):
                kinds["asymmetry"].append(("asymmetry", (i, j), float(abs(d[i, j] - d[j, i])),
                                           f"d({i},{j}) != d({j},{i})"))
    for i in range(n):
        for j in range(i, n):
            if d[i, j] < 0.0:
                kinds["negativity"].append(("negativity", (i, j), float(d[i, j]),
                                            f"negativity at ({i},{j})"))
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                excess = d[i, k] - (d[i, j] + d[j, k])
                if j not in (i, k) and excess > tol * max(1.0, d[i, k]):
                    kinds["triangle"].append(
                        ("triangle", (i, j, k), float(excess),
                         f"triangle violation ({i},{j},{k}), excess {excess:g}"))
    for i in range(n):
        if w[i] < 0:
            kinds["weight-negative"].append(("weight-negative", (i,), float(w[i]),
                                             f"weight {i} < 0"))
    for i in range(n):
        if not space.mark_space.contains(space.marks[i]):
            kinds["mark-invalid"].append(("mark-invalid", (i,), 0.0,
                                          f"mark at {i} outside mark space"))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] <= tol and space.marks[i] == space.marks[j]:
                kinds["duplicate-points"].append(("duplicate-points", (i, j), float(d[i, j]),
                                                  f"points {i},{j} at distance 0 share a mark"))
    what = {"diagonal": "diagonal entries are not 0", "asymmetry": "pairs are asymmetric",
            "negativity": "entries are negative",
            "triangle": "triples violate the triangle inequality",
            "weight-negative": "weights are negative",
            "mark-invalid": "marks are outside the mark space",
            "duplicate-points": "pairs of points at distance 0 share a mark"}
    out = []
    for kind, rows in kinds.items():
        out += listed_rows(rows, what[kind])
        if kind == "weight-negative":
            total = math.fsum(w.tolist())
            if abs(total - 1.0) > tol:
                out.append(("weight-sum", (), float(total - 1.0), f"weights sum to {total!r}"))
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


def test_validate_lists_every_kind_by_one_rule(monkeypatch):
    # at a cap of 5, each kind past it lists its first 5, its worst and a
    # count; tiny negative distances (no triangle breaks) make negativity
    # and duplicate-points the only kinds, all of negative magnitude, so the
    # count entries must not outrank them as the report's largest
    rng = np.random.default_rng(41)
    spaces = []
    for n in (4, 9, 16):
        d = rng.uniform(0.0, 2.0, size=(n, n))
        np.fill_diagonal(d, rng.uniform(-1.0, 1.0, size=n))
        d[rng.random((n, n)) < 0.2] *= -1.0
        d[rng.random((n, n)) < 0.2] = 0.0
        w = rng.uniform(-1.0, 0.5, size=n)
        marks = tuple(rng.choice(["a", "b"], size=n).tolist())
        spaces.append(FiniteMmmSpace(distances=d, marks=marks, weights=w, mark_space=AB_MARKS))
        points = rng.choice([0.0, 1.0, np.nan], size=(n, 2)).tolist()
        spaces.append(FiniteMmmSpace(distances=d, marks=points, weights=w,
                                     mark_space=MarkSpace.euclidean(2)))
        spaces.append(FiniteMmmSpace(distances=-1e-14 * (1.0 - np.eye(n)), marks=marks,
                                     weights=np.full(n, 1 / n), mark_space=AB_MARKS))
    kinds = set()
    for space in spaces:
        monkeypatch.setattr(mmmspace.core, "VIOLATIONS_LISTED", 10 ** 9)
        full = reference_validate(space)
        monkeypatch.setattr(mmmspace.core, "VIOLATIONS_LISTED", 5)
        got = [(v.kind, v.indices, v.magnitude, v.message)
               for v in validate(space).violations]
        assert got == reference_validate(space)
        assert max(got, key=lambda v: v[2]) == max(full, key=lambda v: v[2])
        kinds |= {v[0] for v in got if v[1] == ()} - {"weight-sum"}
    assert kinds == {"diagonal", "asymmetry", "negativity", "triangle", "weight-negative",
                     "mark-invalid", "duplicate-points"}


def broken_matrix(rng, n, tol=1e-12):
    """A random pseudo-metric with some triangles broken by stretched
    entries and every off-diagonal pair asymmetric within ``tol``."""
    pts = rng.normal(size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    for _ in range(max(1, n // 4)):
        i, k = rng.choice(n, size=2, replace=False)
        d[i, k] = d[k, i] = d[i, k] + rng.uniform(0.0, 1.5)
    nudge = np.triu(rng.uniform(0.0, 0.5 * tol, size=(n, n)), k=1)
    return d + nudge * np.maximum(1.0, d)


@pytest.mark.parametrize("rows", [None, 1, 3, 7])
def test_validate_triangles_match_the_full_tensor(monkeypatch, rows):
    """The upper-column scan reports exactly the full tensor's triangles, in
    single-pass, one-row and multi-row blocks with a short last block: all
    of them up to VIOLATIONS_LISTED; past it the first VIOLATIONS_LISTED, the
    worst triple and the count.  Each space is checked at the default cap
    and at a cap of 5, so both sides of the cap meet every block shape."""
    rng = np.random.default_rng(31 + (rows or 0))
    seen, below, above = 0, 0, 0
    for n in (3, 4, 5, 9, 17, 30):
        if rows is not None:
            monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", rows * n * n)
        for _ in range(3):
            d = broken_matrix(rng, n)
            space = FiniteMmmSpace(distances=d, marks=("a",) * n,
                                   weights=np.full(n, 1 / n), mark_space=AB_MARKS)
            want = triangle_violations_oracle(d)
            for cap in (100, 5):
                monkeypatch.setattr(mmmspace.core, "VIOLATIONS_LISTED", cap)
                report = validate(space)
                assert "asymmetry" not in report
                got = [(v.kind, v.indices, v.magnitude, v.message)
                       for v in report.violations if v.kind == "triangle"]
                if len(want) <= cap:
                    assert got == want
                    below += 1
                    continue
                worst = max(want, key=lambda v: v[2])
                assert got[:cap] == want[:cap]
                assert got[cap:-1] == ([] if worst in want[:cap] else [worst])
                assert got[-1] == ("triangle", (), 0.0,
                                   f"{len(want)} triples violate the triangle inequality, "
                                   f"the first {cap} and the largest listed")
                above += 1
            seen += len(want)
    assert seen > 0 and below > 0 and above > 0


def path_metric(rng, n, stretch=0):
    """Shortest-path metric of a random graph with integer edge lengths 1-4:
    integer distances, so many triangles are exactly tight.  Then
    ``stretch`` random entries grow by 1 or 2, which breaks tight triangles
    by equal, tied excesses."""
    d = rng.integers(1, 5, size=(n, n)).astype(float)
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k: k + 1] + d[k: k + 1, :])
    for _ in range(stretch):
        i, k = rng.choice(n, size=2, replace=False)
        d[i, k] = d[k, i] = d[i, k] + int(rng.integers(1, 3))
    return d


def one_mark_space(d):
    n = len(d)
    return FiniteMmmSpace(distances=d, marks=("a",) * n, weights=np.full(n, 1 / n),
                          mark_space=AB_MARKS)


def report_rows(report):
    return [(v.kind, v.indices, v.magnitude, v.message) for v in report.violations]


@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_validate_matches_plain_loops_on_integer_path_metrics(tol):
    rng = np.random.default_rng(41)
    tight = hits = 0
    for n in (3, 12, 40):
        for stretch in (0, 1, n // 3):
            d = path_metric(rng, n, stretch)
            got = report_rows(validate(one_mark_space(d), tol=tol))
            assert got == reference_validate(one_mark_space(d), tol=tol)
            excess = d[:, None, :] - d[:, :, None] - d[None, :, :]
            tight += int(np.count_nonzero(excess == 0.0)) - (2 * n * n - n)  # j in {i, k}
            hits += len(got)
    assert tight > 0 and hits > 0


def test_validate_reads_d_jk_not_d_kj():
    """Points on a line within distance 1 make every triple through a middle
    point tight, with the limit tol; each ordered entry then moves by under
    0.49 tol, so d is asymmetric within tol and d(i,k) - d(i,j) - d(j,k)
    exceeds the limit for some triples, by amounts that change when d(k,j)
    is read for d(j,k).  Then one such triple among far points, the only
    one near its limit, so the min-plus pass alone decides its row."""
    rng = np.random.default_rng(43)
    tol, seen = 1e-12, 0
    for n in (4, 9, 40, 40):
        x = np.sort(rng.uniform(0.0, 0.9, size=n))
        d = np.abs(np.subtract.outer(x, x)) + rng.uniform(-0.49, 0.49, size=(n, n)) * tol
        np.fill_diagonal(d, 0.0)
        assert not np.array_equal(d, d.T)
        report = validate(one_mark_space(d), tol=tol)
        assert "asymmetry" not in report
        got = report_rows(report)
        assert got == reference_validate(one_mark_space(d), tol=tol)
        assert got == listed_triangles(triangle_violations_oracle(d, tol))
        seen += len(got)
    assert seen > 0
    # (0, 1, 2) is tight at 0.5 = 0.25 + 0.25; d(0,2) is stretched and
    # d(0,1), d(1,2) shrunk by 0.49 tol, their transposes moved the other
    # way, so only d(1,2) (not d(2,1)) shows the excess of 1.47 tol
    d = witness_metric(0.5, 0.25, 0.25)
    for i, k, step in ((0, 2, 0.49), (0, 1, -0.49), (1, 2, -0.49)):
        d[i, k] += step * tol
        d[k, i] -= step * tol
    got = report_rows(validate(one_mark_space(d), tol=tol))
    assert got == reference_validate(one_mark_space(d), tol=tol)
    assert [v[1] for v in got] == [(0, 1, 2)]


def test_validate_with_negative_entries_matches_plain_loops():
    rng = np.random.default_rng(47)
    for n in (3, 6, 14):
        for _ in range(3):
            d = broken_matrix(rng, n)
            i, k = rng.choice(n, size=2, replace=False)
            d[i, k] = d[k, i] = -rng.uniform(0.0, 1.0)
            report = validate(one_mark_space(d))
            assert "negativity" in report
            assert report_rows(report) == reference_validate(one_mark_space(d))


@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.5])
def test_validate_on_fewer_than_three_points(tol):
    for d in (np.zeros((1, 1)), np.array([[0.0, 2.0], [2.0, 0.0]]),
              np.array([[0.0, -1.0], [3.0, 0.0]])):
        space = one_mark_space(d)
        assert report_rows(validate(space, tol=tol)) == reference_validate(space, tol=tol)
        assert "triangle" not in validate(space, tol=tol)


@pytest.mark.parametrize("elements", [50, 600, 4 * 40 * 40, 1 << 18])
def test_validate_pass_in_chunks_matches_the_full_tensor(monkeypatch, elements):
    """Columns in chunks of 1 (50 elements over 40 points) and 15 (600),
    several rows per add (4 * 40^2) and one add per row: the same
    triangles."""
    monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", elements)
    rng = np.random.default_rng(53)
    cleared = 0
    for d in (broken_matrix(rng, 40), path_metric(rng, 40, 3), path_metric(rng, 39),
              random_points_metric(rng, 40)):
        for tol in (0.0, 1e-12):
            got = [v for v in report_rows(validate(one_mark_space(d), tol=tol))
                   if v[0] == "triangle"]
            assert got == listed_triangles(triangle_violations_oracle(d, tol))
            rows = mmmspace.core._triangle_rows(d, tol, relative=True, upper=True)
            cleared += len(d) - len(rows)
    assert cleared > 0


def pass_corpus(rng):
    """Matrices of 33 to 69 points for the min-plus pass: a Euclidean cloud,
    sorted points on a line, and copies of the cloud with one entry
    stretched by 0.5, one negative entry, every entry scaled by up to 1.002
    on its own (so d is asymmetric) and one entry above half the largest
    float."""
    for n in (33, 45, 57, 69):
        cloud = random_points_metric(rng, n)
        x = np.sort(rng.uniform(0.0, 100.0, size=n))
        yield cloud
        yield np.abs(np.subtract.outer(x, x))
        i, k = rng.choice(n, size=2, replace=False)
        for value in (cloud[i, k] + 0.5, -0.25, 0.6 * np.finfo(float).max):
            d = cloud.copy()
            d[i, k] = d[k, i] = value
            yield d
        d = cloud * rng.uniform(1.0, 1.002, size=(n, n))
        assert not np.array_equal(d, d.T)
        yield d


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3])
def test_triangle_rows_are_the_rows_of_the_full_tensor(tol):
    """The pass returns exactly the rows whose excess
    d(i,k) - (d(i,j) + d(j,k)) exceeds the limit at some j and k, for any
    finite entries; with ``upper`` at least every row with such a k > i.
    The entry above half the largest float overflows sums to inf."""
    rng = np.random.default_rng(83)
    held = cleared = 0
    with np.errstate(over="ignore"):
        for _ in range(5):
            for d in pass_corpus(rng):
                for relative in (False, True):
                    limit = mmmspace.core._triangle_limit(d, tol, relative)
                    every, upper = triangle_rows_oracle(d, limit)
                    got = mmmspace.core._triangle_rows(d, tol, relative)
                    assert got.tolist() == every.tolist()
                    got = mmmspace.core._triangle_rows(d, tol, relative, upper=True)
                    assert set(upper.tolist()) <= set(got.tolist())
                    held += len(every)
                    cleared += len(d) - len(every)
    assert held > 0 and cleared > 0


@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_validate_catches_the_rounding_witness(tol):
    """fl(a - fl(b + c)) exceeds the limit while fl(fl(a - b) - c) does
    not: the excess is the first one, so the pass keeps row 0 and the
    exact scan reports (0, 1, 2)."""
    a, b, c = rounding_witness(np.random.default_rng(59), tol, relative=True)
    d = witness_metric(a, b, c)
    got = report_rows(validate(one_mark_space(d), tol=tol))
    assert got == reference_validate(one_mark_space(d), tol=tol)
    assert [v[1] for v in got] == [(0, 1, 2)]
    rows = mmmspace.core._triangle_rows(d, tol, relative=True, upper=True)
    assert rows.tolist() == [0]


def test_validate_names_the_broken_cloud_triple():
    # d(0, 5) beats every detour by 0.5, as in the benchmark's broken space
    small = euclidean_cloud(12, 2, seed=1008)
    d = small.distances.copy()
    detour = d[0, :] + d[:, 5]
    detour[[0, 5]] = np.inf
    d[0, 5] = d[5, 0] = detour.min() + 0.5
    got = report_rows(validate(one_mark_space(d)))
    assert got == reference_validate(one_mark_space(d))
    assert (0, int(np.argmin(detour)), 5) in [v[1] for v in got]


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


def assert_same_bits(got, want):
    """Equal labels, mark spaces and mark reprs; distances and weights equal
    as raw bytes, dtypes and shapes."""
    assert (got.label, got.mark_space, repr(got.marks)) == (
        want.label, want.mark_space, repr(want.marks))
    for a, b in ((got.distances, want.distances), (got.weights, want.weights)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def pseudo_metric_with_duplicates(rng, labels=("a", "b")):
    """Points drawn with repetition from a random metric: copies of one point
    sit at distance 0.  Marks follow the point or are drawn per copy, and
    about a third of the weights are 0 (the total stays positive)."""
    base = random_points_metric(rng, int(rng.integers(1, 6)))
    at = rng.integers(0, len(base), size=int(rng.integers(1, 10)))
    per_point = rng.integers(0, len(labels), size=len(base))
    codes = per_point[at] if rng.random() < 0.5 else rng.integers(0, len(labels), size=len(at))
    w = rng.random(len(at)) * (rng.random(len(at)) > 0.3)
    w[int(rng.integers(len(at)))] += 0.25
    return FiniteMmmSpace(distances=base[np.ix_(at, at)], marks=tuple(labels[c] for c in codes),
                          weights=w / w.sum(), mark_space=MarkSpace.discrete(labels),
                          label=f"dup-{len(at)}")


def test_canonicalize_matches_the_pair_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    spaces = [pseudo_metric_with_duplicates(rng, labels) for _ in range(60)
              for labels in (("a",), ("a", "b"), ("a", "b", "c"))]
    for _ in range(300):
        # non-metric zero patterns: asymmetric, non-transitive, nonzero diagonal;
        # the union order decides which point of a merged group represents it
        n = int(rng.integers(1, 13))
        d = rng.choice([0.0, -0.5, 1.0, 2.0], p=[0.45, 0.05, 0.25, 0.25], size=(n, n))
        w = rng.random(n) * (rng.random(n) > 0.25)
        marks = rng.choice(["a", "b"] if rng.random() < 0.5 else ["a"], size=n)
        spaces.append(FiniteMmmSpace(distances=d, marks=tuple(marks), weights=w,
                                     mark_space=AB_MARKS, label=f"zeros-{n}"))
    spaces.append(euclidean_cloud(40, 2, "sign", seed=3))
    merged = 0
    for s in spaces:
        got = canonicalize(s)
        assert_same_bits(got, canonicalize_oracle(s))
        merged += got.n < int(np.count_nonzero(s.weights > 0))
    assert merged > 100  # the inputs do merge points


def test_empirical_matches_the_resample_bit_for_bit():
    rng = np.random.default_rng(29)
    spaces = [pseudo_metric_with_duplicates(rng) for _ in range(40)]
    spaces += [kingman(CoalescentConfig(leaves=k, theta=1.0, seed=k)) for k in (2, 7, 30)]
    spaces += [euclidean_cloud(k, 2, marks, seed=k) for k in (1, 5, 25)
               for marks in ("constant", "sign", "point")]
    for s in spaces:
        for n in (1, 2, 5, 17, 60, 200):
            assert_same_bits(empirical_from_samples(s, n, seed=n), empirical_oracle(s, n, n))


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalent_to_relabeled_copy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = random_space(rng, max_n=6)
        t, _ = relabeled(s, rng)
        assert is_equivalent_exact(s, t)
    # a -0.0 diagonal is the same space as a 0.0 one, to the two-sample test too
    d = s.distances.copy()
    np.fill_diagonal(d, -0.0)
    signed = replace(s, distances=d)
    assert np.signbit(np.diagonal(signed.distances)).all()
    assert is_equivalent_exact(s, signed) and is_equivalent_exact(signed, t)
    runs = [two_sample_test(x, two_point(mark_space=AB_MARKS, marks="ab"), m=20,
                            permutations=99, seed=4) for x in (s, signed)]
    assert runs[0] == runs[1]


def test_equivalence_matches_the_brute_force_oracle():
    # small graph metrics have many automorphisms, so the search prunes by
    # them; one raised entry (or symmetric pair) must break every isometry
    # the oracle can find, and the raised space must match its own copies
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for trial in range(120):
        n = int(rng.integers(4, 8))
        a = graph_space(rng, n, labels=("a",) if trial % 2 else ("a", "b"))
        b = relabeled(a, rng)[0] if trial % 3 else graph_space(rng, n, labels=a.mark_space.labels)
        d = b.distances.copy()
        i, j = rng.integers(0, n, size=2)  # a diagonal entry now and then
        d[i, j] += 1.0
        if trial % 4:
            d[j, i] = d[i, j]
        raised = replace(b, distances=d)
        for x, y in ((a, b), (a, raised), (raised, relabeled(raised, rng)[0])):
            want = equivalent_oracle(x, y)
            assert is_equivalent_exact(x, y) == want, trial
            seen[want] += 1
    assert min(seen.values()) >= 100, seen


def test_equivalence_beyond_ten_points():
    a = kingman(CoalescentConfig(leaves=200, theta=1.0, seed=5))
    b = relabeled(a, np.random.default_rng(6))[0]
    assert is_equivalent_exact(a, b)
    d = b.distances.copy()
    d[3, 7] = d[7, 3] = np.nextafter(d[3, 7], np.inf)
    assert not is_equivalent_exact(a, replace(b, distances=d))
    rng = np.random.default_rng(7)
    for s in (cycle_space(60), balanced_tree(5), hamming_cube(5), rook_and_shrikhande()):
        for _ in range(3):
            assert is_equivalent_exact(relabeled(s, rng)[0], relabeled(s, rng)[0]), s.label


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


def test_canonical_order_search_budget(monkeypatch):
    cube = hamming_cube(5)
    assert is_equivalent_exact(cube, cube)
    monkeypatch.setattr(mmmspace.core, "CANONICAL_WORK_BOUND", 5 * 32 ** 2)
    for call in (is_equivalent_exact,
                 lambda x, y: two_sample_test(x, y, m=20, permutations=99)):
        with pytest.raises(TooLargeError, match="budget of 5 nodes on 32 atoms"):
            call(cube, cube)


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


@pytest.mark.parametrize("make", [
    lambda: FiniteMmmSpace(
        distances=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]),
        weights=np.array([0.5, 0.3, 0.2]), marks=("a", "b", "a"),
        mark_space=AB_MARKS, label="fixed-3pt"),
    lambda: kingman(CoalescentConfig(leaves=200, theta=1.0, seed=4)),
], ids=["3-point", "200-leaf-tree"])
def test_empirical_memory_does_not_grow_with_the_draws(make):
    space, n = make(), 100_000
    tracemalloc.start()
    try:
        e = empirical_from_samples(space, n, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n x n matrix of the draws alone would be 80 GB
    assert peak < 16 * 2**20
    idx = _sample_indices(space, n, 7)
    atoms = list(dict.fromkeys(idx.tolist()))  # no two points merge in these spaces
    counts = np.bincount(idx, minlength=space.n)
    assert e.marks == tuple(space.marks[i] for i in atoms)
    assert e.weights.tolist() == [counts[i] * (1.0 / n) for i in atoms]


def _weights_space(w):
    n = len(w)
    return FiniteMmmSpace(distances=np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 1.0,
                          marks=("a",) * n, weights=np.asarray(w, dtype=float),
                          mark_space=AB_MARKS)


def _sampling_weights(kind, n, rng):
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(n))
    if kind == "sparse-dirichlet":
        return rng.dirichlet(np.full(n, 0.05))
    if kind == "zero-ends":
        w = rng.random(n)
        if n > 2:
            w[[0, -1]] = 0.0
        return w
    if kind == "skew-first":
        return np.r_[1.0, np.full(n - 1, 1e-9)]
    if kind == "skew-last":
        return np.r_[np.full(n - 1, 1e-9), 1.0]
    return rng.integers(0, 3, n) + np.r_[1.0, np.zeros(n - 1)]  # "repeated" cdf entries


@pytest.mark.parametrize("n", [1, 3, 8, 60, 1000])
@pytest.mark.parametrize("kind", ["uniform", "dirichlet", "sparse-dirichlet", "zero-ends",
                                  "skew-first", "skew-last", "repeated"])
def test_sample_indices_are_generator_choice_draws(kind, n):
    # both paths (direct search below k draws, guide table from k on) must
    # return choice's indices, dtype and shape exactly, including buckets
    # that hold several cdf entries (skews, zero weights)
    w = _sampling_weights(kind, n, np.random.default_rng(n))
    space = _weights_space(w)
    p = w / math.fsum(w.tolist())
    k = 4 << (n - 1).bit_length()
    for seed in range(4):
        for size in (1, 5000, (400, 3), k - 1, k):
            got = _sample_indices(space, size, seed)
            want = np.random.default_rng(seed).choice(n, size=size, p=p)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_sample_indices_leave_a_passed_generator_where_choice_does():
    space = _weights_space(np.random.default_rng(2).dirichlet(np.ones(60)))
    p = space.weights / math.fsum(space.weights.tolist())
    ours, numpy_ = np.random.default_rng(9), np.random.default_rng(9)
    for size in ((150, 2), 7):
        assert np.array_equal(_sample_indices(space, size, ours),
                              numpy_.choice(space.n, size=size, p=p))
    assert ours.random() == numpy_.random()
