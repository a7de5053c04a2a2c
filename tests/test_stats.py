"""Tests for the permutation two-sample test and convergence tables."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from mmmspace import (
    FiniteMmmSpace,
    MarkSpace,
    ParameterError,
    TwoSampleResult,
    convergence_table,
    default_panel,
    distance_monomial,
    empirical_from_samples,
    euclidean_cloud,
    evaluate_exact,
    multiply,
    two_sample_test,
)

import mmmspace
from mmmspace.core import _initial_colour, _refine
from mmmspace.stats import _energies, _row_distances

from _oracles import canonical_order_oracle
from conftest import (
    AB_MARKS, BIT_MARKS, balanced_tree, cycle_space, random_space, relabeled, tiny_spaces,
    two_point,
)


def as_row(result):
    return (result.statistic, result.p_value, result.order, result.samples,
            result.permutations)


# --- permutation energies ----------------------------------------------------


def test_matrix_energies_match_submatrix_means():
    rng = np.random.default_rng(3)
    m = 37
    pts = rng.normal(size=(2 * m, 4))
    dmat = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    masks = np.zeros((2 * m, 25))
    for c in range(masks.shape[1]):
        masks[rng.permutation(2 * m)[:m], c] = 1.0
    got = _energies(dmat, masks)
    for c in range(masks.shape[1]):
        x = masks[:, c] == 1.0
        want = (2.0 * dmat[np.ix_(x, ~x)].mean() - dmat[np.ix_(x, x)].mean()
                - dmat[np.ix_(~x, ~x)].mean())
        assert got[c] == pytest.approx(want, rel=0, abs=1e-12)


def test_row_distances_equal_cdist_bit_for_bit():
    # scipy is a test dependency only: the package sums the squared
    # differences column by column itself, in cdist's order
    rng = np.random.default_rng(22)
    for trial in range(60):
        rows, cols = int(rng.integers(2, 300)), int(rng.integers(1, 40))
        x = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-5, 5)
        if trial % 3 == 0:
            x = np.round(x, 1)  # ties, so some distances are exactly 0
        assert np.array_equal(_row_distances(x), cdist(x, x))
    for cols in (8, 9, 16, 33):
        x = rng.normal(size=(120, cols))
        assert _row_distances(x).tobytes() == cdist(x, x).tobytes()


def test_package_imports_no_scipy():
    src = Path(mmmspace.__file__).resolve().parents[1]
    code = ("import sys, mmmspace, mmmspace.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


# --- canonical atom order ---------------------------------------------------


def order_corpus():
    """Tiny spaces of all three mark kinds, with n = 0, 1 and 2, symmetric
    twins and tied distances."""
    rng = np.random.default_rng(13)
    for n in (0, 1):
        yield FiniteMmmSpace(distances=np.zeros((n, n)), marks=("a",) * n,
                             weights=np.ones(n), mark_space=AB_MARKS)
    yield two_point()
    yield two_point(marks=(1, 1))
    for trial in range(40):
        yield random_space(rng, max_n=7, min_n=1)
        for marks in ("sign", "constant", "point"):
            yield euclidean_cloud(int(rng.integers(1, 9)), 2, marks, seed=trial)
    for n in range(3, 9):
        # a cycle: every atom alike, so refinement separates none of them
        steps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        yield FiniteMmmSpace(distances=np.minimum(steps, n - steps).astype(float),
                             marks=("a",) * n, weights=np.full(n, 1 / n),
                             mark_space=AB_MARKS)
        # a path graph at distance 1 along edges and 2 elsewhere: the ends
        # separate in the first round, and each round moves one step in
        path = np.where(steps == 1, 1.0, 2.0)
        np.fill_diagonal(path, 0.0)
        yield FiniteMmmSpace(distances=path, marks=("a",) * n, weights=np.full(n, 1 / n),
                             mark_space=AB_MARKS)
        # L1 distances on a 3x3 grid (many ties) with atoms 0 and 1 made
        # symmetric twins: equal rows, marks and weights
        pts = rng.integers(0, 3, size=(n, 2)).astype(float)
        d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        d[1, :] = d[:, 1] = d[0, :]
        d[0, 1] = d[1, 0] = 1.0
        d[1, 1] = 0.0
        marks = rng.choice(["a", "b"], size=n).tolist()
        marks[1] = marks[0]
        w = rng.integers(1, 3, size=n).astype(float)
        w[1] = w[0]
        yield FiniteMmmSpace(distances=d, marks=tuple(marks), weights=w / w.sum(),
                             mark_space=AB_MARKS)


def test_canonical_order_matches_the_plain_python_refinement():
    for k, space in enumerate(order_corpus()):
        moved, _ = relabeled(space, np.random.default_rng(k))
        for s in (space, moved):
            colour = _refine(s.distances, _initial_colour(s.marks, s.weights))
            assert np.argsort(colour, kind="stable").tolist() == canonical_order_oracle(s), k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=tiny_spaces(), b=tiny_spaces(), order=st.integers(0, 2**32 - 1))
def test_two_sample_is_invariant_under_relabelling_either_space(a, b, order):
    base = two_sample_test(a, b, m=20, permutations=99, seed=3)
    rng = np.random.default_rng(order)
    for moved_a, moved_b in ((relabeled(a, rng)[0], b), (a, relabeled(b, rng)[0])):
        got = two_sample_test(moved_a, moved_b, m=20, permutations=99, seed=3)
        assert (got.statistic, got.p_value) == (base.statistic, base.p_value)


# --- determinism and symmetries ----------------------------------------------


def test_two_sample_determinism(space_A, space_A2):
    r1 = two_sample_test(space_A, space_A2, m=60, permutations=99, seed=5)
    r2 = two_sample_test(space_A, space_A2, m=60, permutations=99, seed=5)
    assert as_row(r1) == as_row(r2)
    r3 = two_sample_test(space_A, space_A2, m=60, permutations=99, seed=6)
    assert as_row(r1) != as_row(r3)


def test_two_sample_swap_symmetry(space_A, space_A2):
    r_ab = two_sample_test(space_A, space_A2, m=60, permutations=99, seed=1)
    r_ba = two_sample_test(space_A2, space_A, m=60, permutations=99, seed=1)
    assert as_row(r_ab) == as_row(r_ba)


def test_two_sample_relabel_invariance():
    rng = np.random.default_rng(92)
    for trial in range(5):
        a = random_space(rng, max_n=5, min_n=2)
        b = random_space(rng, max_n=5, min_n=2)
        ra, _ = relabeled(a, rng)
        base = two_sample_test(a, b, m=40, permutations=99, seed=trial)
        moved = two_sample_test(ra, b, m=40, permutations=99, seed=trial)
        assert as_row(base) == as_row(moved), trial
    # spaces whose atoms colour refinement cannot tell apart
    cloud = euclidean_cloud(8, 2, "constant", seed=1)
    for a in (cycle_space(8), balanced_tree(5)):
        rows = {as_row(two_sample_test(relabeled(a, rng)[0], cloud, n=3, m=40,
                                       permutations=99, seed=1)) for _ in range(6)}
        assert len(rows) == 1, (a.label, rows)


def test_two_sample_ignores_presentation(space_A):
    # an atom split in two (same point, same mark) canonicalizes away
    split = FiniteMmmSpace(
        distances=np.array([
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]),
        weights=np.array([0.5, 0.25, 0.25]),
        marks=(0, 1, 1),
        mark_space=BIT_MARKS,
        label="split",
    )
    r1 = two_sample_test(space_A, space_A, m=40, permutations=99, seed=2)
    r2 = two_sample_test(space_A, split, m=40, permutations=99, seed=2)
    assert as_row(r1) == as_row(r2)


# --- level and power -----------------------------------------------------------


def test_level_on_identical_spaces(space_A):
    # the permutation p-value is exact: over 20 independent runs at
    # alpha = 0.05 seeing 5+ rejections has probability < 2e-5
    pvals = [
        two_sample_test(space_A, space_A, m=50, permutations=99, seed=s).p_value
        for s in range(20)
    ]
    assert min(pvals) >= 0.01  # 1/(permutations+1) is the floor
    assert sum(p <= 0.05 for p in pvals) <= 4


def test_power_separates_scaled_spaces(space_A, space_A2):
    for seed in range(5):
        res = two_sample_test(space_A, space_A2, m=200, permutations=99,
                              seed=seed)
        assert res.p_value <= 0.05, seed


def test_two_sample_statistic_of_huge_distances_scales_exactly():
    # one label, so the features are the distances alone and scale with them;
    # a space against itself, so that the digests cannot reorder the sides
    s = random_space(np.random.default_rng(47), max_n=5, min_n=4, labels=("a",))
    huge = FiniteMmmSpace(distances=np.ldexp(s.distances, 900), marks=s.marks,
                          weights=s.weights, mark_space=s.mark_space)
    base = two_sample_test(s, s, m=30, permutations=99, seed=3)
    big = two_sample_test(huge, huge, m=30, permutations=99, seed=3)
    assert big.statistic == math.ldexp(base.statistic, 900) and math.isfinite(big.statistic)
    assert big.p_value == base.p_value


def test_two_sample_validation(space_A):
    with pytest.raises(ParameterError):
        two_sample_test(space_A, space_A, n=1)
    with pytest.raises(ParameterError):
        two_sample_test(space_A, space_A, m=10)
    with pytest.raises(ParameterError):
        two_sample_test(space_A, space_A, permutations=50)
    other = two_point(marks=("a", "b"),
                      mark_space=MarkSpace.discrete(("a", "b")))
    with pytest.raises(ParameterError):
        two_sample_test(space_A, other)
    zero = two_point(weights=(0.0, 0.0), label="zero")
    for pair in ((zero, space_A), (space_A, zero)):
        with pytest.raises(ParameterError, match="'zero': weights must have positive total"):
            two_sample_test(*pair, m=20, permutations=99)
    with pytest.raises(ParameterError):
        TwoSampleResult(statistic=0.0, p_value=1.5, order=2, samples=40,
                        permutations=99)


# --- convergence tables -----------------------------------------------------------


def test_table_exact_cells_and_decreasing_trend(space_A):
    sequence = [
        two_point(weights=(0.8, 0.2), label="w80"),
        two_point(weights=(0.6, 0.4), label="w60"),
        two_point(weights=(0.51, 0.49), label="w51"),
    ]
    panel = default_panel(BIT_MARKS, n_max=2, size=3)
    table = convergence_table(sequence, space_A, panel, seed=0)
    assert table.row_labels == ("w80", "w60", "w51")
    assert table.column_labels == tuple(p.description for p in panel)
    assert table.stderrs == pytest.approx(np.zeros((3, 3)))
    for k, s in enumerate(sequence):
        for c, phi in enumerate(panel):
            assert table.estimates[k, c] == pytest.approx(
                evaluate_exact(phi, s), abs=1e-14
            )
    assert table.gaps.shape == (3, 3)
    assert table.trends == ("decreasing",) * 3
    # ind[u1=0] on the target: weight 1/2 exactly
    assert table.target_values[0] == pytest.approx(0.5, abs=1e-15)


def test_table_constant_sequence_is_flat(space_A):
    panel = default_panel(BIT_MARKS, n_max=2, size=2)
    table = convergence_table([space_A, space_A], space_A, panel)
    assert table.trends == ("flat", "flat")
    assert table.gaps == pytest.approx(np.zeros((2, 2)), abs=1e-14)


def test_table_without_target(space_A):
    panel = default_panel(BIT_MARKS, n_max=2, size=2)
    table = convergence_table([space_A], None, panel)
    assert table.target_values is None
    assert table.gaps is None
    assert table.trends is None


def test_table_monte_carlo_cells_are_seeded():
    # order 4 on 25 atoms exceeds the enumeration cap, so the cell is MC
    cloud = euclidean_cloud(25, 2, mark_map="constant", seed=3)
    phi = multiply(distance_monomial(0, 1), distance_monomial(0, 1))
    t1 = convergence_table([cloud], None, [phi], m=500, seed=9)
    t2 = convergence_table([cloud], None, [phi], m=500, seed=9)
    assert t1.estimates[0, 0] == t2.estimates[0, 0]
    assert t1.stderrs[0, 0] > 0.0
    t3 = convergence_table([cloud], None, [phi], m=500, seed=10)
    assert t1.estimates[0, 0] != t3.estimates[0, 0]


def test_table_rows_from_empirical_sequence(space_A):
    # empirical resamples drift toward the source as n grows; exact cells
    sequence = [empirical_from_samples(space_A, n, seed=4) for n in (10, 1000)]
    panel = default_panel(BIT_MARKS, n_max=2, size=3)
    table = convergence_table(sequence, space_A, panel)
    assert len(set(table.row_labels)) == 2
    assert np.isfinite(table.estimates).all()


def test_table_validation(space_A):
    panel = default_panel(BIT_MARKS, n_max=2, size=2)
    with pytest.raises(ParameterError):
        convergence_table([], space_A, panel)
    with pytest.raises(ParameterError):
        convergence_table([space_A], space_A, [])
    # every cell of space_A is exact, so m reached no Monte Carlo check
    for m in (-5, 0, 1):
        with pytest.raises(ParameterError, match="at least two Monte Carlo draws"):
            convergence_table([space_A], space_A, panel, m=m)
