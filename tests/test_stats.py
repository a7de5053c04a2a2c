"""Tests for the permutation two-sample test and convergence tables."""

import numpy as np
import pytest

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

from mmmspace.stats import _energies

from conftest import BIT_MARKS, random_space, relabeled, two_point


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
