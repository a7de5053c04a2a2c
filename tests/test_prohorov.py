"""Tests for the exact Prohorov solver and the Strassen subset check."""

import math

import numpy as np
import pytest

from mmmspace import (
    FinitePointMeasure,
    MarginalError,
    TooLargeError,
    prohorov_exact,
    strassen_check,
)
from mmmspace.prohorov import (
    FLOW_SCALE, _line_flow_mass, _max_flow_mass, _prohorov_below, _prohorov_cross,
)

from _oracles import prohorov_lp_scan_oracle, prohorov_subset_oracle
from conftest import dyadic_weights, random_points_metric


def measure(atoms, probs):
    return FinitePointMeasure(np.asarray(atoms), np.asarray(probs, dtype=float))


def random_instance(rng, max_pts=8, max_support=5):
    """Metric on a few R^3 points plus two measures on index subsets."""
    m = int(rng.integers(2, max_pts + 1))
    metric = random_points_metric(rng, m, scale=float(rng.uniform(0.2, 2.0)))
    kp = int(rng.integers(1, min(max_support, m) + 1))
    kq = int(rng.integers(1, min(max_support, m) + 1))
    p_atoms = rng.choice(m, size=kp, replace=False)
    q_atoms = rng.choice(m, size=kq, replace=False)
    if rng.random() < 0.5:
        p_probs = dyadic_weights(rng, kp, denom=128)
        q_probs = dyadic_weights(rng, kq, denom=128)
    else:
        p_probs = rng.dirichlet(np.ones(kp))
        q_probs = rng.dirichlet(np.ones(kq))
    return metric, measure(p_atoms, p_probs), measure(q_atoms, q_probs)


# --- frozen small cases ---------------------------------------------------


def test_two_point_swap():
    # p = (3/4, 1/4), q = (1/4, 3/4) at distance 1.  For eps < 1 the
    # thickening does nothing, so the binding constraint is the singleton
    # {0}: 3/4 <= 1/4 + eps, i.e. eps >= 1/2.  Value is exactly 1/2.
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = measure([0, 1], [0.75, 0.25])
    q = measure([0, 1], [0.25, 0.75])
    value, coupling = prohorov_exact(metric, p, q)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert coupling.shape == (2, 2)


def test_point_masses_give_min_of_distance_and_one():
    for d, want in [(0.3, 0.3), (5.0, 1.0), (0.0, 0.0), (1.0, 1.0)]:
        metric = np.array([[0.0, d], [d, 0.0]])
        p = measure([0], [1.0])
        q = measure([1], [1.0])
        value, coupling = prohorov_exact(metric, p, q)
        assert value == pytest.approx(want, abs=1e-9), d
        assert coupling == pytest.approx(np.array([[1.0]]))


def test_identical_measures_have_distance_zero():
    rng = np.random.default_rng(7)
    for _ in range(10):
        metric, p, _ = random_instance(rng)
        value, _ = prohorov_exact(metric, p, p)
        assert value <= 1e-9


def test_discrete_metric_matches_total_variation():
    # Under the 0/1 metric every thickening with eps < 1 is the set itself,
    # so the distance collapses to sup_A (p(A) - q(A)) = half the L1 gap.
    rng = np.random.default_rng(21)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        metric = 1.0 - np.eye(k)
        wp = rng.dirichlet(np.ones(k))
        wq = rng.dirichlet(np.ones(k))
        tv = 0.5 * float(np.abs(wp - wq).sum())
        value, _ = prohorov_exact(metric, measure(range(k), wp),
                                  measure(range(k), wq))
        assert value == pytest.approx(tv, abs=1e-9)


# --- witness coupling -----------------------------------------------------


def test_witness_coupling_is_feasible_and_attains_value():
    rng = np.random.default_rng(103)
    for _ in range(60):
        metric, p, q = random_instance(rng)
        value, pi = prohorov_exact(metric, p, q)
        assert pi.shape == (len(p.atoms), len(q.atoms))
        assert pi.min() >= -1e-12
        assert np.abs(pi.sum(axis=1) - p.probs).max() <= 1e-10
        assert np.abs(pi.sum(axis=0) - q.probs).max() <= 1e-10
        dpq = metric[np.ix_(p.atoms, q.atoms)]
        beyond = float(pi[dpq > value + 1e-12].sum())
        assert beyond <= value + 1e-9


# --- properties -----------------------------------------------------------


def test_value_is_bounded_symmetric_and_triangular():
    rng = np.random.default_rng(58)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        metric = random_points_metric(rng, m, scale=1.5)
        measures = []
        for _ in range(3):
            k = int(rng.integers(1, m + 1))
            atoms = rng.choice(m, size=k, replace=False)
            measures.append(measure(atoms, rng.dirichlet(np.ones(k))))
        p, q, r = measures
        dpq, _ = prohorov_exact(metric, p, q)
        dqp, _ = prohorov_exact(metric, q, p)
        dqr, _ = prohorov_exact(metric, q, r)
        dpr, _ = prohorov_exact(metric, p, r)
        assert 0.0 <= dpq <= 1.0 + 1e-12
        assert dpq == pytest.approx(dqp, abs=1e-9)
        assert dpr <= dpq + dqr + 1e-9


def test_matches_subset_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        metric, p, q = random_instance(rng)
        value, _ = prohorov_exact(metric, p, q)
        want = prohorov_subset_oracle(metric, p.atoms, p.probs,
                                      q.atoms, q.probs)
        assert value == pytest.approx(want, abs=1e-9), trial


def test_matches_lp_breakpoint_scan():
    rng = np.random.default_rng(404)
    for trial in range(60):
        metric, p, q = random_instance(rng, max_pts=6, max_support=4)
        value, _ = prohorov_exact(metric, p, q)
        want = prohorov_lp_scan_oracle(metric, p.atoms, p.probs,
                                       q.atoms, q.probs)
        assert value == pytest.approx(want, abs=1e-7), trial


# --- flow oracles and the incumbent test ----------------------------------


def integer_masses(w):
    return np.rint(np.asarray(w) * FLOW_SCALE).astype(np.int64)


def check_line_flow(va, pa, vb, pb):
    """The line flow against Dinic at every breakpoint of |va - vb|, and both
    flow matrices against the masses they route; returns how many
    admissible patterns had an empty row between nonempty rows."""
    dpq = np.abs(va[:, None] - vb[None, :])
    cp, cq = integer_masses(pa), integer_masses(pb)
    gaps = 0
    for t in np.unique(np.concatenate([[0.0], dpq.ravel()])):
        adm = dpq <= t
        got, flow = _line_flow_mass(cp, cq, adm)
        want, dinic = _max_flow_mass(cp, cq, adm)
        assert got == want, t
        for f in (flow, dinic):
            assert f.sum() == got and not f[~adm].any()
            assert (f.sum(axis=1) <= cp).all() and (f.sum(axis=0) <= cq).all()
        full = np.flatnonzero(adm.any(axis=1))
        gaps += int(len(full) and not adm[full[0]:full[-1] + 1].any(axis=1).all())
    return gaps


def test_line_flow_matches_dinic_on_sorted_laws():
    rng = np.random.default_rng(61)
    gaps = 0
    for trial in range(150):
        ka, kb = (int(k) for k in rng.integers(1, 9, size=2))
        if trial % 2:  # ties within each law and across the two
            va = np.sort(0.1 * rng.integers(0, 6, size=ka))
            vb = np.sort(0.1 * rng.integers(0, 6, size=kb))
        else:
            va = np.sort(rng.uniform(0.0, 3.0, size=ka))
            vb = np.sort(rng.uniform(0.0, 3.0, size=kb))
        pa = dyadic_weights(rng, ka, denom=32) if trial % 3 else rng.dirichlet(np.ones(ka))
        pb = dyadic_weights(rng, kb, denom=32) if trial % 3 else rng.dirichlet(np.ones(kb))
        gaps += check_line_flow(va, pa, vb, pb)
    # a row with no admissible column between rows that have some
    va, vb = np.array([0.0, 5.0, 10.0]), np.array([0.0, 10.0])
    assert check_line_flow(va, [0.25, 0.5, 0.25], vb, [0.5, 0.5]) > 0
    assert gaps > 0


def test_line_flow_reads_the_rounded_difference():
    # fl(0.55 - 0.03) <= 0.52 holds, but the shortcut 0.03 >= fl(0.55 - 0.52)
    # does not, so an oracle built on it would route nothing at t = 0.52
    va, vb, t = np.array([0.55]), np.array([0.03]), 0.52
    adm = np.abs(va[:, None] - vb[None, :]) <= t
    shortcut = (vb[None, :] >= va[:, None] - t) & (vb[None, :] <= va[:, None] + t)
    assert adm.all() and not shortcut.any()
    cp = cq = integer_masses([1.0])
    assert _line_flow_mass(cp, cq, adm)[0] == _max_flow_mass(cp, cq, adm)[0] == FLOW_SCALE
    one = np.array([1.0])
    value, _ = _prohorov_cross(np.abs(va[:, None] - vb[None, :]), one, one,
                               flow=_line_flow_mass)
    assert value == 0.52


def test_incumbent_test_matches_the_full_value():
    rng = np.random.default_rng(73)
    for trial in range(60):
        metric, p, q = random_instance(rng, max_support=6)
        dpq = metric[np.ix_(p.atoms, q.atoms)]
        if trial % 4 == 0:  # many tied distances
            dpq = np.round(dpq, 1)
        value, _ = _prohorov_cross(dpq, p.probs, q.probs)
        ts = np.unique(dpq)
        bounds = [0.0, value, np.nextafter(value, 2.0), np.nextafter(value, -1.0),
                  1.0, 1.5, math.inf, *ts.tolist()]
        for bound in bounds:
            assert _prohorov_below(dpq, p.probs, q.probs, bound) == (value < bound), (
                trial, bound)


# --- strassen_check -------------------------------------------------------


def test_strassen_brackets_the_exact_value():
    rng = np.random.default_rng(911)
    for _ in range(50):
        metric, p, q = random_instance(rng)
        value, _ = prohorov_exact(metric, p, q)
        assert strassen_check(metric, p, q, value + 1e-9)
        if value > 1e-6:
            assert not strassen_check(metric, p, q, value - 1e-6)


def test_strassen_trivial_cases():
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = measure([0, 1], [0.75, 0.25])
    q = measure([0, 1], [0.25, 0.75])
    assert strassen_check(metric, p, q, 0.5)
    assert not strassen_check(metric, p, q, 0.25)
    assert strassen_check(metric, p, p, 0.0)


def test_strassen_refuses_large_supports():
    n = 21
    metric = random_points_metric(np.random.default_rng(0), n)
    u = measure(range(n), np.full(n, 1.0 / n))
    with pytest.raises(TooLargeError):
        strassen_check(metric, u, u, 0.1)


# --- input validation -----------------------------------------------------


def test_marginal_errors():
    metric = np.zeros((2, 2))
    with pytest.raises(MarginalError):
        measure([0, 1], [0.5])
    with pytest.raises(MarginalError):
        prohorov_exact(metric, measure([0], [0.7]), measure([1], [1.0]))
    with pytest.raises(MarginalError):
        prohorov_exact(metric, measure([0, 1], [1.5, -0.5]),
                       measure([1], [1.0]))
    with pytest.raises(MarginalError):
        prohorov_exact(metric, measure([], []), measure([1], [1.0]))
    with pytest.raises(MarginalError, match="non-finite"):
        prohorov_exact(metric, measure([0, 1], [math.nan, 1.0]),
                       measure([1], [1.0]))


def test_atom_indices_must_lie_in_the_metric():
    # atom -1 would read the last row and answer for [2, 0]
    metric = random_points_metric(np.random.default_rng(3), 3)
    good = measure([2, 0], [0.5, 0.5])
    for atoms, bad in (([5], 5), ([-1, 0], -1), ([0, 3], 3)):
        other = measure(atoms, np.full(len(atoms), 1.0 / len(atoms)))
        for p, q in ((other, good), (good, other)):
            for call in (prohorov_exact, lambda m, p, q: strassen_check(m, p, q, 0.1)):
                with pytest.raises(MarginalError,
                                   match=f"^atom index {bad} is outside the 3-point metric$"):
                    call(metric, p, q)
