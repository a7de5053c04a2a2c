"""Tests for the exact Prohorov solver and the Strassen subset check."""

import math

import numpy as np
import pytest

import mmmspace.prohorov

from mmmspace import (
    FinitePointMeasure,
    MarginalError,
    ParameterError,
    TooLargeError,
    prohorov_exact,
    strassen_check,
)
from mmmspace.prohorov import (
    FLOW_SCALE, _integer_masses, _line_prohorov, _masks, _max_flow_mass, _prohorov_search,
)

from _oracles import max_flow_mass_oracle, prohorov_lp_scan_oracle, prohorov_subset_oracle
from conftest import dyadic_weights, nan_cloud, random_points_metric


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
        assert value == 0.0
    # rounding each third to its nearest unit would leave the total one short
    thirds = measure([0, 1, 2], [1 / 3] * 3)
    assert prohorov_exact(np.ones((3, 3)) - np.eye(3), thirds, thirds)[0] == 0.0


def test_integer_masses_sum_to_the_flow_scale():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 7, 30):
        for w in (np.full(n, 1 / n), rng.dirichlet(np.ones(n)), dyadic_weights(rng, n)):
            mass = _integer_masses(w)
            assert mass.dtype == np.int64 and int(mass.sum()) == FLOW_SCALE
            assert np.all(np.abs(mass - w * FLOW_SCALE) < 1.0 + 1e-3)
    assert _integer_masses([1 / 3] * 3).tolist() == [333333333334, 333333333333, 333333333333]


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


def triples(flow):
    """The rows, columns and amounts of a sparse flow's triples as arrays."""
    return np.array(flow, dtype=np.int64).reshape(-1, 3).T


def check_sparse_flow(flow, mass, cp, cq, adm):
    """A sparse flow on distinct admissible pairs in row-major order, within
    both marginals, carrying positive amounts that sum to ``mass``."""
    rows, cols, amounts = triples(flow)
    assert amounts.sum() == mass
    assert adm[rows, cols].all() and (amounts > 0).all()
    assert np.all(np.diff(rows * adm.shape[1] + cols) > 0)
    out, into = np.zeros_like(cp), np.zeros_like(cq)
    np.add.at(out, rows, amounts)
    np.add.at(into, cols, amounts)
    assert (out <= cp).all() and (into <= cq).all()


def test_bitmask_kernel_matches_the_edge_list_oracle():
    """`_max_flow_mass` on row masks routes the oracle's mass, on patterns
    with masks beyond 64 and 128 bits, zero-mass atoms, empty rows and
    columns, and every pair admissible."""
    rng = np.random.default_rng(26)
    for trial in range(300):
        wide = trial % 5 == 0
        kp, kq = (int(k) for k in rng.integers(*((65, 151) if wide else (1, 13)), size=2))
        adm = rng.random((kp, kq)) < rng.uniform(0.0, 0.5 if wide else 1.0)
        if trial % 4 == 1:
            adm[:] = True
        if trial % 3 == 2:  # an empty row and an empty column
            adm[rng.integers(kp)] = False
            adm[:, rng.integers(kq)] = False
        wp, wq = rng.dirichlet(np.ones(kp)), rng.dirichlet(np.ones(kq))
        if trial % 2:  # zero-mass atoms and tied masses
            wp = rng.integers(0, 3, size=kp) + (np.arange(kp) == 0)
            wq = rng.integers(0, 3, size=kq) + (np.arange(kq) == 0)
        cp, cq = _integer_masses(wp), _integer_masses(wq)
        want, _ = max_flow_mass_oracle(cp, cq, adm)
        got, flow = _max_flow_mass(cp.tolist(), cq.tolist(), _masks(adm))
        assert got == want, trial
        check_sparse_flow(flow, got, cp, cq, adm)


def check_line_flow(va, pa, vb, pb):
    """`_line_prohorov` against the Dinic search on the dense abs(va - vb),
    bit for bit, and Dinic against the edge-list oracle at every breakpoint;
    returns how many admissible patterns had an empty row between nonempty
    rows."""
    dpq = np.abs(va[:, None] - vb[None, :])
    cp, cq = _integer_masses(pa), _integer_masses(pb)
    assert _line_prohorov(va, vb, cp, cq) == _prohorov_search(dpq, cp, cq)[0]
    gaps = 0
    for t in np.unique(np.concatenate([[0.0], dpq.ravel()])):
        adm = dpq <= t
        got = _max_flow_mass(cp.tolist(), cq.tolist(), _masks(adm))[0]
        assert got == max_flow_mass_oracle(cp, cq, adm)[0], t
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
    for trial in range(60):  # zero-mass atoms, and laws of up to 60 atoms
        ka, kb = (int(k) for k in rng.integers(2, 61 if trial % 3 == 0 else 9, size=2))
        va = np.sort(np.round(rng.uniform(0.0, 1.0, size=ka), 2))
        vb = np.sort(np.round(rng.uniform(0.0, 1.0, size=kb), 2))
        pa, pb = rng.integers(0, 3, size=ka) + 0.0, rng.integers(0, 3, size=kb) + 0.0
        pa[0] = pb[-1] = 1.0
        check_line_flow(va, pa / pa.sum(), vb, pb / pb.sum())


def test_line_flow_reads_the_rounded_difference():
    # fl(0.55 - 0.03) <= 0.52 holds, but the shortcut 0.03 >= fl(0.55 - 0.52)
    # does not, so a search built on it would route nothing at t = 0.52
    va, vb, t = np.array([0.55]), np.array([0.03]), 0.52
    adm = np.abs(va[:, None] - vb[None, :]) <= t
    shortcut = (vb[None, :] >= va[:, None] - t) & (vb[None, :] <= va[:, None] + t)
    assert adm.all() and not shortcut.any()
    cp = cq = _integer_masses([1.0])
    assert _line_prohorov(va, vb, cp, cq) == 0.52
    assert _prohorov_search(np.abs(va[:, None] - vb[None, :]), cp, cq)[0] == 0.52


def edge_matrices(rng, trials=6):
    """(label, cross matrix) pairs at the edges of the search: distances all
    above 1 (no probe below 1 passes), negative entries (`prohorov_exact`
    takes an unchecked pseudo-metric), 1x1 matrices, distances log-uniform
    from 1e-300 to 1, and distances clustered within 1e-12."""
    for trial in range(trials):
        kp, kq = (int(k) for k in rng.integers(1, 9, size=2))
        yield ("above 1", trial), 1.0 + rng.uniform(0.0, 2.0, size=(kp, kq))
        yield ("negative", trial), rng.uniform(-0.5, 1.0, size=(kp, kq))
        yield ("1x1", trial), rng.uniform(0.0, 1.5, size=(1, 1))
        yield ("1e-300", trial), 10.0 ** rng.uniform(-300.0, 0.0, size=(kp, kq))
        yield ("clustered", trial), 0.3 + 1e-12 * rng.uniform(0.0, 1.0, size=(kp, kq))


def test_incumbent_test_matches_the_full_value():
    """Below the bound, the bounded search returns the unbounded value and
    flow, so witness couplings cannot drift; at or above it, None."""
    def check(dpq, wp, wq, label):
        cp, cq = _integer_masses(wp), _integer_masses(wq)
        value, want = _prohorov_search(dpq, cp, cq)
        bounds = [0.0, value, np.nextafter(value, 2.0), np.nextafter(value, -1.0),
                  1.0, 1.5, math.inf, *np.unique(dpq).tolist()]
        for bound in bounds:
            got = _prohorov_search(dpq, cp, cq, bound)
            if value >= bound:
                assert got is None, (label, bound)
            else:
                assert got is not None and got[0] == value, (label, bound)
                assert got[1] == want, (label, bound)
        return value

    rng = np.random.default_rng(73)
    for trial in range(60):
        metric, p, q = random_instance(rng, max_support=6)
        dpq = metric[np.ix_(p.atoms, q.atoms)]
        if trial % 4 == 0:  # many tied distances
            dpq = np.round(dpq, 1)
        check(dpq, p.probs, q.probs, trial)
    for trial in range(30):  # laws on the line, where the line search reads the same value
        ka, kb = (int(k) for k in rng.integers(1, 8, size=2))
        va = np.sort(0.1 * rng.integers(0, 8, size=ka))
        vb = np.sort(0.1 * rng.integers(0, 8, size=kb))
        dpq = np.abs(va[:, None] - vb[None, :])
        pa, pb = rng.dirichlet(np.ones(ka)), rng.dirichlet(np.ones(kb))
        value = check(dpq, pa, pb, ("line", trial))
        assert _line_prohorov(va, vb, _integer_masses(pa), _integer_masses(pb)) == value
    for label, dpq in edge_matrices(rng):
        value = check(dpq, rng.dirichlet(np.ones(dpq.shape[0])),
                      rng.dirichlet(np.ones(dpq.shape[1])), label)
        assert value == 1.0 or label[0] != "above 1", label


def test_search_returns_the_flow_at_its_value():
    """The search returns the kernel's flow at the largest breakpoint <= its
    value, whose mass the edge-list oracle routes too."""
    def check(dpq, wp, wq, label):
        cp, cq = _integer_masses(wp), _integer_masses(wq)
        ts = np.unique(np.concatenate([[0.0], dpq.ravel()]))
        value, flow = _prohorov_search(dpq, cp, cq)
        adm = dpq <= ts[ts <= value].max()
        mass, want = _max_flow_mass(cp.tolist(), cq.tolist(), _masks(adm))
        assert flow == want, label
        assert mass == max_flow_mass_oracle(cp, cq, adm)[0], label
        check_sparse_flow(flow, mass, cp, cq, adm)

    rng = np.random.default_rng(97)
    for trial in range(80):
        metric, p, q = random_instance(rng, max_support=6)
        dpq = metric[np.ix_(p.atoms, q.atoms)]
        if trial % 2:  # many tied distances
            dpq = np.round(dpq, 1)
        wp, wq = p.probs.copy(), q.probs.copy()
        if trial % 3 == 0:  # zero-weight atoms on either side
            for w in (wp, wq):
                if len(w) > 1:
                    w[rng.integers(len(w))] = 0.0
                    w /= w.sum()
        check(dpq, wp, wq, trial)
    for label, dpq in edge_matrices(rng):
        check(dpq, rng.dirichlet(np.ones(dpq.shape[0])), rng.dirichlet(np.ones(dpq.shape[1])),
              label)


def test_search_runs_at_most_64_flows(monkeypatch):
    """No search, bounded or not, runs more than 62 bisection probes plus
    the bound's probe and the flow probe at 1.0."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _max_flow_mass(*args)

    monkeypatch.setattr(mmmspace.prohorov, "_max_flow_mass", counted)
    rng = np.random.default_rng(89)
    most = 0
    for label, dpq in edge_matrices(rng, trials=20):
        cp = _integer_masses(rng.dirichlet(np.ones(dpq.shape[0])))
        cq = _integer_masses(rng.dirichlet(np.ones(dpq.shape[1])))
        for bound in (math.inf, 1.0, 0.5, 1e-150, float(dpq.min()), float(dpq.max())):
            calls.clear()
            _prohorov_search(dpq, cp, cq, bound)
            assert len(calls) <= 64, (label, bound)
            most = max(most, len(calls))
    assert most > 1


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


def test_strassen_rejects_a_nan_eps():
    # every comparison with NaN is False, so the subset test used to pass
    # although the distance of these point masses is 1
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    p, q = measure([0], [1.0]), measure([1], [1.0])
    assert prohorov_exact(metric, p, q)[0] == 1.0
    with pytest.raises(ParameterError, match="NaN"):
        strassen_check(metric, p, q, math.nan)
    assert strassen_check(metric, p, q, math.inf)
    assert not strassen_check(metric, p, q, 0.5)


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
    # cast to int, 0.9 and 1.5 would read atoms 0 and 1 and answer 1.0
    for atoms in ([0.9], [1.5], [math.nan], [math.inf], [1e20], ["a"], [None], [True]):
        with pytest.raises(MarginalError, match="^atoms must be whole numbers within int64$"):
            measure(atoms, [1.0])
    assert measure([0.0, 2.0], [0.5, 0.5]).atoms.tolist() == [0, 2]
    assert measure(np.array([1], dtype=np.uint8), [1.0]).atoms.tolist() == [1]


def test_non_finite_metric_entries_are_rejected():
    # a NaN between the two supports is neither near nor far
    metric = nan_cloud().distances  # d(0, 1) = NaN
    for p, q in ((measure([0, 2], [0.5, 0.5]), measure([1, 3], [0.5, 0.5])),
                 (measure([0], [1.0]), measure([1], [1.0]))):
        for call in (prohorov_exact, lambda m, p, q: strassen_check(m, p, q, 0.5)):
            for pair in ((p, q), (q, p)):
                with pytest.raises(ParameterError, match=r"entry \(0, 0\) is not finite$"):
                    call(metric, *pair)
    # entries the two supports never read do not matter
    value, _ = prohorov_exact(metric, measure([0, 2], [0.5, 0.5]), measure([0, 2], [0.5, 0.5]))
    assert value == 0.0


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
