"""Release gate: nine numbered end-to-end checks.

Each test prints one scoreboard line, ``criterion N (<name>): PASS`` or
``FAIL`` with a short detail tail, then asserts.  Run with

    pytest -s tests/test_acceptance.py

to see the whole scoreboard; a plain run still fails loudly on any
criterion.  Where a criterion carries a runtime ceiling the elapsed time
is part of the verdict.  All randomness is seeded, so the outcome is a
property of the code, not of the weather.
"""

import itertools
import math
import time

import numpy as np

from mmmspace import (
    CoalescentConfig,
    FiniteMmmSpace,
    FinitePointMeasure,
    MarkSpace,
    MoranConfig,
    convergence_table,
    default_panel,
    distance_tail,
    empirical_from_samples,
    evaluate_exact,
    exact_law,
    family_tightness,
    is_equivalent_exact,
    kingman,
    law_push,
    laws_equal,
    mgp_exact,
    mgp_upper,
    modulus_mass,
    moran,
    multiply,
    prohorov_exact,
    strassen_check,
    two_sample_test,
)

from _oracles import prohorov_subset_oracle
from conftest import (
    AB_MARKS,
    dyadic_weights,
    random_points_metric,
    random_space,
    relabeled,
    two_point,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _ultrametric_excess(d: np.ndarray) -> float:
    """max over triples of r(i,k) - max(r(i,j), r(j,k)); <= 0 on trees."""
    return float((d[:, None, :] - np.maximum(d[:, :, None], d[None, :, :])).max())


def _path_space(n_points, spacing, label="path"):
    xs = np.arange(n_points) * spacing
    d = np.abs(xs[:, None] - xs[None, :])
    return FiniteMmmSpace(
        distances=d,
        weights=np.full(n_points, 1.0 / n_points),
        marks=("a",) * n_points,
        mark_space=AB_MARKS,
        label=label,
    )


# --- 1: flow solver vs subset enumeration ------------------------------------


def test_criterion_1_prohorov_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        metric = random_points_metric(rng, m, scale=float(rng.uniform(0.2, 2.0)))
        kp = int(rng.integers(1, min(5, m) + 1))
        kq = int(rng.integers(1, min(5, m) + 1))
        p = FinitePointMeasure(
            rng.choice(m, size=kp, replace=False), dyadic_weights(rng, kp, denom=128)
        )
        q = FinitePointMeasure(
            rng.choice(m, size=kq, replace=False), dyadic_weights(rng, kq, denom=128)
        )
        v, _ = prohorov_exact(metric, p, q)
        ref = prohorov_subset_oracle(metric, p.atoms, p.probs, q.atoms, q.probs)
        worst = max(worst, abs(v - ref))
        if abs(v - ref) > 1e-9:
            ok = False
        if not strassen_check(metric, p, q, v + 1e-9):
            ok = False
        if v > 1e-6 and strassen_check(metric, p, q, v - 1e-6):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 30.0
    _verdict(
        1,
        "prohorov oracle equivalence",
        ok,
        f"1000 instances, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


# --- 2: relabeled copies sit at distance zero --------------------------------


def test_criterion_2_relabeled_copies_at_distance_zero():
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    ok = True
    for _ in range(200):
        space = random_space(rng, max_n=5)
        twin, _ = relabeled(space, rng)
        v, _ = mgp_upper(space, twin)
        worst = max(worst, v)
        if v > 1e-9 or not is_equivalent_exact(space, twin):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 10.0
    _verdict(
        2,
        "relabeled copies at distance zero",
        ok,
        f"200 spaces, worst upper {worst:.2e}, {elapsed:.1f}s",
    )


# --- 3: certified value sits inside the bounds, triangle survives ------------


def test_criterion_3_sandwich_and_triangle():
    rng = np.random.default_rng(303)
    t0 = time.time()
    ok = True
    pairs = 0
    for _ in range(34):
        x = random_space(rng, max_n=3)
        y = random_space(rng, max_n=3)
        z = random_space(rng, max_n=3)
        res = {}
        for key, (u, w) in {
            "xy": (x, y), "yz": (y, z), "xz": (x, z),
        }.items():
            r = mgp_exact(u, w, budget=1500)
            res[key] = r
            pairs += 1
            if not (r.lower <= r.exact + 1e-6 and r.exact <= r.upper + 1e-6):
                ok = False
        # each certified value is an upper bound on the true distance and
        # overshoots it by at most its own slack, so the true triangle
        # inequality forces this one with a single slack; three is generous
        slack = 3.0 * max(res["xy"].slack, res["yz"].slack, res["xz"].slack)
        if res["xz"].exact > res["xy"].exact + res["yz"].exact + slack + 1e-9:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300.0
    _verdict(
        3,
        "sandwich and triangle",
        ok,
        f"{pairs} certified pairs in 34 triples, {elapsed:.1f}s",
    )


# --- 4: product polynomial equals the two-block integral ---------------------


def _two_block_integral(a, b, space):
    """Enumerate E[a(first block) * b(second block)] straight from atoms."""
    n = a.order + b.order
    w = space.weights / math.fsum(space.weights.tolist())
    dist = space.distances
    marks = space.marks
    terms = []
    for idx in itertools.product(range(space.n), repeat=n):
        weight = 1.0
        for i in idx:
            weight *= w[i]
        head, tail = idx[: a.order], idx[a.order :]
        va = a.body(dist[np.ix_(head, head)], tuple(marks[i] for i in head))
        vb = b.body(dist[np.ix_(tail, tail)], tuple(marks[i] for i in tail))
        terms.append(weight * va * vb)
    return math.fsum(terms)


def test_criterion_4_product_matches_atom_level_integral():
    rng = np.random.default_rng(404)
    panel = default_panel(AB_MARKS, 2, 6)
    t0 = time.time()
    worst = 0.0
    ok = True
    for _ in range(100):
        space = random_space(rng, max_n=4)
        a = panel[int(rng.integers(len(panel)))]
        b = panel[int(rng.integers(len(panel)))]
        got = evaluate_exact(multiply(a, b), space)
        ref = _two_block_integral(a, b, space)
        gap = abs(got - ref)
        worst = max(worst, gap)
        if gap > 1e-12:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 10.0
    _verdict(
        4,
        "product polynomial identity",
        ok,
        f"100 space/pair draws, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


# --- 5: the order-3 law is exchangeable, exactly ------------------------------


def test_criterion_5_law_exchangeability():
    rng = np.random.default_rng(505)
    t0 = time.time()
    ok = True
    for _ in range(50):
        space = random_space(rng, max_n=4)
        law = exact_law(space, 3)
        for sigma in itertools.permutations(range(3)):
            if not laws_equal(law_push(law, sigma), law):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 10.0
    _verdict(
        5,
        "law exchangeability",
        ok,
        f"50 spaces x 6 permutations, exact equality, {elapsed:.1f}s",
    )


# --- 6: empirical spaces drift toward the truth -------------------------------


def test_criterion_6_empirical_convergence_trend():
    fixed = FiniteMmmSpace(
        distances=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]),
        weights=np.array([0.5, 0.3, 0.2]),
        marks=("a", "b", "a"),
        mark_space=AB_MARKS,
        label="fixed-3pt",
    )
    panel = default_panel(AB_MARKS, 2, 5)
    t0 = time.time()
    up10, up1000 = [], []
    gaps10 = np.zeros((50, len(panel)))
    gaps1000 = np.zeros((50, len(panel)))
    for s in range(50):
        e10 = empirical_from_samples(fixed, 10, seed=s)
        e1000 = empirical_from_samples(fixed, 1000, seed=10_000 + s)
        up10.append(mgp_upper(e10, fixed)[0])
        up1000.append(mgp_upper(e1000, fixed)[0])
        table = convergence_table([e10, e1000], fixed, panel, seed=s)
        gaps10[s] = table.gaps[0]
        gaps1000[s] = table.gaps[1]
    med10, med1000 = float(np.median(up10)), float(np.median(up1000))
    col10 = np.median(gaps10, axis=0)
    col1000 = np.median(gaps1000, axis=0)
    elapsed = time.time() - t0
    ok = med1000 < med10 and bool(np.all(col1000 < col10)) and elapsed <= 120.0
    _verdict(
        6,
        "empirical convergence trend",
        ok,
        f"median upper {med10:.3f} -> {med1000:.3f}, "
        f"panel gap columns all shrink: {bool(np.all(col1000 < col10))}, {elapsed:.1f}s",
    )


# --- 7: the permutation test holds its level and sees d=1 vs d=2 --------------


def test_criterion_7_test_level_and_power():
    space_a = two_point()
    space_a2 = two_point(d=2.0, label="two-point-d2")
    t0 = time.time()
    rejections = 0
    for s in range(200):
        r = two_sample_test(space_a, space_a, n=2, m=100, permutations=99, seed=s)
        if r.p_value <= 0.05:
            rejections += 1
    level = rejections / 200.0
    hits = 0
    for s in range(20):
        r = two_sample_test(space_a, space_a2, n=2, m=500, permutations=99, seed=s)
        if r.p_value <= 0.05:
            hits += 1
    power = hits / 20.0
    elapsed = time.time() - t0
    ok = 0.01 <= level <= 0.10 and power >= 0.9 and elapsed <= 120.0
    _verdict(
        7,
        "test level and power",
        ok,
        f"level {level:.3f} on 200 null runs, power {power:.2f} on 20, {elapsed:.1f}s",
    )


# --- 8: genealogies look like genealogies -------------------------------------


def test_criterion_8_genealogy_pair_law_and_finite_size_trend():
    t0 = time.time()
    ok = True

    # pair distance: Exp(1) regardless of who else is in the sample
    vals = np.empty(10_000)
    for s in range(10_000):
        sp = kingman(CoalescentConfig(leaves=2, theta=0.0, seed=s))
        if _ultrametric_excess(sp.distances) > 1e-12:
            ok = False
        vals[s] = sp.distances[0, 1]
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    if abs(mean - 1.0) > 4.0 * stderr:
        ok = False

    # finite population size is visible: the N=200 dual tracks the
    # coalescent target closer than the N=10 dual, column by column
    dna = MarkSpace.discrete(("A", "C", "G", "T"))
    panel = default_panel(dna, 2, 5)
    target_rows = []
    for s in range(100):
        sp = kingman(CoalescentConfig(leaves=200, theta=4.0, seed=s))
        if _ultrametric_excess(sp.distances) > 1e-12:
            ok = False
        target_rows.append([evaluate_exact(p, sp) for p in panel])
    target = np.mean(target_rows, axis=0)

    gaps200 = np.zeros((20, len(panel)))
    gaps10 = np.zeros((20, len(panel)))
    for r in range(20):
        m200 = moran(MoranConfig(population=200, horizon=10.0, theta=4.0, seed=30_000 + r))
        m10 = moran(MoranConfig(population=10, horizon=10.0, theta=4.0, seed=35_000 + r))
        if max(_ultrametric_excess(m200.distances), _ultrametric_excess(m10.distances)) > 1e-12:
            ok = False
        gaps200[r] = [abs(evaluate_exact(p, m200) - t) for p, t in zip(panel, target)]
        gaps10[r] = [abs(evaluate_exact(p, m10) - t) for p, t in zip(panel, target)]
    med200 = np.median(gaps200, axis=0)
    med10 = np.median(gaps10, axis=0)
    wins = int((med200 < med10).sum())
    if wins < 4:
        ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 180.0
    _verdict(
        8,
        "genealogy pair law and finite-size trend",
        ok,
        f"pair mean {mean:.4f} (se {stderr:.4f}), {wins}/5 panel columns closer, "
        f"{elapsed:.1f}s",
    )


# --- 9: tightness diagnostics read the right families --------------------------


def test_criterion_9_tightness_diagnostics():
    space_a = two_point()
    exact_ok = (
        modulus_mass(space_a, 0.5, 0.25) == 0.0
        and modulus_mass(space_a, 0.5, 0.5) == 1.0
        and distance_tail(space_a, [0.5]).tolist() == [0.5]
    )

    growing = [
        two_point(d=2.0**k, marks=("a", "b"), mark_space=AB_MARKS, label=f"wide-{k}")
        for k in range(6)
    ]
    grow_report = family_tightness(growing, [0.5, 2.0, 8.0], [0.02, 0.25])
    shrinking = [_path_space(8, spacing=1.0 / k, label=f"path-{k}") for k in range(1, 6)]
    shrink_report = family_tightness(
        shrinking, [0.5, 2.0, 8.0], [0.02, 0.25], mark_labels=("a", "b")
    )
    ok = (
        exact_ok
        and grow_report.tightness_consistent is False
        and grow_report.verdicts["distance_tail"] is False
        and shrink_report.tightness_consistent is True
    )
    _verdict(
        9,
        "tightness diagnostics",
        ok,
        "hand values exact, growing family flagged, shrinking family consistent",
    )
