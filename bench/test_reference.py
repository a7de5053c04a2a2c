"""Each reference check accepts the program's answer and rejects a
perturbed one.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mmmspace as M  # noqa: E402
import reference as ref  # noqa: E402
from workloads import cloud, factor_arrays, product_factor_arrays, tree  # noqa: E402


@pytest.mark.parametrize("space", [tree(12, 3), cloud(10, 4)], ids=["tree", "cloud"])
def test_pair_law_histogram(space):
    d, w = space.distances, space.weights
    values, probs = M.pair_distance_law(space)
    assert ref.check_pair_law(d, w, values, probs) == []
    moved = probs.copy()
    moved[0] += 1e-9
    moved[-1] -= 1e-9
    assert ref.check_pair_law(d, w, values, moved)
    shifted = values.copy()
    shifted[-1] *= 1 + 1e-9
    assert ref.check_pair_law(d, w, shifted, probs)
    assert ref.check_pair_law(d, w, values[1:], probs[1:])


def test_distance_tail():
    space = cloud(15, 5)
    ts = np.linspace(0.2, 3.0, 8)
    tail = M.distance_tail(space, ts)
    assert ref.check_tail(space.distances, space.weights, ts, tail) == []
    assert ref.check_tail(space.distances, space.weights, ts, tail + 1e-9 * (ts == ts[3]))


def test_tuple_sum_up_to_order_four():
    space = tree(6, 7)
    members = [phi for phi in M.default_panel(space.mark_space, 2, 12)]
    for phi in members[:3] + [phi for phi in members if phi.order == 2][:2]:
        v = M.evaluate_exact(phi, space)
        marks, pairs = factor_arrays(phi, space)
        assert ref.check_tuple_sum(marks, pairs, space.weights, v) == []
        assert ref.check_tuple_sum(marks, pairs, space.weights, v + 1e-9)
    a, b = [phi for phi in members if phi.order == 2][:2]
    v = M.evaluate_exact(M.multiply(a, b), space)
    marks, pairs = product_factor_arrays(a, b, space)
    assert ref.check_tuple_sum(marks, pairs, space.weights, v) == []
    assert ref.check_tuple_sum(marks, pairs, space.weights, v * (1 + 1e-9))
    # dropping one pair factor changes the integral
    assert ref.check_tuple_sum(marks, pairs[:-1], space.weights, v)


def test_modulus_ball_masses():
    family = [tree(10, 11), tree(14, 12)]
    eps, delta = (0.05, 0.2, 0.6), (0.05, 0.2)
    rep = M.family_tightness(family, eps, delta)
    fam = [(sp.distances, sp.weights) for sp in family]
    assert ref.check_modulus(fam, eps, delta, rep.modulus) == []
    bumped = rep.modulus.copy()
    bumped[1, 1] += 1e-9
    assert ref.check_modulus(fam, eps, delta, bumped)
    for sp in family:
        assert np.allclose(M.ball_masses(sp, 0.2), ref.ball_masses(sp.distances, sp.weights, 0.2))


def _small_instance(seed, size=5):
    rng = np.random.default_rng(seed)
    metric = cloud(3 * size, seed, "constant").distances
    pick = rng.permutation(3 * size)
    p = M.FinitePointMeasure(atoms=pick[:size], probs=rng.dirichlet(np.ones(size)))
    q = M.FinitePointMeasure(atoms=pick[size:2 * size], probs=rng.dirichlet(np.ones(size)))
    return metric, p, q, metric[np.ix_(p.atoms, q.atoms)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prohorov_lp_oracle(seed):
    metric, p, q, cross = _small_instance(seed)
    value, _ = M.prohorov_exact(metric, p, q)
    assert ref.check_prohorov_lp(cross, p.probs, q.probs, value) == []
    assert ref.check_prohorov_lp(cross, p.probs, q.probs, value - 1e-6)
    assert ref.check_prohorov_lp(cross, p.probs, q.probs, value + 1e-6)


def test_coupling_certificate():
    metric, p, q, cross = _small_instance(4)
    value, coupling = M.prohorov_exact(metric, p, q)
    assert ref.check_coupling(cross, p.probs, q.probs, coupling, value) == []
    leaky = coupling.copy()
    leaky[0, 0] += 1e-6
    assert ref.check_coupling(cross, p.probs, q.probs, leaky, value)
    # the optimal coupling puts more than a smaller value beyond it
    assert ref.check_coupling(cross, p.probs, q.probs, coupling, 0.5 * value)


def test_triangle_check_in_chunks():
    rng = np.random.default_rng(0)
    z = rng.uniform(0, 1, size=(11, 11))
    z = z + z.T
    full = float((z[:, None, :] - z[:, :, None] - z[None, :, :]).max())
    assert ref.triangle_excess(z, chunk=3) == pytest.approx(full, abs=0)
    a, b = tree(7, 21), tree(9, 22)
    r = M.mgp_bounds(a, b)
    assert ref.check_gluing(a.distances, b.distances, r.witness_cross) == []
    broken = r.witness_cross.copy()
    broken[0, 0] += 3 * max(a.distances.max(), b.distances.max()) + 1.0
    assert ref.check_gluing(a.distances, b.distances, broken)
    assert ref.check_gluing(a.distances, b.distances, -r.witness_cross - 1.0)
