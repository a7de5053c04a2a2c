"""Tests for gluings, the distance bounds, and the certified tiny-case solver."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mmmspace.core
import mmmspace.mgp
from mmmspace import (
    CoalescentConfig,
    DomainError,
    FiniteMmmSpace,
    GluedSpace,
    GluingError,
    MarginalError,
    MarkSpace,
    MgpResult,
    ParameterError,
    TooLargeError,
    correspondence_cross,
    euclidean_cloud,
    glue,
    glue_three,
    is_equivalent_exact,
    kingman,
    mark_marginal,
    mgp_bounds,
    mgp_exact,
    mgp_lower,
    mgp_upper,
    pair_distance_law,
    two_sample_test,
    validate,
)
from mmmspace.mgp import _profile_cost, _pruned

from _oracles import (
    mark_distance, mgp_fallback_oracle, mgp_level_oracle, mgp_lower_union_oracle,
    mgp_relation_oracle, prune_chain_oracle, triangle_excess_oracle,
)
from conftest import (
    AB_MARKS, nan_cloud, random_space, relabeled, rounding_witness, tiny_spaces, two_point,
    uniform_space, witness_metric,
)


def one_point(mark, mark_space=AB_MARKS, label="pt"):
    return FiniteMmmSpace(
        distances=np.zeros((1, 1)),
        weights=np.array([1.0]),
        marks=(mark,),
        mark_space=mark_space,
        label=label,
    )


def random_pair(rng, max_n=3):
    a = random_space(rng, max_n=max_n, min_n=1)
    b = random_space(rng, max_n=max_n, min_n=1)
    return a, b


# --- gluing -----------------------------------------------------------------


def test_glue_accepts_a_valid_cross(space_A):
    g = glue(space_A, space_A, np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = g.z_metric()
    assert z.shape == (4, 4)
    assert np.allclose(z, z.T)
    assert z[0, 2] == 0.0 and z[0, 3] == 1.0


def test_glue_rejects_triangle_violation(space_A):
    pt = one_point(0, mark_space=space_A.mark_space)
    # d(x0, x1) = 1 but the cross claims 0 and 5: the 5 side overshoots
    # the route through x0 by 4.
    with pytest.raises(GluingError) as err:
        glue(space_A, pt, np.array([[0.0], [5.0]]))
    assert err.value.excess == pytest.approx(4.0, abs=1e-12)
    assert len(err.value.indices) == 3


def test_glue_names_the_first_worst_triple_of_the_full_scan(monkeypatch):
    # blocks of 4 rows over the 30-point glued metric; integer distances
    # make many triples tie for the worst excess, so the first one in C
    # order must win as in argmax over the full n^3 tensor
    monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", 4 * 30 * 30)
    rng = np.random.default_rng(5)
    path = np.abs(np.subtract.outer(np.arange(15.0), np.arange(15.0)))
    a = FiniteMmmSpace(distances=path, marks=("a",) * 15,
                       weights=np.full(15, 1 / 15), mark_space=AB_MARKS)
    for _ in range(10):
        cross = rng.integers(0, 8, size=(15, 15)).astype(float)
        z = GluedSpace(left=a, right=a, cross=cross).z_metric()
        excess = z[:, None, :] - z[:, :, None] - z[None, :, :]
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        with pytest.raises(GluingError) as err:
            glue(a, a, cross)
        assert err.value.indices == tuple(int(t) for t in worst)
        assert err.value.excess == excess[worst]


def line_space(x, label="line"):
    """Points of a line at the positions ``x``, one mark, equal weights."""
    x = np.asarray(x, dtype=float)
    return FiniteMmmSpace(distances=np.abs(np.subtract.outer(x, x)), marks=("a",) * len(x),
                          weights=np.full(len(x), 1 / len(x)), mark_space=AB_MARKS,
                          label=label)


def random_crosses(rng, a, b, count):
    """Integer crosses (tight and tied triangles), float crosses near the
    gap |r1 - r2| that valid gluings need, and the all-pairs gluing."""
    diam = max(a.distances.max(initial=0.0), b.distances.max(initial=0.0))
    for _ in range(count):
        yield rng.integers(0, 6, size=(a.n, b.n)).astype(float)
        yield rng.uniform(0.0, 3.0, size=(a.n, b.n))
        yield np.full((a.n, b.n), diam / 2) + rng.integers(-1, 2, size=(a.n, b.n)) * 0.5
        yield np.full((a.n, b.n), diam / 2)


@pytest.mark.parametrize("elements", [40, 4 * 24 * 24, 1 << 18])
def test_glue_raises_the_full_scans_worst_triple(monkeypatch, elements):
    """Chunks of a column (40 elements over up to 24 points), several rows
    per add, and one block: GluingError names the first worst triple of the
    full n^3 scan with its excess, and every other cross glues."""
    monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", elements)
    rng = np.random.default_rng(61)
    raised = passed = 0
    for n1, n2 in ((1, 2), (3, 4), (8, 8), (12, 12), (20, 20)):
        a = line_space(rng.integers(0, 6, size=n1), "a")
        b = line_space(rng.integers(0, 6, size=n2), "b")
        for cross in random_crosses(rng, a, b, 3):
            cross = np.maximum(cross, 0.0)
            want = triangle_excess_oracle(GluedSpace(left=a, right=b, cross=cross).z_metric())
            if want[0] > mmmspace.mgp.GLUE_TOL:
                with pytest.raises(GluingError) as err:
                    glue(a, b, cross)
                assert (err.value.indices, err.value.excess) == (want[1], want[0])
                raised += 1
            else:
                glue(a, b, cross)
                passed += 1
    assert raised > 0 and passed > 0


def test_glue_three_raises_the_full_scans_worst_triple():
    rng = np.random.default_rng(67)
    raised = passed = 0
    for n in (1, 2, 5, 8):
        spaces = [line_space(rng.uniform(0.0, 4.0, size=n), f"s{t}") for t in range(3)]
        for c12, c23 in zip(random_crosses(rng, *spaces[:2], 3),
                            random_crosses(rng, *spaces[1:], 3)):
            g12 = GluedSpace(left=spaces[0], right=spaces[1], cross=c12)
            g23 = GluedSpace(left=spaces[1], right=spaces[2], cross=c23)
            c13 = (c12[:, :, None] + c23[None, :, :]).min(axis=1)
            z = np.block([[spaces[0].distances, c12, c13], [c12.T, spaces[1].distances, c23],
                          [c13.T, c23.T, spaces[2].distances]])
            want = triangle_excess_oracle(z)
            if want[0] > mmmspace.mgp.GLUE_TOL:
                with pytest.raises(GluingError) as err:
                    glue_three(g12, g23)
                assert (err.value.indices, err.value.excess) == (want[1], want[0])
                raised += 1
            else:
                assert np.array_equal(glue_three(g12, g23), z)
                passed += 1
    assert raised > 0 and passed > 0


def test_glue_catches_the_rounding_witness():
    """fl(fl(a - b) - c) exceeds GLUE_TOL while fl(a - fl(b + c)) does not:
    the min-plus pass alone would clear the row, its margin must not."""
    a, b, c = rounding_witness(np.random.default_rng(71), mmmspace.mgp.GLUE_TOL,
                               relative=False)
    z = witness_metric(a, b, c)
    left = FiniteMmmSpace(distances=z[:-1, :-1], marks=("a",) * (len(z) - 1),
                          weights=np.full(len(z) - 1, 1 / (len(z) - 1)), mark_space=AB_MARKS)
    want = triangle_excess_oracle(z)
    assert want[0] > mmmspace.mgp.GLUE_TOL
    with pytest.raises(GluingError) as err:
        glue(left, line_space([0.0]), z[:-1, -1:])
    assert (err.value.indices, err.value.excess) == (want[1], want[0])


def test_valid_witnesses_still_glue():
    rng = np.random.default_rng(73)
    for _ in range(15):
        a, b = random_pair(rng, max_n=6)
        full = [(i, j) for i in range(a.n) for j in range(b.n)]
        g = glue(a, b, correspondence_cross(a, b, full)[0])
        glue_three(g, glue(b, a, correspondence_cross(b, a, [(j, i) for i, j in full])[0]))
        glue(a, b, mgp_bounds(a, b).witness_cross)


def test_glue_rejects_negative_cross(space_A):
    with pytest.raises(GluingError) as err:
        glue(space_A, space_A, np.array([[0.0, 1.0], [1.0, -0.2]]))
    assert err.value.excess == pytest.approx(0.2, abs=1e-12)


def test_glue_clamps_float_noise(space_A):
    g = glue(space_A, space_A, np.array([[-1e-12, 1.0], [1.0, 0.0]]))
    assert g.cross.min() == 0.0


def test_glue_parameter_checks(space_A):
    with pytest.raises(ParameterError):
        glue(space_A, space_A, np.zeros((2, 3)))
    other = two_point(marks=("a", "b"), mark_space=AB_MARKS, label="ab")
    with pytest.raises(ParameterError):
        glue(space_A, other, np.zeros((2, 2)))
    # the flow masses are the weights scaled to a total of 1, so a zero
    # total is refused before any rounding
    zero = two_point(weights=(0.0, 0.0), label="zero")
    with pytest.raises(MarginalError, match="space 'zero': probabilities sum to 0.0"):
        glue(zero, space_A, np.ones((2, 2))).prohorov()


def test_product_measures_add_mark_offsets(space_A):
    g = GluedSpace(left=space_A, right=space_A, cross=np.zeros((2, 2)))
    m, wp, wq = g.product_measures()
    # same-mark pairs cost 0, cross-mark pairs cost 1
    assert m == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert wp == pytest.approx(space_A.weights)
    assert wq == pytest.approx(space_A.weights)


def test_glue_three_routes_through_the_middle(space_A):
    eye = np.array([[0.0, 1.0], [1.0, 0.0]])
    g12 = glue(space_A, space_A, eye)
    g23 = glue(space_A, space_A, eye)
    z = glue_three(g12, g23)
    assert z.shape == (6, 6)
    # outer block is the min-sum through the middle: identity chain
    assert z[:2, 4:] == pytest.approx(eye)
    assert np.allclose(z, z.T)


def test_glue_three_needs_matching_middle(space_A):
    eye = np.array([[0.0, 1.0], [1.0, 0.0]])
    g12 = glue(space_A, space_A, eye)
    other = two_point(weights=(0.25, 0.75))
    g23 = glue(other, space_A, eye)
    with pytest.raises(ParameterError):
        glue_three(g12, g23)


def test_glue_and_glue_three_reject_a_bad_tol():
    a = euclidean_cloud(20, 2, "constant", seed=1)
    cross = np.full((20, 20), 0.1) + np.maximum(a.distances, 0.0)
    cross[0, 0] = 100.0  # c(0, 0) exceeds d(0, 1) + c(1, 0) by about 99.9
    with pytest.raises(GluingError):
        glue(a, a, cross)
    good = glue(a, a, a.distances + 0.1)
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            glue(a, a, cross, tol=tol)
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            glue_three(good, good, tol=tol)


def test_min_plus_blocks_give_the_full_stacks_bytes(monkeypatch):
    rng = np.random.default_rng(29)
    a, b = euclidean_cloud(9, 2, "sign", seed=3), euclidean_cloud(7, 2, "sign", seed=4)
    pairs = [(int(i), int(j)) for i, j in zip(rng.integers(0, 9, 12), rng.integers(0, 7, 12))]
    beta = correspondence_cross(a, b, pairs)[1] + rng.random(len(pairs))
    si, sj = np.array(pairs).T
    stack = a.distances[:, si][:, :, None] + beta[None, :, None] + b.distances[sj, :][None, :, :]
    g12, g23 = glue(a, a, a.distances + 0.5), glue(a, b, stack.min(axis=1))
    outer = (g12.cross[:, :, None] + g23.cross[None, :, :]).min(axis=1)
    # blocks of 1, 2 and 5 middle indices, and one block for everything
    for elements in (1, 2 * 9 * 7, 5 * 9 * 7, 1 << 18):
        monkeypatch.setattr(mmmspace.core, "TRIANGLE_BLOCK_ELEMENTS", elements)
        assert correspondence_cross(a, b, pairs, beta)[0].tobytes() == stack.min(axis=1).tobytes()
        assert glue_three(g12, g23)[:9, 18:].tobytes() == outer.tobytes()


# --- correspondences ---------------------------------------------------------


def test_correspondence_default_beta_is_half_distortion(space_A, space_A2):
    pairs = [(0, 0), (1, 1)]
    cross, beta, dis = correspondence_cross(space_A, space_A2, pairs)
    assert dis == pytest.approx(1.0)  # |1 - 2| on the matched pair
    assert beta == pytest.approx(0.5)
    glue(space_A, space_A2, cross)  # always admissible
    with pytest.raises(ParameterError):
        correspondence_cross(space_A, space_A2, pairs, beta=0.49)
    with pytest.raises(ParameterError):
        correspondence_cross(space_A, space_A2, [])
    # -1 would silently mean the last point, 2 an IndexError
    for bad in ([(-1, 0)], [(0, -1)], [(2, 0)], [(0, 0), (0, 2)]):
        with pytest.raises(ParameterError, match=r"must lie in \[0, 2\) x \[0, 2\)"):
            correspondence_cross(space_A, space_A2, bad)


def test_correspondence_takes_a_beta_per_pair(space_A, space_A2):
    # the pairs (0, 0) and (1, 1) differ by |1 - 2| = 1, so beta_00 + beta_11
    # must reach 1, and each beta must reach 0 against itself
    pairs = [(0, 0), (1, 1)]
    cross, beta, dis = correspondence_cross(space_A, space_A2, pairs, beta=[0.2, 0.8])
    assert dis == 1.0 and beta.tolist() == [0.2, 0.8]
    assert cross[0, 0] == 0.2 and cross[1, 1] == 0.8
    glue(space_A, space_A2, cross)
    for bad in ([0.2, 0.7], [-0.1, 1.1], [0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(ParameterError, match="beta"):
            correspondence_cross(space_A, space_A2, pairs, beta=bad)
    # a scalar beta reaches dis / 2 exactly as before
    assert correspondence_cross(space_A, space_A2, pairs, beta=0.5)[1] == 0.5


def test_correspondence_rejects_non_finite_input():
    good, bad = euclidean_cloud(6, 2, seed=4), nan_cloud()
    identity = [(i, i) for i in range(6)]
    for beta in (math.nan, math.inf, [0.5, math.nan] + [0.5] * 4):
        with pytest.raises(ParameterError, match="beta must be finite"):
            correspondence_cross(good, good, identity, beta=beta)
    for pair in ((good, bad), (bad, good)):
        with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
            correspondence_cross(*pair, identity)


def test_correspondence_rejects_pairs_that_are_not_integer_indices(space_A, space_A2):
    # int() would truncate (0.5, 1) to (0, 1) and (1.9, 0) to (1, 0)
    for bad in ([(0.5, 1)], [(1.9, 0)], [(0, 0), (1, math.nan)], [("a", 0)], [("1", 0)],
                [(None, 1)], [(0, 1, 1)], [(0,), (1, 1)]):
        with pytest.raises(ParameterError, match="pairs of integer indices"):
            correspondence_cross(space_A, space_A2, bad)
    want = correspondence_cross(space_A, space_A2, [(0, 1), (1, 0)])[0].tobytes()
    for same in ([(0.0, 1.0), (1.0, 0.0)], np.array([[0, 1], [1, 0]]),
                 ((np.int32(0), 1), (1, np.uint8(0))), zip([0, 1], [1, 0])):
        assert correspondence_cross(space_A, space_A2, same)[0].tobytes() == want


def test_correspondence_always_glues():
    rng = np.random.default_rng(33)
    for _ in range(20):
        a, b = random_pair(rng, max_n=4)
        full = [(i, j) for i in range(a.n) for j in range(b.n)]
        cross, beta, dis = correspondence_cross(a, b, full)
        assert beta >= dis / 2.0
        assert cross.min() >= 0.0
        glue(a, b, cross)
        # all pairs have distortion max(diam1, diam2), and the k=i, l=j
        # term of the min is the least: the constant diam / 2, bit for bit
        diam = max(a.distances.max(initial=0.0), b.distances.max(initial=0.0))
        assert cross.tobytes() == np.full((a.n, b.n), diam / 2).tobytes()


# --- upper and lower bounds ---------------------------------------------------


def test_identity_strategy_nails_relabeled_copies():
    # the isometry is a relation at level 0 that routes every unit, so the
    # scan puts a relabelled copy at distance zero
    rng = np.random.default_rng(62)
    for _ in range(20):
        a = random_space(rng, max_n=5, min_n=2)
        b, _ = relabeled(a, rng)
        v, cross = mgp_upper(a, b)
        assert v <= 1e-9
        assert is_equivalent_exact(a, b)
        glue(a, b, cross)


def test_lower_never_exceeds_upper():
    rng = np.random.default_rng(7)
    for _ in range(75):
        a, b = random_pair(rng)
        assert mgp_lower(a, b) <= mgp_upper(a, b)[0] + 1e-9


def test_upper_is_deterministic():
    rng = np.random.default_rng(80)
    a, b = random_pair(rng, max_n=4)
    v1, c1 = mgp_upper(a, b)
    v2, c2 = mgp_upper(a, b)
    assert v1 == v2
    assert c1.tobytes() == c2.tobytes()


def test_upper_prunes_candidates_like_the_full_loop(monkeypatch):
    rng = np.random.default_rng(47)
    pairs = [random_pair(rng, max_n=5) for _ in range(10)]
    pairs += [(euclidean_cloud(int(rng.integers(3, 9)), 2, marks, seed=k),
               euclidean_cloud(int(rng.integers(3, 9)), 2, marks, seed=k + 50))
              for k, marks in enumerate(("sign", "point") * 3)]
    pairs += [(kingman(CoalescentConfig(leaves=6 + k, theta=1.0, seed=k)),
               kingman(CoalescentConfig(leaves=8, theta=1.0, seed=k + 30)))
              for k in range(3)]
    for a, b in pairs:
        # the scan finishes: its witness, at the exact value
        value, cross = mgp_upper(a, b)
        res = mgp_exact(a, b)
        assert res.slack == 0.0 and value == res.exact
        assert cross.tobytes() == res.witness_cross.tobytes()
        assert abs(value - mgp_level_oracle(a, b)) <= 1e-9
    # the fallback chain, pruned against its incumbent, behind a scan that
    # a budget of 0 stops at its first level
    monkeypatch.setattr(mmmspace.mgp, "SCAN_BUDGET", 0)
    for a, b in stoppable(pairs):
        value, cross = mgp_upper(a, b)
        want, want_cross = mgp_fallback_oracle(a, b)
        assert value == want
        assert cross.tobytes() == want_cross.tobytes()


def test_prune_chain_matches_the_plain_loop():
    # relations of 1 to 40 pairs, so both the one-at-a-time steps (k <= 10)
    # and the ceil(k/10) steps run; trees give tied rows
    rng = np.random.default_rng(31)
    spaces = [kingman(CoalescentConfig(leaves=20, theta=1.0, seed=k)) for k in range(2)]
    spaces += [euclidean_cloud(20, 2, seed=k) for k in range(2)]
    for a, b in ((spaces[0], spaces[1]), (spaces[2], spaces[3]), (spaces[0], spaces[2])):
        for k in (1, 2, 7, 11, 25, 40):
            pairs = list(zip(rng.integers(0, a.n, k).tolist(), rng.integers(0, b.n, k).tolist()))
            want = prune_chain_oracle(a, b, pairs)
            assert list(_pruned(a, b, pairs)) == want
            assert [len(rel) for rel in want[-1:]] == ([] if k == 1 else [1])


def test_pruned_relations_bound_two_large_trees():
    # on 200-leaf Kingman trees every near-bijection has a distortion close
    # to the diameter, so only small relations get below the trivial 1.0;
    # the lower bound is 0.65
    a = kingman(CoalescentConfig(leaves=200, theta=1.0, seed=1))
    b = kingman(CoalescentConfig(leaves=200, theta=1.0, seed=2))
    value, cross = mgp_upper(a, b)
    assert mgp_lower(a, b) <= value < 0.8
    glue(a, b, cross)


def z_size(a, b):
    """The number of pairs of mark distance below 1, the scan's Z."""
    return int(np.count_nonzero(a.mark_space.cross_distances(a.marks, b.marks) < 1.0))


def stoppable(pairs):
    """The pairs whose scan a budget of 0 stops: those with a pair of mark
    distance below 1.  Without one there is no level below 1, so the scan
    ends at once with no relation, whatever the budget, and the fallback
    stops at its first candidate, at value 1 = `mgp_lower`."""
    kept = []
    for a, b in pairs:
        if z_size(a, b):
            kept.append((a, b))
        else:
            res = mgp_bounds(a, b)
            assert (res.upper, res.nodes, res.budget_exhausted) == (1.0, 0, False)
    return kept


def assert_witness_certifies(a, b, res):
    """The witness coupling has the two laws as marginals and puts at most
    ``upper`` mass where the glued cost exceeds ``upper``, and a fresh
    Prohorov search of the witness gluing finds ``upper``."""
    pi = res.witness_coupling
    assert np.abs(pi.sum(axis=1) - a.weights).max() <= 1e-10
    assert np.abs(pi.sum(axis=0) - b.weights).max() <= 1e-10
    cost = res.witness_cross + a.mark_space.cross_distances(a.marks, b.marks)
    assert pi[cost > res.upper + 1e-12].sum() <= res.upper + 1e-12
    fresh = GluedSpace(left=a, right=b, cross=res.witness_cross).prohorov()[0]
    assert abs(fresh - res.upper) <= 1e-12


def reweighted(space, perm=None):
    """The space with weights normalized to total 1, atoms in ``perm`` order."""
    perm = np.arange(space.n) if perm is None else np.asarray(perm)
    return FiniteMmmSpace(distances=space.distances[np.ix_(perm, perm)],
                          marks=tuple(space.marks[i] for i in perm),
                          weights=space.weights[perm] / math.fsum(space.weights),
                          mark_space=space.mark_space)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw=tiny_spaces(), b=tiny_spaces().map(reweighted), data=st.data())
def test_lower_is_symmetric_relabelling_invariant_and_below_the_upper_bound(raw, b, data):
    a = reweighted(raw)
    lower = mgp_lower(a, b)
    assert mgp_lower(b, a) == lower
    assert mgp_lower(reweighted(raw, data.draw(st.permutations(range(a.n)))), b) == lower
    assert lower <= mgp_bounds(a, b).upper + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(raw_a=tiny_spaces(), raw_b=tiny_spaces(), normalize=st.booleans(),
       pairs=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), max_size=4))
def test_bound_entry_points_give_finite_bounds_or_domain_errors(raw_a, raw_b, normalize, pairs):
    # raw tiny spaces mostly carry weights that are no law, and the pairs
    # may be empty or index outside the spaces
    a, b = (reweighted(raw_a), reweighted(raw_b)) if normalize else (raw_a, raw_b)
    got = []
    for call in (mgp_lower, mgp_upper, mgp_bounds,
                 lambda x, y: correspondence_cross(x, y, pairs)):
        try:
            got.append(call(a, b))
        except DomainError:
            got.append(None)
    lower, upper, res, corr = got
    assert (res is None) == (lower is None or upper is None)
    if res is not None:
        assert 0.0 <= lower <= upper[0] + 1e-9 and upper[0] <= 1.0
        # the scan finishes on tiny pairs: the upper bound is the exact value
        assert res.slack == 0.0 and res.lower == min(lower, upper[0])
        assert res.upper == res.exact == upper[0]
        assert res.witness_cross.tobytes() == upper[1].tobytes()
        glue(a, b, res.witness_cross)
    if corr is not None:
        cross, beta, dis = corr
        assert np.all(np.isfinite(cross)) and math.isfinite(beta) and math.isfinite(dis)


def test_lower_parameter_checks(space_A):
    with pytest.raises(ParameterError):
        mgp_lower(space_A, space_A, orders=())
    with pytest.raises(ParameterError):
        mgp_lower(space_A, space_A, orders=(3,))
    other = two_point(marks=("a", "b"), mark_space=AB_MARKS)
    with pytest.raises(ParameterError):
        mgp_lower(space_A, other)


def test_lower_separates_distance_scalings(space_A, space_A2):
    # equal mark marginals, so order 1 gives 0; the pair-distance laws sit
    # at Prohorov distance 1/2, so order 2 gives 1/4
    assert mgp_lower(space_A, space_A2, orders=(1,)) == pytest.approx(0.0, abs=1e-12)
    assert mgp_lower(space_A, space_A2, orders=(2,)) == pytest.approx(0.25, abs=1e-9)
    assert mgp_lower(space_A, space_A2) == pytest.approx(0.25, abs=1e-9)


# --- certified tiny cases ------------------------------------------------------


def test_one_point_mark_mismatch_costs_one():
    a = one_point("a", label="pa")
    b = one_point("b", label="pb")
    res = mgp_exact(a, b)
    assert res.exact == pytest.approx(1.0, abs=1e-9)
    assert res.lower == pytest.approx(1.0, abs=1e-9)
    assert res.slack <= 1e-9


def test_one_point_same_mark_costs_zero():
    a = one_point("a")
    res = mgp_exact(a, a)
    assert res.exact == pytest.approx(0.0, abs=1e-12)
    assert res.slack <= 1e-12


def test_scaled_two_point_distance_is_half(space_A, space_A2):
    # mgp_lower gives 0.25; the finished scan raises the lower bound to
    # the exact value
    res = mgp_exact(space_A, space_A2)
    assert res.lower == pytest.approx(0.5, abs=1e-9)
    assert res.exact == pytest.approx(0.5, abs=1e-9)
    assert res.slack <= 1e-9
    g = glue(space_A, space_A2, res.witness_cross)
    v, _ = g.prohorov()
    assert v == pytest.approx(res.exact, abs=1e-9)


def test_exact_sits_inside_the_bounds():
    rng = np.random.default_rng(314)
    for trial in range(30):
        a, b = random_pair(rng)
        res = mgp_exact(a, b, budget=500)
        assert res.lower - 1e-9 <= res.exact <= res.upper + 1e-9
        assert res.slack >= 0.0
        # the witness is a real gluing whose pushforward distance is the value
        g = glue(a, b, res.witness_cross)
        v, _ = g.prohorov()
        assert v == pytest.approx(res.exact, abs=1e-9)
        # coupling marginals match the two weight vectors
        pi = res.witness_coupling
        assert np.abs(pi.sum(axis=1) - a.weights).max() <= 1e-9
        assert np.abs(pi.sum(axis=0) - b.weights).max() <= 1e-9


def test_exact_is_symmetric_up_to_slack():
    rng = np.random.default_rng(2718)
    for trial in range(10):
        a, b = random_pair(rng)
        r1 = mgp_exact(a, b, budget=600)
        r2 = mgp_exact(b, a, budget=600)
        assert abs(r1.exact - r2.exact) <= r1.slack + r2.slack + 1e-9


def test_exact_triangle_up_to_slack():
    rng = np.random.default_rng(10)
    for trial in range(8):
        a = random_space(rng, max_n=2, min_n=1)
        b = random_space(rng, max_n=2, min_n=1)
        c = random_space(rng, max_n=2, min_n=1)
        rab = mgp_exact(a, b, budget=600)
        rbc = mgp_exact(b, c, budget=600)
        rac = mgp_exact(a, c, budget=600)
        assert rac.exact - rac.slack <= rab.exact + rbc.exact + 1e-9


@settings(max_examples=50, deadline=None, derandomize=True)
@given(raw_a=tiny_spaces(), raw_b=tiny_spaces(), normalize=st.integers(0, 3).map(bool))
def test_exact_gives_a_certified_bracket_or_a_domain_error(raw_a, raw_b, normalize):
    # raw tiny spaces mostly carry weights that are no law, so three draws
    # in four normalize them
    assume(raw_a.n + raw_b.n <= 6)
    a, b = (reweighted(raw_a), reweighted(raw_b)) if normalize else (raw_a, raw_b)
    try:
        res = mgp_exact(a, b, budget=60)
    except DomainError:
        return
    assert math.isfinite(res.exact) and 0.0 <= res.exact <= 1.0
    assert res.slack >= 0.0
    assert res.lower <= res.exact - res.slack + 1e-9
    assert res.exact <= res.upper
    glue(a, b, res.witness_cross)
    pi = res.witness_coupling
    assert np.abs(pi.sum(axis=1) - a.weights).max() <= 1e-10
    assert np.abs(pi.sum(axis=0) - b.weights).max() <= 1e-10


def test_exact_reports_nodes_and_the_budget():
    a = euclidean_cloud(3, 2, "constant", seed=1)
    b = euclidean_cloud(3, 2, "constant", seed=2)
    cut_short = mgp_exact(a, b, budget=0)
    assert cut_short.nodes == 0 and cut_short.budget_exhausted is True
    assert cut_short.slack > 0.0
    full = mgp_exact(a, b)
    assert full.nodes > 0 and full.budget_exhausted is False
    copy, _ = relabeled(a, np.random.default_rng(5))
    same = mgp_exact(a, copy)
    # the unit that rounding thirds leaves over goes to the first atom of
    # each side, so a relabelled copy can miss by that one unit of 1e-12
    assert same.exact <= 1e-12 and same.budget_exhausted is False
    # mgp_bounds is the same scan at the default budget, with mgp_lower below
    bounds = mgp_bounds(a, b)
    assert (bounds.upper, bounds.exact, bounds.slack) == (full.upper, full.exact, full.slack)
    assert bounds.lower == min(mgp_lower(a, b), full.upper)
    assert bounds.nodes == full.nodes and bounds.budget_exhausted is False
    assert bounds.witness_cross.tobytes() == full.witness_cross.tobytes()


def test_exact_accepts_only_a_nonnegative_integer_budget():
    # a NaN budget never stopped the scan (35 603 nodes on this pair, where
    # budget 100 stops at 100) and a negative one acted as 0
    a = euclidean_cloud(12, 2, "constant", seed=1)
    b = euclidean_cloud(12, 2, "constant", seed=2)
    for budget in (math.nan, math.inf, -5, -1, 2.0, 100.5, "100", True, None):
        with pytest.raises(ParameterError, match="^budget must be a nonnegative integer"):
            mgp_exact(a, b, budget=budget)
    assert mgp_exact(a, b, budget=np.int64(100)).nodes == 100
    assert mgp_exact(a, b, budget=0).nodes == 0


def test_a_space_of_thirds_is_at_distance_zero_from_itself():
    # weights of 1/3 are no whole number of flow units; their masses must
    # still sum to exactly FLOW_SCALE on each side
    a = euclidean_cloud(3, 2, "constant", seed=1)
    assert mgp_lower(a, a) == 0.0
    assert mgp_exact(a, a).exact == 0.0


def oracle_pair(rng, euclidean=False):
    """Two metric spaces with n1 + n2 <= 6 points, planar or on a line, with
    repeated points and zero weights now and then; marks are labels, or
    with ``euclidean`` points of [0, 1.5) on a line, on a half-integer grid
    now and then, so that some pairs sit at mark distance 1 or more."""
    spaces = []
    for n in (int(rng.integers(1, 6)),) * 2:
        n = n if not spaces else int(rng.integers(1, 7 - spaces[0].n))
        pts = rng.uniform(0.0, 2.0, size=(n, int(rng.integers(1, 3))))
        if rng.random() < 0.3:
            pts = np.round(pts)
        w = rng.integers(0 if rng.random() < 0.3 else 1, 4, size=n).astype(float)
        w[int(rng.integers(n))] += 1.0
        if euclidean:
            at = rng.uniform(0.0, 1.5, size=n)
            at = np.round(at * 2) / 2 if rng.random() < 0.3 else at
            marks, mark_space = tuple((float(x),) for x in at), MarkSpace.euclidean(1)
        else:
            marks = tuple(("a", "b")[t] for t in rng.integers(0, 2, size=n))
            mark_space = AB_MARKS
        spaces.append(FiniteMmmSpace(
            distances=np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)),
            marks=marks, weights=w / w.sum(), mark_space=mark_space))
    return spaces


def test_exact_equals_the_relation_oracle():
    rng = np.random.default_rng(1909)
    for k in range(300):
        a, b = oracle_pair(rng, euclidean=k >= 150)
        res = mgp_exact(a, b)
        assert abs(res.exact - mgp_relation_oracle(a, b)) <= 1e-9
        assert res.slack == 0.0 and res.budget_exhausted is False
        glue(a, b, res.witness_cross)


def test_every_budget_brackets_the_full_value():
    rng = np.random.default_rng(1910)
    for _ in range(40):
        a, b = oracle_pair(rng)
        full = mgp_exact(a, b)
        for budget in range(full.nodes + 1):
            res = mgp_exact(a, b, budget=budget)
            # the floor may be mgp_lower, whose flow masses round on their own
            assert res.exact - res.slack <= full.exact + 1e-12 and full.exact <= res.exact
            assert res.nodes == budget and res.budget_exhausted == (budget < full.nodes)


def test_exact_preconditions(space_A):
    # Euclidean marks and more than 6 points are fine
    euc = MarkSpace.euclidean(1)
    pa = FiniteMmmSpace(
        distances=np.zeros((1, 1)), weights=np.array([1.0]),
        marks=((0.0,),), mark_space=euc, label="e",
    )
    assert mgp_exact(pa, pa).exact == 0.0
    rng = np.random.default_rng(9)
    big = random_space(rng, max_n=4, min_n=4)
    other = random_space(rng, max_n=3, min_n=3)
    assert mgp_exact(big, other).slack == 0.0
    # the cap counts the pairs of mark distance below 1: 39 x 39 = 1521 on
    # constant marks; beyond it mgp_bounds still gives bounds
    a, b = (euclidean_cloud(39, 2, "constant", seed=k) for k in (1, 2))
    with pytest.raises(TooLargeError, match="limited to 1500 pairs .* this pair has 1521"):
        mgp_exact(a, b)
    res = mgp_bounds(a, b)
    assert res.exact is None and res.nodes is None and res.lower <= res.upper
    glue(a, b, res.witness_cross)
    # marks 2 apart leave no candidate pair, and the distance is 1
    far = FiniteMmmSpace(distances=np.zeros((1, 1)), weights=np.array([1.0]),
                         marks=((2.0,),), mark_space=euc)
    assert mgp_exact(pa, far).exact == 1.0


def test_lower_never_exceeds_upper_by_rounding():
    # mgp_lower rounds each law's masses on its own and can overshoot the
    # exact value by about 1e-12: 0.5714285714289999 against
    # 0.5714285714280001 on the 26th pair of this draw
    rng = np.random.default_rng(1910)
    pairs = [oracle_pair(rng) for _ in range(26)][-1:]
    pairs += [(kingman(CoalescentConfig(leaves=6, theta=1.0, seed=8202)),
               kingman(CoalescentConfig(leaves=12, theta=1.0, seed=8302)))]
    assert mgp_lower(*pairs[0]) > mgp_relation_oracle(*pairs[0])
    for a, b in pairs:
        for res in (mgp_bounds(a, b), mgp_exact(a, b), mgp_exact(a, b, budget=0)):
            assert res.lower <= res.upper and res.slack >= 0.0


def test_exact_scans_nine_point_clouds():
    # 81 pairs of equal marks: more than one int64 bitmask holds
    values = []
    for k in range(4):
        a = euclidean_cloud(9, 2, "constant", seed=10 + k)
        b = euclidean_cloud(9, 2, "constant", seed=20 + k)
        res = mgp_exact(a, b)
        assert res.slack == 0.0 and res.budget_exhausted is False
        glue(a, b, res.witness_cross)
        values.append(round(res.exact, 4))
    assert values == [0.2222, 0.3333, 0.3333, 0.2222]


def distances_pairs(seed):
    """The MGP pairs of the benchmark's ``distances`` workload: Kingman trees
    (theta 1) of 10, 6 and 12 leaves, 8-point sign- and point-marked clouds."""
    s = seed * 1000

    def tree(leaves, k):
        return kingman(CoalescentConfig(leaves=leaves, theta=1.0, seed=k))

    chain = [tree(10, s + 100 + k) for k in range(5)]
    pairs = [(chain[k], chain[k + 1]) for k in range(4)]
    pairs += [(tree(6, s + 200 + k), tree(12, s + 300 + k)) for k in range(4)]
    for marks, base in (("sign", 400), ("point", 600)):
        pairs += [(euclidean_cloud(8, 2, marks, seed=s + base + k),
                   euclidean_cloud(8, 2, marks, seed=s + base + 100 + k)) for k in range(14)]
    return pairs


def bounds_row(r):
    return (r.lower, r.upper, r.exact, r.slack, r.nodes, r.budget_exhausted,
            r.witness_cross.tobytes(), r.witness_coupling.tobytes())


def test_bounds_check_the_inputs_once(monkeypatch):
    """One non-finite scan per space: the first `mgp_bounds` call on a fresh
    pair scans each space, and the marginals, pair laws, correspondences and
    later calls on the pair read the kept result."""
    scanned = []
    original = mmmspace.core._find_non_finite

    def counting(space):
        scanned.append(space)
        return original(space)

    monkeypatch.setattr(mmmspace.core, "_find_non_finite", counting)
    for a, b in distances_pairs(1)[::5]:
        scanned.clear()
        mgp_bounds(a, b)
        assert scanned == [a, b]
        scanned.clear()
        mgp_bounds(a, b)
        mgp_exact(a, b, budget=40)
        mgp_lower(a, b)
        mark_marginal(a)
        pair_distance_law(b)
        assert scanned == []


# (lower, upper, exact, slack, nodes, budget_exhausted) of mgp_bounds and of
# mgp_exact(budget=40) on distances_pairs(1), recorded before the max-flow
# kernel moved from edge lists to row bitmasks; only witness flows may move.
# Row 1 (47 pairs in Z) is the scan's, which mgp_bounds runs up to
# EXACT_PAIR_BOUND pairs
DISTANCES_1_BOUNDS = [
    (0.9, 0.9, 0.9, 0.0, 7, False),
    (0.4, 0.5, 0.5, 0.0, 48, False),
    (0.30000000000000004, 0.5, 0.5, 0.0, 115, False),
    (0.4, 0.6, 0.6, 0.0, 27, False),
    (0.583333333333, 0.750000000001, 0.750000000001, 0.0, 12, False),
    (0.583333333333, 0.6116640884167062, 0.6116640884167062, 0.0, 36, False),
    (1.0, 1.0, 1.0, 0.0, 0, False),
    (0.41666666666700003, 0.41666666666700003, 0.41666666666700003, 0.0, 20, False),
    (0.109375, 0.375, 0.375, 0.0, 231, False),
    (0.12679938804000002, 0.375, 0.375, 0.0, 564, False),
    (0.125, 0.3659916338369653, 0.3659916338369653, 0.0, 205, False),
    (0.25, 0.44466927449521365, 0.44466927449521365, 0.0, 570, False),
    (0.25, 0.34507205451793055, 0.34507205451793055, 0.0, 237, False),
    (0.25, 0.375, 0.375, 0.0, 267, False),
    (0.125, 0.375, 0.375, 0.0, 272, False),
    (0.203125, 0.5, 0.5, 0.0, 297, False),
    (0.25, 0.375, 0.375, 0.0, 154, False),
    (0.125, 0.3336372305903493, 0.3336372305903493, 0.0, 306, False),
    (0.375, 0.375, 0.375, 0.0, 76, False),
    (0.125, 0.35642222710599974, 0.35642222710599974, 0.0, 379, False),
    (0.375, 0.375, 0.375, 0.0, 70, False),
    (0.07435626342000001, 0.36344334321327887, 0.36344334321327887, 0.0, 335, False),
    (0.625, 0.625, 0.625, 0.0, 5, False),
    (0.6335268490769693, 0.75, 0.75, 0.0, 14, False),
    (0.75, 0.75, 0.75, 0.0, 8, False),
    (0.5, 0.5, 0.5, 0.0, 5, False),
    (0.625, 0.625, 0.625, 0.0, 10, False),
    (0.7584990135226504, 0.8044187770609008, 0.8044187770609008, 0.0, 4, False),
    (0.5918070430006607, 0.6119424549771586, 0.6119424549771586, 0.0, 18, False),
    (0.625, 0.625, 0.625, 0.0, 4, False),
    (0.5451307367538172, 0.625, 0.625, 0.0, 21, False),
    (0.625, 0.7112865010282818, 0.7112865010282818, 0.0, 12, False),
    (0.625, 0.625, 0.625, 0.0, 6, False),
    (0.625, 0.75, 0.75, 0.0, 7, False),
    (0.5998456195058447, 0.625, 0.625, 0.0, 6, False),
    (0.5151272755986999, 0.5830837818071615, 0.5830837818071615, 0.0, 18, False),
]
DISTANCES_1_EXACT_40 = [
    (0.9, 0.9, 0.9, 0.0, 7, False),
    (0.4, 0.5, 0.5, 0.09999999999999998, 40, True),
    (0.39833231221994614, 0.6, 0.6, 0.20166768778005384, 40, True),
    (0.6, 0.6, 0.6, 0.0, 27, False),
    (0.750000000001, 0.750000000001, 0.750000000001, 0.0, 12, False),
    (0.6116640884167062, 0.6116640884167062, 0.6116640884167062, 0.0, 36, False),
    (1.0, 1.0, 1.0, 0.0, 0, False),
    (0.41666666666700003, 0.41666666666700003, 0.41666666666700003, 0.0, 20, False),
    (0.109375, 0.5, 0.5, 0.390625, 40, True),
    (0.12679938804000002, 0.41198947787140816, 0.41198947787140816, 0.28519008983140814, 40, True),
    (0.125, 0.375, 0.375, 0.25, 40, True),
    (0.25, 0.5, 0.5, 0.25, 40, True),
    (0.25, 0.375, 0.375, 0.125, 40, True),
    (0.25, 0.5, 0.5, 0.25, 40, True),
    (0.125, 0.44938394900060263, 0.44938394900060263, 0.32438394900060263, 40, True),
    (0.203125, 0.5, 0.5, 0.296875, 40, True),
    (0.25, 0.5, 0.5, 0.25, 40, True),
    (0.125, 0.3919078026854096, 0.3919078026854096, 0.2669078026854096, 40, True),
    (0.375, 0.5, 0.5, 0.125, 40, True),
    (0.125, 0.4791853556877519, 0.4791853556877519, 0.3541853556877519, 40, True),
    (0.375, 0.5, 0.5, 0.125, 40, True),
    (0.07435626342000001, 0.41770487057708805, 0.41770487057708805, 0.34334860715708804, 40, True),
    (0.625, 0.625, 0.625, 0.0, 5, False),
    (0.75, 0.75, 0.75, 0.0, 14, False),
    (0.75, 0.75, 0.75, 0.0, 8, False),
    (0.5, 0.5, 0.5, 0.0, 5, False),
    (0.625, 0.625, 0.625, 0.0, 10, False),
    (0.8044187770609008, 0.8044187770609008, 0.8044187770609008, 0.0, 4, False),
    (0.6119424549771586, 0.6119424549771586, 0.6119424549771586, 0.0, 18, False),
    (0.625, 0.625, 0.625, 0.0, 4, False),
    (0.625, 0.625, 0.625, 0.0, 21, False),
    (0.7112865010282818, 0.7112865010282818, 0.7112865010282818, 0.0, 12, False),
    (0.625, 0.625, 0.625, 0.0, 6, False),
    (0.75, 0.75, 0.75, 0.0, 7, False),
    (0.625, 0.625, 0.625, 0.0, 6, False),
    (0.5830837818071615, 0.5830837818071615, 0.5830837818071615, 0.0, 18, False),
]


def test_bounds_and_budget_rows_are_unchanged_on_the_distances_pairs():
    pairs = distances_pairs(1)
    assert [bounds_row(mgp_bounds(a, b))[:6] for a, b in pairs] == DISTANCES_1_BOUNDS
    assert [bounds_row(mgp_exact(a, b, budget=40))[:6] for a, b in pairs] == DISTANCES_1_EXACT_40


def test_bounds_memory_stays_below_the_all_pairs_arrays():
    a = kingman(CoalescentConfig(leaves=60, theta=1.0, seed=1))
    b = kingman(CoalescentConfig(leaves=60, theta=1.0, seed=2))
    tracemalloc.start()
    try:
        mgp_bounds(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the all-pairs correspondence alone would take 3600 x 3600 floats (99 MiB)
    assert peak < 32 * 2**20


def test_fallback_gluings_hold_no_stack_of_points():
    a = euclidean_cloud(120, 2, "sign", seed=1)
    b = euclidean_cloud(120, 2, "sign", seed=2)
    off = a.mark_space.cross_distances(a.marks, b.marks)
    assert np.count_nonzero(off < 1.0) > mmmspace.mgp.EXACT_PAIR_BOUND  # no scan runs
    tracemalloc.start()
    try:
        res = mgp_bounds(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.lower, res.upper, res.nodes) == (0.10833333333299999, 0.69166666667, None)
    # a 120 x |R| x 120 stack of the greedy support's pairs took 14.8 MiB
    assert peak < 8 * 2**20


def test_lower_keeps_one_flow_matrix_per_search():
    a = euclidean_cloud(40, 2, "point", seed=1)
    b = euclidean_cloud(40, 2, "point", seed=2)
    tracemalloc.start()
    try:
        mgp_lower(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 781 distinct pair distances per side: one float matrix is 4.7 MiB, and
    # keeping the flow of every threshold the search tries took 112 MiB
    assert peak < 48 * 2**20


def test_order_two_builds_no_cross_matrix():
    a = euclidean_cloud(100, 2, "sign", seed=1)
    b = euclidean_cloud(100, 2, "sign", seed=2)
    assert len(pair_distance_law(a)[0]) == len(pair_distance_law(b)[0]) == 4951
    tracemalloc.start()
    try:
        mgp_lower(a, b, orders=(2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4951 x 4951 float matrix of the two laws' value gaps alone is 187 MiB
    assert peak < 32 * 2**20


def test_non_finite_spaces_are_rejected():
    good, bad = euclidean_cloud(6, 2, seed=4), nan_cloud()
    calls = (mgp_lower, mgp_upper, mgp_bounds, is_equivalent_exact,
             lambda x, y: two_sample_test(x, y, m=20, permutations=99))
    for call in calls:
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ParameterError, match=r"'nan': d\(0,1\) = nan is not finite"):
                call(*pair)
    # glue checks the metric it builds, not the spaces: a NaN distance, a
    # NaN cross entry, and a NaN that glue_three would pass on
    for x, y, cross, ij in ((good, bad, np.full((6, 6), 10.0), (6, 7)),
                            (bad, good, np.full((6, 6), 10.0), (0, 1)),
                            (good, good, np.full((6, 6), math.nan), (0, 6))):
        with pytest.raises(ParameterError, match=re.escape(f"glued metric entry {ij} is not")):
            glue(x, y, cross)
    nan_gluing = GluedSpace(left=good, right=good, cross=np.full((6, 6), math.nan))
    with pytest.raises(ParameterError, match=r"^cross entry \(0, 0\) is not finite$"):
        nan_gluing.prohorov()
    with pytest.raises(ParameterError, match=r"^glued metric entry \(0, 6\) is not finite$"):
        glue_three(nan_gluing, glue(good, good, good.distances))
    inf_weight = FiniteMmmSpace(distances=good.distances, marks=good.marks,
                                weights=np.r_[math.inf, good.weights[1:]],
                                mark_space=good.mark_space)
    with pytest.raises(ParameterError, match=r"^space '': weight 0 = inf is not finite$"):
        mgp_bounds(good, inf_weight)
    points = euclidean_cloud(5, 2, "point", seed=1)
    nan_mark = FiniteMmmSpace(distances=points.distances,
                              marks=((math.nan, 0.0),) + points.marks[1:],
                              weights=points.weights, mark_space=points.mark_space,
                              label="nan-mark")
    assert validate(nan_mark).kinds() == {"mark-invalid"}
    for call in calls:
        with pytest.raises(ParameterError, match=r"'nan-mark': mark 0 = \(nan, 0.0\) is not"):
            call(nan_mark, points)


def test_mgp_upper_rejects_zero_total_weight(space_A):
    zero = two_point(weights=(0.0, 0.0), label="zero")
    for pair in ((zero, space_A), (space_A, zero)):
        with pytest.raises(ParameterError, match="'zero': weights must have positive total"):
            mgp_upper(*pair)


def test_mgp_upper_checks_the_marginals():
    # weights of total 0.5, 2 or 3 are no law: MarginalError, not a bound
    a, b = euclidean_cloud(6, 2, "sign", seed=1), euclidean_cloud(6, 2, "sign", seed=2)
    assert mgp_upper(a, b)[0] == mgp_exact(a, b).exact == pytest.approx(1 / 3, abs=1e-9)
    for scale in (0.5, 2.0, 3.0):
        heavy = FiniteMmmSpace(distances=a.distances, marks=a.marks, weights=a.weights * scale,
                               mark_space=a.mark_space, label="heavy")
        assert validate(heavy).kinds() == {"weight-sum"}
        for pair in ((heavy, b), (b, heavy)):
            with pytest.raises(MarginalError,
                               match="space 'heavy': probabilities sum to .*, not 1"):
                mgp_upper(*pair)


def test_mgp_lower_checks_the_marginals(space_A):
    # the raw weights are checked, whichever orders are asked for: the
    # pair-distance law alone would normalise weights summing to 2
    heavy = two_point(weights=(1.0, 1.0), label="heavy")
    for pair in ((heavy, space_A), (space_A, heavy)):
        for call in (mgp_lower, lambda x, y: mgp_lower(x, y, orders=(2,)), mgp_bounds,
                     mgp_exact):
            with pytest.raises(MarginalError,
                               match="space 'heavy': probabilities sum to 2.0, not 1"):
                call(*pair)


def test_mgp_lower_rejects_a_negative_weight_inside_a_mark():
    # mark a carries 0.6 - 0.1 = 0.5, so the mark marginal alone is a law
    marks = MarkSpace.discrete(("a", "b"))
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    neg = FiniteMmmSpace(distances=d, marks=("a", "a", "b"), weights=np.array([0.6, -0.1, 0.5]),
                         mark_space=marks, label="neg")
    ok = FiniteMmmSpace(distances=d, marks=("a", "b", "b"), weights=np.array([0.2, 0.3, 0.5]),
                        mark_space=marks, label="ok")
    for pair in ((neg, ok), (ok, neg)):
        for orders in ((1,), (2,), (1, 2)):
            with pytest.raises(MarginalError, match="space 'neg': negative probability"):
                mgp_lower(*pair, orders=orders)
        with pytest.raises(MarginalError, match="space 'neg': negative probability"):
            mgp_upper(*pair)


def test_profile_cost_matches_the_pairwise_loop():
    def loop_cost(a, b):
        qs = np.linspace(0.0, 1.0, 9)
        pa = np.quantile(np.sort(a.distances, axis=1), qs, axis=1).T
        pb = np.quantile(np.sort(b.distances, axis=1), qs, axis=1).T
        cost = np.abs(pa[:, None, :] - pb[None, :, :]).mean(axis=2)
        for i in range(a.n):
            for j in range(b.n):
                cost[i, j] += mark_distance(a.mark_space, a.marks[i], b.marks[j])
                cost[i, j] += abs(a.weights[i] - b.weights[j])
        return cost

    def rough(n, rng, k):
        # tied rows, -0.0 distances (numpy's partition may swap -0.0 and 0.0,
        # which only the cost's absolute value reads) and subnormal ones
        d = rng.random((n, n)) * 10.0 ** rng.integers(-5, 5)
        if k % 3 == 0:
            d = np.round(d, 1)
        if k % 5 == 0:
            d[rng.random((n, n)) < 0.3] = -0.0
        if k % 7 == 0:
            d[rng.random((n, n)) < 0.3] = 5e-324
        return FiniteMmmSpace(distances=d, marks=tuple(rng.integers(0, 2, n).tolist()),
                              weights=rng.dirichlet(np.ones(n)),
                              mark_space=MarkSpace.discrete((0, 1)))

    rng = np.random.default_rng(31)
    pairs = [random_pair(rng, max_n=6) for _ in range(5)]
    pairs += [(euclidean_cloud(5, 2, "point", seed=k), euclidean_cloud(7, 2, "point", seed=k + 9))
              for k in range(5)]
    # the cost decides the greedy support, so the quantiles read by index
    # must keep it bit for bit at every size
    sizes = [(1, 3), (2, 1), (3, 200), (9, 9), (50, 2)] + rng.integers(1, 80, (30, 2)).tolist()
    pairs += [(rough(n1, rng, k), rough(n2, rng, k + 1)) for k, (n1, n2) in enumerate(sizes)]
    for a, b in pairs:
        assert _profile_cost(a, b).tobytes() == loop_cost(a, b).tobytes()


def test_mgp_lower_matches_the_union_metric_route():
    rng = np.random.default_rng(71)
    pairs = [random_pair(rng, max_n=6) for _ in range(8)]
    pairs += [(euclidean_cloud(int(rng.integers(2, 9)), dim, "point", seed=10 * dim + k),
               euclidean_cloud(int(rng.integers(2, 9)), dim, "point", seed=10 * dim + k + 5))
              for dim in (1, 2, 3) for k in range(2)]
    pairs += [(kingman(CoalescentConfig(leaves=5 + k, theta=1.0, seed=k)),
               kingman(CoalescentConfig(leaves=7, theta=1.0, seed=k + 20)))
              for k in range(6)]
    for a, b in pairs:
        first, second = mgp_lower_union_oracle(a, b)
        assert mgp_lower(a, b, orders=(1,)) == first
        assert mgp_lower(a, b, orders=(2,)) == second
        assert mgp_lower(a, b) == max(first, second)


def test_mgp_lower_is_unchanged_by_relabelling():
    # the mark marginal lists its marks by repr, so the rounding of its
    # masses to integers does not follow the labelling: with marks in order
    # of first appearance, 4 of the 6 relabellings of three equally weighted
    # labels read 9.9998e-13 against the space itself
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    abc = MarkSpace.discrete(("a", "b", "c"))
    three = FiniteMmmSpace(distances=d, marks=("a", "b", "c"), weights=np.full(3, 1 / 3),
                           mark_space=abc, label="three")
    other = FiniteMmmSpace(distances=1.25 * d, marks=("c", "a", "a"),
                           weights=np.array([0.5, 0.25, 0.25]), mark_space=abc, label="other")
    rng = np.random.default_rng(5)
    cases = [(three, other, list(itertools.permutations(range(3)))),
             (euclidean_cloud(12, 2, "sign", seed=3), euclidean_cloud(9, 2, "sign", seed=4),
              [rng.permutation(12) for _ in range(6)])]
    for a, b, perms in cases:
        ab, ba = mgp_lower(a, b), mgp_lower(b, a)
        for p in perms:
            p = list(p)
            r = FiniteMmmSpace(distances=a.distances[np.ix_(p, p)],
                               marks=tuple(a.marks[i] for i in p), weights=a.weights[p],
                               mark_space=a.mark_space, label=a.label)
            assert mgp_lower(r, b) == ab and mgp_lower(b, r) == ba
            assert mgp_lower(a, r) == 0.0 and mgp_lower(r, a) == 0.0


# --- bundle ---------------------------------------------------------------------


def test_mgp_bounds_bundle():
    rng = np.random.default_rng(55)
    a, b = random_pair(rng, max_n=4)
    res = mgp_bounds(a, b)
    assert res.lower == min(mgp_lower(a, b), res.upper)
    assert res.exact == res.upper and res.slack == 0.0
    assert abs(res.exact - mgp_relation_oracle(a, b)) <= 1e-9
    glue(a, b, res.witness_cross)
    assert res.upper == mgp_upper(a, b)[0]


def test_bounds_match_the_full_loop(monkeypatch):
    rng = np.random.default_rng(58)
    pairs = [random_pair(rng, max_n=5) for _ in range(10)]
    pairs += [(euclidean_cloud(int(rng.integers(3, 9)), 2, marks, seed=k),
               euclidean_cloud(int(rng.integers(3, 9)), 2, marks, seed=k + 40))
              for k, marks in enumerate(("sign", "point") * 4)]
    pairs += [(kingman(CoalescentConfig(leaves=5 + k, theta=1.0, seed=k)),
               kingman(CoalescentConfig(leaves=7, theta=1.0, seed=k + 60)))
              for k in range(4)]

    def fresh_coupling(a, b, cross):
        return GluedSpace(left=a, right=b, cross=cross).prohorov()[1].tobytes()

    for a, b in pairs:
        # the scan finishes: upper is the value
        res = mgp_bounds(a, b)
        assert res.lower == min(mgp_lower(a, b), res.upper)
        assert res.upper == res.exact and res.budget_exhausted is False
        assert abs(res.upper - mgp_level_oracle(a, b)) <= 1e-9
        assert_witness_certifies(a, b, res)
    # past the budget (every stoppable pair, at 0): the fallback chain
    monkeypatch.setattr(mmmspace.mgp, "SCAN_BUDGET", 0)
    for a, b in stoppable(pairs):
        res = mgp_bounds(a, b)
        want, want_cross = mgp_fallback_oracle(a, b)
        assert (res.lower, res.upper) == (min(mgp_lower(a, b), want), want)
        assert res.witness_cross.tobytes() == want_cross.tobytes()
        assert res.witness_coupling.tobytes() == fresh_coupling(a, b, want_cross)


def test_bounds_leave_exact_unset_beyond_the_pair_cap_or_the_budget(monkeypatch):
    # 1521 pairs of equal marks, above the cap of the level matrix: no scan
    # runs and mgp_bounds takes the fallback
    a = euclidean_cloud(39, 2, "constant", seed=10)
    b = euclidean_cloud(39, 2, "constant", seed=20)
    res = mgp_bounds(a, b)
    assert (res.exact, res.slack, res.nodes, res.budget_exhausted) == (None, None, None, None)
    want, want_cross = mgp_fallback_oracle(a, b)
    assert (res.lower, res.upper) == (mgp_lower(a, b), want)
    assert res.witness_cross.tobytes() == want_cross.tobytes()
    # 81 pairs: the scan finishes at the default budget (1465 nodes), and
    # one that a budget of 0 stops leaves no value
    a = euclidean_cloud(9, 2, "constant", seed=10)
    b = euclidean_cloud(9, 2, "constant", seed=20)
    monkeypatch.setattr(mmmspace.mgp, "SCAN_BUDGET", 0)
    res = mgp_bounds(a, b)
    assert (res.exact, res.slack, res.nodes, res.budget_exhausted) == (None, None, 0, True)
    want, want_cross = mgp_fallback_oracle(a, b)
    assert (res.lower, res.upper) == (mgp_lower(a, b), want)
    assert res.witness_cross.tobytes() == want_cross.tobytes()
    assert res.upper >= mgp_exact(a, b).exact
    a, b = euclidean_cloud(8, 2, seed=1), euclidean_cloud(8, 2, seed=2)
    res = mgp_bounds(a, b)
    assert (res.exact, res.slack, res.nodes, res.budget_exhausted) == (None, None, 0, True)
    assert (res.lower, res.upper) == (mgp_lower(a, b), mgp_fallback_oracle(a, b)[0])


def test_bounds_scan_every_pair_set_that_exact_accepts():
    # 58 and 81 pairs of equal marks, cheap scans (61 and 1465 nodes) where
    # the fallback alone gives 0.6518 and 0.3355
    a = kingman(CoalescentConfig(leaves=14, theta=1.0, seed=1))
    b = kingman(CoalescentConfig(leaves=16, theta=1.0, seed=51))
    c = euclidean_cloud(9, 2, "constant", seed=10)
    d = euclidean_cloud(9, 2, "constant", seed=20)
    for (a, b), value in (((a, b), 0.589285714286), ((c, d), 0.222222222223)):
        assert z_size(a, b) > 40
        res = mgp_bounds(a, b)
        assert res.exact == res.upper == mgp_exact(a, b).exact
        assert res.exact == pytest.approx(value, abs=1e-12)
        assert res.slack == 0.0 and res.budget_exhausted is False
    # more pairs in Z: the scan's upper bound never exceeds the fallback's
    # (45 to 138 pairs; the budget stops the scan on three of them)
    pairs = [(kingman(CoalescentConfig(leaves=n, theta=1.0, seed=seed)),
              kingman(CoalescentConfig(leaves=n + 2, theta=1.0, seed=seed + 50)))
             for n, seed in ((14, 14), (16, 16), (19, 20))]
    pairs += [(euclidean_cloud(n, 2, marks, seed=n), euclidean_cloud(n, 2, marks, seed=n + 1))
              for n, marks in ((10, "constant"), (12, "sign"), (16, "sign"))]
    for a, b in pairs:
        assert 40 < z_size(a, b) <= 200
        res = mgp_bounds(a, b)
        assert res.upper <= mgp_fallback_oracle(a, b)[0]
        glue(a, b, res.witness_cross)


def test_a_stopped_scan_still_falls_back():
    # 144 pairs of equal marks whose scan the default budget cannot finish
    a = euclidean_cloud(12, 2, "constant", seed=1)
    b = euclidean_cloud(12, 2, "constant", seed=2)
    res = mgp_bounds(a, b)
    assert res.budget_exhausted is True and res.nodes == mmmspace.mgp.SCAN_BUDGET
    assert res.exact is None and res.slack is None
    assert res.upper <= mgp_fallback_oracle(a, b)[0]
    glue(a, b, res.witness_cross)


def counted_candidates(monkeypatch):
    """A list that grows by one at each `correspondence_cross` call of `mgp`."""
    calls, inner = [], mmmspace.mgp.correspondence_cross

    def counting(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(mmmspace.mgp, "correspondence_cross", counting)
    return calls


def test_a_mark_disjoint_pair_evaluates_one_candidate(monkeypatch):
    # no pair of mark distance below 1: no relation beats 1, mgp_lower is 1,
    # and the fallback's first candidate reaches it
    x = np.array([0.0, 1.0, 2.5, 4.0])
    d = np.abs(np.subtract.outer(x, x))
    a = FiniteMmmSpace(distances=d, marks=("a",) * 4, weights=np.array([0.1, 0.2, 0.3, 0.4]),
                       mark_space=AB_MARKS, label="all-a")
    b = FiniteMmmSpace(distances=2.0 * d[:3, :3], marks=("b",) * 3, weights=np.full(3, 1 / 3),
                       mark_space=AB_MARKS, label="all-b")
    assert z_size(a, b) == 0 and mgp_lower(a, b) == 1.0
    for run in (mgp_bounds, mgp_exact):
        calls = counted_candidates(monkeypatch)
        res = run(a, b)
        assert len(calls) == 1
        assert (res.lower, res.upper, res.exact, res.slack) == (1.0, 1.0, 1.0, 0.0)
        assert (res.nodes, res.budget_exhausted) == (0, False)
        glue(a, b, res.witness_cross)
        assert_witness_certifies(a, b, res)


def test_a_stopped_fallback_ends_at_mgp_lower(monkeypatch):
    # a relabelled copy: the greedy support is the isometry, whose gluing is
    # at 0 = mgp_lower, so none of the three pruned relations is evaluated
    x = np.array([0.0, 1.0, 3.0, 7.0])
    a = uniform_space(np.abs(np.subtract.outer(x, x)), "line4")
    b, _ = relabeled(a, np.random.default_rng(4))
    support = mmmspace.mgp._greedy_coupling_pairs(_profile_cost(a, b), a.weights, b.weights)
    assert len(list(_pruned(a, b, support))) == 3
    monkeypatch.setattr(mmmspace.mgp, "SCAN_BUDGET", 0)
    calls = counted_candidates(monkeypatch)
    res = mgp_bounds(a, b)
    assert calls == [support]
    assert res.budget_exhausted is True and res.nodes == 0
    assert res.lower == res.upper == mgp_lower(a, b) == 0.0
    glue(a, b, res.witness_cross)
    calls.clear()
    res = mgp_exact(a, b, budget=0)
    assert len(calls) == 1
    assert (res.lower, res.upper, res.exact, res.slack) == (0.0, 0.0, 0.0, 0.0)


def test_result_validation():
    with pytest.raises(ParameterError):
        MgpResult(lower=0.5, upper=0.1)
    with pytest.raises(ParameterError):
        MgpResult(lower=0.0, upper=0.2, exact=0.5)
