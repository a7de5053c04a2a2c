"""The three benchmark workloads: laws, distances and cli.

A workload builds its inputs from the seed (`setup`), then runs whole
rounds of the same program calls (`run_round`).  Every call goes through
``call``, which times it and counts it as one attempted operation.  The
first round's outputs are checked (`check`) against the reference checks
in `reference` and against properties the method must have; later rounds
must reproduce the first round's `fingerprint`.  Calls made only to check
(for example ``mgp_lower(b, a)`` for symmetry) run untimed in `check`.

Program functions are always looked up through their module at call
time (``M.exact_law``, ``M.cli.run``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import mmmspace as M
import mmmspace.cli  # noqa: F401  (M.cli)
import reference as ref

# MGP bounds are compared within the 1e-9 that `MgpResult` allows (and
# that the acceptance tests use for "distance zero"): Prohorov values come
# from integer flows at scale 10^12.
TOL = 1e-9


def tree(leaves: int, seed: int):
    return M.kingman(M.CoalescentConfig(leaves=leaves, theta=1.0, seed=seed))


def cloud(n: int, seed: int, marks: str = "sign"):
    return M.euclidean_cloud(n, 2, marks, seed=seed)


def relabel(space, perm):
    """The same space with its atoms listed in the order ``perm``."""
    perm = np.asarray(perm)
    return M.FiniteMmmSpace(
        distances=space.distances[np.ix_(perm, perm)],
        marks=tuple(space.marks[i] for i in perm),
        weights=space.weights[perm],
        mark_space=space.mark_space,
        label=space.label,
    )


def factor_arrays(phi, space):
    """Per-atom mark-factor values and pair-factor matrices of a product
    polynomial, for the brute-force tuple sum."""
    marks = [np.array([float(g(mk)) for mk in space.marks]) for g in phi.mark_factors]
    pairs = [(kl, np.asarray(f(space.distances), dtype=float)) for kl, f in phi.pair_factors]
    return marks, pairs


def product_factor_arrays(a, b, space):
    """Factor arrays of a times b, b reading the indices after a's."""
    ma, pa = factor_arrays(a, space)
    mb, pb = factor_arrays(b, space)
    shift = a.order
    return ma + mb, pa + [((k + shift, l + shift), m) for (k, l), m in pb]


def tuple_sum_failures(phi_arrays, space, value, what):
    marks, pairs = phi_arrays
    return [f"{what}: {msg}" for msg in
            ref.check_tuple_sum(marks, pairs, space.weights, value)]


def law_failures(law, what):
    bad = []
    if sum(law.probs, Fraction(0)) != 1:
        bad.append(f"{what}: rational law does not sum to exactly 1")
    sigma = list(range(1, law.order)) + [0]
    pushed = M.law_push(law, sigma)
    if [s.key() for s in pushed.samples] != [s.key() for s in law.samples] or list(
        pushed.probs
    ) != list(law.probs):
        bad.append(f"{what}: law changes under a permutation of the sample")
    return bad


def float_law_failures(rational, flt, what):
    if [s.key() for s in rational.samples] != [s.key() for s in flt.samples]:
        return [f"{what}: float and rational laws have different atoms"]
    err = max(abs(float(p) - q) for p, q in zip(rational.probs, flt.probs))
    return [f"{what}: float law off the rational one by {err:.3g}"] if err > 1e-12 else []


def gluing_failures(a, b, cross, coupling, value, what):
    cost = np.asarray(cross) + ref.mark_offsets(a.marks, b.marks, a.mark_space.kind)
    bad = ref.check_gluing(a.distances, b.distances, cross)
    bad += ref.check_coupling(cost, a.weights, b.weights, coupling, value)
    return [f"{what}: {msg}" for msg in bad]


def bracket_gap(seed: int) -> float:
    """Mean MGP bracket width over thirty point-marked cloud pairs.

    The laws and cli workloads call no MGP solver in their timed rounds;
    they report ``mgp_gap`` from this corpus, run after the timed phase.
    """
    gaps = []
    for k in range(30):
        a = cloud(10, seed * 1000 + 500 + k, "point")
        b = cloud(10, seed * 1000 + 600 + k, "point")
        r = M.mgp_bounds(a, b)
        gaps.append(max(0.0, r.upper - r.lower))
    return float(np.mean(gaps))


def csv_rows(path):
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# laws: sampling laws, polynomials, tightness curves
# ---------------------------------------------------------------------------

class Laws:
    """Exact laws (both paths), pair laws through the tightness curves,
    exact and Monte Carlo polynomials, convergence tables."""

    name = "laws"
    THRESHOLDS = np.linspace(0.25, 3.0, 12)
    EPS = (0.05, 0.1, 0.2, 0.5)
    DELTA = (0.05, 0.1, 0.25)
    MC_DRAWS = 20_000

    def setup(self, seed, workdir):
        s = seed * 1000
        x = SimpleNamespace(seed=seed)
        x.order3 = [tree(20, s + 1), cloud(12, s + 2)]
        x.order2 = [tree(40, s + 3), cloud(30, s + 4, "point")]
        x.tails = [cloud(40, s + 5), tree(60, s + 6)]
        x.family = [tree(30, s + 7 + k) for k in range(3)]
        x.panels = [
            (x.order2[0], M.default_panel(x.order2[0].mark_space, 3, 8)),
            (x.order2[1], M.default_panel(x.order2[1].mark_space, 3, 8)),
        ]
        x.order4 = []
        for space in (tree(8, s + 10), cloud(6, s + 11)):
            pair_members = [
                phi for phi in M.default_panel(space.mark_space, 2, 12) if phi.order == 2
            ]
            a, b = pair_members[0], pair_members[-1]
            x.order4.append((space, a, b, M.multiply(a, b)))
        x.target = cloud(40, s + 12)
        x.sequence = [M.empirical_from_samples(x.target, k, s + 13 + k) for k in (10, 20, 40)]
        x.conv_panel = M.default_panel(x.target.mark_space, 3, 6)
        return x

    def run_round(self, x, call):
        out = SimpleNamespace()
        out.laws3 = [(call(M.exact_law, sp, 3), call(M.exact_law, sp, 3, exact=False))
                     for sp in x.order3]
        out.laws2 = [(call(M.exact_law, sp, 2), call(M.exact_law, sp, 2, exact=False))
                     for sp in x.order2]
        out.tails = [call(M.distance_tail, sp, self.THRESHOLDS) for sp in x.tails]
        out.pair_laws = [call(M.pair_distance_law, sp) for sp in x.tails]
        out.tightness = call(M.family_tightness, x.family, self.EPS, self.DELTA,
                             mark_labels=("A", "C"))
        out.panel = [[call(M.evaluate_exact, phi, sp) for phi in panel]
                     for sp, panel in x.panels]
        out.order4 = [(call(M.evaluate_exact, prod, sp),
                       call(M.evaluate_mc, prod, sp, self.MC_DRAWS, x.seed))
                      for sp, _, _, prod in x.order4]
        out.table = call(M.convergence_table, x.sequence, x.target, x.conv_panel,
                         m=2000, seed=x.seed)
        return out

    def fingerprint(self, out):
        def law(w):
            return None if w is None else ([s.key() for s in w.samples], w.probs)

        t = out.table
        return _digest((
            [(law(a), law(b)) for a, b in out.laws3 + out.laws2],
            [None if v is None else v.tolist() for v in out.tails],
            [None if v is None else (v[0].tolist(), v[1].tolist()) for v in out.pair_laws],
            None if out.tightness is None else (out.tightness.modulus.tolist(),
                                                out.tightness.distance_tail.tolist()),
            out.panel, out.order4,
            None if t is None else (t.estimates.tolist(), t.target_values.tolist()),
        ))

    def check(self, x, out):
        bad = []
        for sp, (rat, flt) in zip(x.order3 + x.order2, out.laws3 + out.laws2):
            what = f"exact_law({sp.label}, {rat.order if rat else '?'})"
            if rat is not None:
                bad += law_failures(rat, what)
            if rat is not None and flt is not None:
                bad += float_law_failures(rat, flt, what)
        for sp, tail, law in zip(x.tails, out.tails, out.pair_laws):
            if tail is not None:
                bad += [f"distance_tail({sp.label}): {m}" for m in
                        ref.check_tail(sp.distances, sp.weights, self.THRESHOLDS, tail)]
            if law is not None:
                bad += [f"pair_distance_law({sp.label}): {m}" for m in
                        ref.check_pair_law(sp.distances, sp.weights, *law)]
        rep = out.tightness
        if rep is not None:
            fam = [(sp.distances, sp.weights) for sp in x.family]
            bad += [f"family_tightness: {m}" for m in
                    ref.check_modulus(fam, self.EPS, self.DELTA, rep.modulus)]
            sup_tail = np.max([ref.distance_tail(d, w, self.EPS) for d, w in fam], axis=0)
            err = float(np.abs(sup_tail - rep.distance_tail).max())
            if err > 1e-12:
                bad.append(f"family_tightness: distance tail off by {err:.3g}")
        for (sp, panel), values in zip(x.panels, out.panel):
            for phi, v in zip(panel, values):
                if v is not None:
                    bad += tuple_sum_failures(factor_arrays(phi, sp), sp, v,
                                              f"evaluate_exact({phi.description}, {sp.label})")
        for (sp, a, b, prod), (exact, mc) in zip(x.order4, out.order4):
            what = f"order-4 {prod.description} on {sp.label}"
            if exact is not None:
                bad += tuple_sum_failures(product_factor_arrays(a, b, sp), sp, exact, what)
            if exact is not None and mc is not None:
                est, err = mc
                if not abs(est - exact) <= 5 * err:
                    bad.append(f"{what}: Monte Carlo {est} is {abs(est - exact) / err:.1f}"
                               " standard errors from the exact value")
        t = out.table
        if t is not None:
            for k, sp in enumerate(x.sequence):
                for c, phi in enumerate(x.conv_panel):
                    bad += tuple_sum_failures(factor_arrays(phi, sp), sp, t.estimates[k, c],
                                              f"convergence_table[{k},{c}]")
            for c, phi in enumerate(x.conv_panel):
                bad += tuple_sum_failures(factor_arrays(phi, x.target), x.target,
                                          t.target_values[c], f"convergence target[{c}]")
        return bad

    def gap(self, x, out):
        return bracket_gap(x.seed)


# ---------------------------------------------------------------------------
# distances: Prohorov on shared metrics, MGP bounds and certificates
# ---------------------------------------------------------------------------

def _measures(rng, n_points, size, count):
    pairs = []
    for _ in range(count):
        pick = rng.permutation(n_points)
        p = rng.dirichlet(np.ones(size))
        q = rng.dirichlet(np.ones(size))
        pairs.append((M.FinitePointMeasure(atoms=pick[:size], probs=p / p.sum()),
                      M.FinitePointMeasure(atoms=pick[size:2 * size], probs=q / q.sum())))
    return pairs


class Distances:
    """Prohorov distances on shared metrics, MGP bounds on tree and cloud
    pairs, and budget-bound MGP certificates on tiny pairs."""

    name = "distances"
    EXACT_BUDGET = 40

    def setup(self, seed, workdir):
        s = seed * 1000
        rng = np.random.default_rng(seed)
        x = SimpleNamespace(seed=seed)
        x.prohorov = []
        for metric in (cloud(48, s + 1, "constant").distances, tree(48, s + 2).distances):
            for p, q in _measures(rng, 48, 20, 2):
                x.prohorov.append((metric, p, q, False))
            for p, q in _measures(rng, 48, 5, 2):
                x.prohorov.append((metric, p, q, True))
        # Tree pairs spread their bracket widths far more than cloud pairs,
        # so clouds make up most of the corpus that `mgp_gap` averages.
        x.chain = [tree(10, s + 100 + k) for k in range(5)]
        x.pairs = [(x.chain[k], x.chain[k + 1]) for k in range(4)]
        x.pairs += [(tree(6, s + 200 + k), tree(12, s + 300 + k)) for k in range(4)]
        x.pairs += [(cloud(8, s + 400 + k), cloud(8, s + 500 + k)) for k in range(14)]
        x.pairs += [(cloud(8, s + 600 + k, "point"), cloud(8, s + 700 + k, "point"))
                    for k in range(14)]
        x.tiny = [(cloud(3, s + 800 + k, "constant"), cloud(3, s + 900 + k, "constant"))
                  for k in range(6)]
        return x

    def run_round(self, x, call):
        out = SimpleNamespace()
        out.prohorov = [(call(M.prohorov_exact, m, p, q), call(M.prohorov_exact, m, q, p))
                        for m, p, q, _ in x.prohorov]
        out.bounds = [call(M.mgp_bounds, a, b) for a, b in x.pairs]
        out.exact = [call(M.mgp_exact, a, b, budget=self.EXACT_BUDGET) for a, b in x.tiny]
        return out

    def fingerprint(self, out):
        def res(r):
            return None if r is None else (r.lower, r.upper, r.exact, r.slack,
                                           r.witness_cross.tolist())
        return _digest((
            [tuple(None if v is None else (v[0], v[1].tolist()) for v in pq)
             for pq in out.prohorov],
            [res(r) for r in out.bounds], [res(r) for r in out.exact],
        ))

    def check(self, x, out):
        bad = []
        for k, ((metric, p, q, small), (pq, qp)) in enumerate(zip(x.prohorov, out.prohorov)):
            what = f"prohorov instance {k}"
            if pq is None or qp is None:
                continue
            if pq[0] != qp[0]:
                bad.append(f"{what}: d(p, q) = {pq[0]!r} but d(q, p) = {qp[0]!r}")
            cross = metric[np.ix_(p.atoms, q.atoms)]
            bad += [f"{what}: {m}" for m in
                    ref.check_coupling(cross, p.probs, q.probs, pq[1], pq[0])]
            bad += [f"{what} reversed: {m}" for m in
                    ref.check_coupling(cross.T, q.probs, p.probs, qp[1], qp[0])]
            if small:
                bad += [f"{what}: {m}" for m in
                        ref.check_prohorov_lp(cross, p.probs, q.probs, pq[0])]
        rng = np.random.default_rng(x.seed)
        for (a, b), r in zip(x.pairs, out.bounds):
            what = f"mgp_bounds({a.label}, {b.label})"
            if r is None:
                continue
            if r.lower > r.upper + TOL:
                bad.append(f"{what}: lower {r.lower} > upper {r.upper}")
            bad += gluing_failures(a, b, r.witness_cross, r.witness_coupling, r.upper, what)
            back = M.mgp_lower(b, a)
            if abs(back - r.lower) > TOL:
                bad.append(f"{what}: mgp_lower not symmetric ({r.lower!r} vs {back!r})")
            self_gap = M.mgp_lower(a, relabel(a, rng.permutation(a.n)))
            if self_gap > TOL:
                bad.append(f"{what}: mgp_lower against a relabelled copy is {self_gap!r}")
        for k in range(len(x.chain) - 2):
            up = [out.bounds[k], out.bounds[k + 1]]
            if None in up:
                continue
            far = M.mgp_lower(x.chain[k], x.chain[k + 2])
            if far > up[0].upper + up[1].upper + TOL:
                bad.append(f"chain {k}: mgp_lower(a, c) = {far} exceeds "
                           f"upper(a, b) + upper(b, c) = {up[0].upper + up[1].upper}")
        for (a, b), r in zip(x.tiny, out.exact):
            what = f"mgp_exact({a.label}, {b.label})"
            if r is None:
                continue
            if not (r.slack >= 0 and r.lower <= r.exact - r.slack + TOL
                    and r.exact <= r.upper + TOL):
                bad.append(f"{what}: lower {r.lower}, exact {r.exact}, slack {r.slack}, "
                           f"upper {r.upper} out of order")
            bad += gluing_failures(a, b, r.witness_cross, r.witness_coupling, r.exact, what)
        return bad

    def gap(self, x, out):
        return float(np.mean([max(0.0, r.upper - r.lower) for r in out.bounds if r is not None]))


# ---------------------------------------------------------------------------
# cli: `mmm` subcommands on files, as a user runs them
# ---------------------------------------------------------------------------

def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _captured(entry, arg):
    """Run a CLI entry point in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(arg)
    return code, out.getvalue(), err.getvalue()


class Cli:
    """`mmm` subcommands run through ``mmmspace.cli.run``, then a replay
    of every manifest they wrote."""

    name = "cli"
    EPS = (0.05, 0.2, 0.5, 1.0)
    DELTA = (0.05, 0.25)

    def setup(self, seed, workdir):
        s = seed * 1000
        root = Path(workdir)
        x = SimpleNamespace(seed=seed, inp=root / "in", out=root / "out")
        for sub in ("in/fam", "in/seq", "out"):
            (root / sub).mkdir(parents=True, exist_ok=True)
        (x.inp / "kingman.json").write_text(json.dumps({"leaves": 40, "theta": 1.0}))
        (x.inp / "cloud.json").write_text(json.dumps({"n": 60, "dim": 2, "mark_map": "sign"}))
        (x.inp / "moran.json").write_text(json.dumps({"population": 40, "horizon": 2.0,
                                                      "theta": 1.0}))
        a, b = tree(60, s + 1), tree(60, s + 2)
        rng = np.random.default_rng(seed)
        x.spaces = {
            "tree_a": a, "tree_b": b, "tree_a_relabelled": relabel(a, rng.permutation(a.n)),
            "cloud400": cloud(400, s + 3), "small_a": tree(10, s + 4),
            "small_b": tree(10, s + 5), "target": cloud(40, s + 6),
        }
        x.family = [tree(30, s + 7 + k) for k in range(3)]
        for k, sp in enumerate(x.family):
            M.save_space(sp, str(x.inp / "fam" / f"t{k}.json"))
        for k, n in enumerate((10, 20, 40)):
            emp = M.empirical_from_samples(x.spaces["target"], n, s + 10 + k)
            M.save_space(emp, str(x.inp / "seq" / f"s{k}.json"))
        # a copy whose d(0, 5) beats every detour by 0.5: validate must name
        # the triple (0, j, 5) through the shortest detour j
        small = cloud(12, s + 8)
        d = small.distances.copy()
        detour = d[0, :] + d[:, 5]
        detour[[0, 5]] = np.inf
        x.broken_j = int(np.argmin(detour))
        d[0, 5] = d[5, 0] = detour[x.broken_j] + 0.5
        x.spaces["broken"] = M.FiniteMmmSpace(distances=d, marks=small.marks,
                                              weights=small.weights,
                                              mark_space=small.mark_space, label="broken")
        for name, sp in x.spaces.items():
            M.save_space(sp, str(x.inp / f"{name}.json"))
        i, o, sd = x.inp, x.out, str(seed)
        test = ["--m", "200", "--perms", "199", "--seed", sd]
        x.commands = [
            ("simulate-tree", ["simulate", "--model", "kingman", "--params", i / "kingman.json",
              "--seed", sd, "--out", o / "sim_tree.json"], 0),
            ("simulate-cloud", ["simulate", "--model", "cloud", "--params", i / "cloud.json",
              "--seed", sd, "--out", o / "sim_cloud.json"], 0),
            ("simulate-moran", ["simulate", "--model", "moran", "--params", i / "moran.json",
              "--seed", sd, "--out", o / "sim_moran.json"], 0),
            ("validate-400", ["validate", "--space", i / "cloud400.json"], 0),
            ("validate-tree", ["validate", "--space", o / "sim_tree.json"], 0),
            ("validate-broken", ["validate", "--space", i / "broken.json"], 1),
            ("sample", ["sample", "--space", i / "tree_a.json", "--n", "3", "--count", "400",
              "--seed", sd, "--out", o / "draws.jsonl"], 0),
            ("poly-eval", ["poly-eval", "--space", i / "tree_a.json", "--n-max", "3",
                           "--size", "8", "--mc", "4000", "--seed", sd,
                           "--out", o / "poly.csv"], 0),
            ("tightness", ["tightness", "--spaces", i / "fam",
                           "--eps", ",".join(map(str, self.EPS)),
                           "--delta", ",".join(map(str, self.DELTA)), "--mark-labels", "A,C",
                           "--out", o / "tight"], 0),
            ("test-ab", ["test", "--a", i / "tree_a.json", "--b", i / "tree_b.json", *test,
              "--out", o / "test_ab.json"], 0),
            ("test-ba", ["test", "--a", i / "tree_b.json", "--b", i / "tree_a.json", *test,
              "--out", o / "test_ba.json"], 0),
            ("test-relabelled", ["test", "--a", i / "tree_a_relabelled.json",
                                 "--b", i / "tree_b.json", *test,
                                 "--out", o / "test_relabelled.json"], 0),
            ("dist", ["dist", "--a", i / "small_a.json", "--b", i / "small_b.json", "--seed", sd,
              "--out", o / "dist.json"], 0),
            ("converge", ["converge", "--seq", i / "seq", "--target", i / "target.json",
                          "--n-max", "3", "--size", "6", "--mc", "1000", "--seed", sd,
                          "--out", o / "conv.csv"], 0),
        ]
        return x

    def run_round(self, x, call):
        out = SimpleNamespace(runs=[], replays=[])
        for _, argv, expected in x.commands:
            out.runs.append(call(_captured, M.cli.run, argv,
                                 expect=lambda r, e=expected: r[0] == e))
        for manifest in sorted(x.out.rglob("*.manifest.json")):
            recorded = json.loads(manifest.read_text())["outputs"]
            got = call(_captured, M.cli.replay, manifest, expect=lambda r: r[0] == 0)
            out.replays.append((manifest.name, recorded, got,
                                {p: _sha(p) for p in recorded}))
        return out

    def fingerprint(self, out):
        return _digest(([r and r[:2] for r in out.runs],
                        [(name, rec, cur) for name, rec, _, cur in out.replays]))

    def check(self, x, out):
        bad = []
        runs = {key: r for (key, _, _), r in zip(x.commands, out.runs)}
        tests = [runs.get(k) for k in ("test-ab", "test-ba", "test-relabelled")]
        if None not in tests and len({t[1] for t in tests}) != 1:
            bad.append("mmm test output changes with argument order or relabelling: "
                       + " | ".join(t[1].strip() for t in tests))
        broken = runs.get("validate-broken")
        if broken is not None:
            detail = json.loads(broken[2] or "{}").get("detail", "")
            want = f"({0},{x.broken_j},{5})"
            if want not in detail:
                bad.append(f"mmm validate names {detail!r}, expected the triple {want}")
        for name, recorded, got, current in out.replays:
            if got is not None and current != recorded:
                bad.append(f"replay of {name} changed its outputs")
        if not out.replays:
            bad.append("no manifest was written")
        if runs.get("poly-eval") is not None:
            bad += self._check_poly(x)
        if runs.get("tightness") is not None:
            bad += self._check_tightness(x)
        dist = runs.get("dist")
        if dist is not None:
            r = json.loads(dist[1])
            a, b = x.spaces["small_a"], x.spaces["small_b"]
            if r["lower"] > r["upper"] + TOL:
                bad.append(f"mmm dist: lower {r['lower']} > upper {r['upper']}")
            bad += gluing_failures(a, b, np.array(r["witness_cross"]),
                                   np.array(r["witness_coupling"]), r["upper"], "mmm dist")
        return bad

    def _check_poly(self, x):
        bad = []
        space = x.spaces["tree_a"]
        rows = list(csv_rows(x.out / "poly.csv"))
        panel = M.default_panel(space.mark_space, 3, 8)
        for phi, row in zip(panel, rows):
            exact, est, err = (float(row[k]) for k in ("exact", "mc_estimate", "mc_stderr"))
            bad += tuple_sum_failures(factor_arrays(phi, space), space, exact,
                                      f"mmm poly-eval {phi.description}")
            if not abs(est - exact) <= 5 * err:
                bad.append(f"mmm poly-eval {phi.description}: Monte Carlo {est} is more "
                           f"than 5 standard errors from {exact}")
        if len(rows) != len(panel):
            bad.append(f"mmm poly-eval wrote {len(rows)} rows for {len(panel)} polynomials")
        return bad

    def _check_tightness(self, x):
        rows = list(csv_rows(x.out / "tight" / "tightness_curves.csv"))
        table = np.zeros((len(self.DELTA), len(self.EPS)))
        for row in rows:
            if row["curve"] == "modulus":
                d = self.DELTA.index(float(row["delta"]))
                e = self.EPS.index(float(row["eps_or_threshold"]))
                table[d, e] = float(row["value"])
        fam = [(sp.distances, sp.weights) for sp in x.family]
        bad = ref.check_modulus(fam, self.EPS, self.DELTA, table)
        tails = [float(r["value"]) for r in rows if r["curve"] == "distance_tail"]
        sup = np.max([ref.distance_tail(d, w, self.EPS) for d, w in fam], axis=0)
        if len(tails) != len(self.EPS) or np.abs(sup - tails).max() > 1e-12:
            bad.append("distance tail curve differs from the reference")
        return [f"mmm tightness: {m}" for m in bad]

    def gap(self, x, out):
        return bracket_gap(x.seed)


WORKLOADS = {w.name: w for w in (Laws(), Distances(), Cli())}
