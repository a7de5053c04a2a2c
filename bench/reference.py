"""Reference checks built apart from the program.

Nothing here imports ``mmmspace``: each check recomputes a quantity from
the raw arrays (distance matrices, weights, marks, cross matrices) with
numpy or scipy and returns a list of failure messages, empty when the
program's answer passes.  ``bench/test_reference.py`` shows that every
check rejects a perturbed answer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

SIG_DIGITS = 12


def _round_sig(x: np.ndarray) -> np.ndarray:
    """Round to 12 significant digits, the grouping key of distance laws."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    nz = x != 0
    dec = SIG_DIGITS - 1 - np.floor(np.log10(np.abs(x[nz])))
    out[nz] = np.round(x[nz] * 10.0 ** dec) / 10.0 ** dec
    return out


def pair_law(d: np.ndarray, w: np.ndarray):
    """Law of the distance between two independent draws: a weighted
    histogram of ``d`` under ``w wᵀ`` (normalized)."""
    w = np.asarray(w, dtype=float) / math.fsum(np.asarray(w, dtype=float).tolist())
    values, inverse = np.unique(_round_sig(d).ravel(), return_inverse=True)
    probs = np.bincount(inverse.ravel(), weights=np.outer(w, w).ravel())
    return values, probs


def check_pair_law(d, w, values, probs, tol=1e-12) -> list:
    ref_v, ref_p = pair_law(d, w)
    values, probs = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    if values.shape != ref_v.shape:
        return [f"pair law has {values.size} values, histogram has {ref_v.size}"]
    bad = []
    if not np.allclose(values, ref_v, rtol=1e-11, atol=0.0):
        bad.append("pair law values differ from the histogram")
    err = float(np.abs(probs - ref_p).max()) if probs.size else 0.0
    if err > tol:
        bad.append(f"pair law probabilities off by {err:.3g}")
    return bad


def distance_tail(d, w, thresholds) -> np.ndarray:
    """P(r12 > t) for each threshold, summed over all atom pairs."""
    w = np.asarray(w, dtype=float) / math.fsum(np.asarray(w, dtype=float).tolist())
    ww = np.outer(w, w)
    return np.array([float(ww[d > t].sum()) for t in np.asarray(thresholds, float)])


def check_tail(d, w, thresholds, tail, tol=1e-12) -> list:
    err = float(np.abs(distance_tail(d, w, thresholds) - np.asarray(tail)).max())
    return [f"distance tail off by {err:.3g}"] if err > tol else []


def ball_masses(d, w, eps) -> np.ndarray:
    """Mass of the open eps-ball around each atom."""
    return (np.asarray(d) < eps).astype(float) @ np.asarray(w, dtype=float)


def modulus(d, w, eps, delta) -> float:
    """Mass of the atoms whose open eps-ball holds mass at most delta."""
    w = np.asarray(w, dtype=float)
    return float(w[ball_masses(d, w, eps) <= delta].sum())


def check_modulus(family, eps_grid, delta_grid, table, tol=1e-12) -> list:
    """``family`` is a list of (d, w); ``table[i, j]`` the family sup at
    (delta_grid[i], eps_grid[j])."""
    ref = np.array([
        [max(modulus(d, w, eps, delta) for d, w in family) for eps in eps_grid]
        for delta in delta_grid
    ])
    err = float(np.abs(ref - np.asarray(table)).max())
    return [f"modulus off by {err:.3g}"] if err > tol else []


def tuple_sum(mark_values, pair_mats, w, chunk=1 << 16) -> float:
    """Brute-force integral of a product polynomial over all N^n tuples.

    ``mark_values[t]`` is the per-atom value of the t-th mark factor (one
    per sampled index, so n = len(mark_values)), ``pair_mats`` a list of
    ((k, l), matrix) pair factors evaluated on the distance matrix.
    """
    w = np.asarray(w, dtype=float)
    d_order = len(mark_values)
    n_atoms = w.size
    total = n_atoms ** d_order
    radix = n_atoms ** np.arange(d_order - 1, -1, -1)
    parts = []
    for start in range(0, total, chunk):
        code = np.arange(start, min(start + chunk, total))
        idx = (code[:, None] // radix[None, :]) % n_atoms
        val = np.ones(code.size)
        for t in range(d_order):
            val *= w[idx[:, t]] * np.asarray(mark_values[t])[idx[:, t]]
        for (k, l), mat in pair_mats:
            val *= mat[idx[:, k], idx[:, l]]
        parts.append(float(val.sum()))
    return math.fsum(parts) / math.fsum(w.tolist()) ** d_order


def check_tuple_sum(mark_values, pair_mats, w, value, tol=1e-12) -> list:
    ref = tuple_sum(mark_values, pair_mats, w)
    err = abs(ref - value)
    if err > tol * max(1.0, abs(ref)):
        return [f"polynomial off the tuple sum by {err:.3g}"]
    return []


def _lp_routable(cross, wp, wq, eps) -> float:
    """Largest mass a coupling can put on pairs with cross <= eps (LP)."""
    ii, jj = np.nonzero(cross <= eps)
    if ii.size == 0:
        return 0.0
    kp, kq = cross.shape
    a_ub = np.zeros((kp + kq, ii.size))
    a_ub[ii, np.arange(ii.size)] = 1.0
    a_ub[kp + jj, np.arange(ii.size)] = 1.0
    res = linprog(-np.ones(ii.size), A_ub=a_ub, b_ub=np.concatenate([wp, wq]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return -float(res.fun)


def prohorov_lp(cross, wp, wq) -> float:
    """Prohorov distance from the cross-distance matrix: the least
    max(t, 1 - routable(t)) over the breakpoints t whose candidate stays
    below the next breakpoint."""
    cross = np.asarray(cross, dtype=float)
    wp, wq = np.asarray(wp, dtype=float), np.asarray(wq, dtype=float)
    ts = np.unique(np.concatenate([[0.0], cross.ravel()]))
    best = math.inf
    for k, t in enumerate(ts):
        cand = max(float(t), 1.0 - _lp_routable(cross, wp, wq, t))
        if k + 1 == ts.size or cand < ts[k + 1]:
            best = min(best, cand)
    return best


def check_prohorov_lp(cross, wp, wq, value, tol=1e-9) -> list:
    ref = prohorov_lp(cross, wp, wq)
    err = abs(ref - value)
    return [f"Prohorov value {value!r} but the LP oracle gives {ref!r}"] if err > tol else []


def glued_metric(r1, r2, cross) -> np.ndarray:
    n1, n2 = np.shape(cross)
    z = np.zeros((n1 + n2, n1 + n2))
    z[:n1, :n1] = r1
    z[n1:, n1:] = r2
    z[:n1, n1:] = cross
    z[n1:, :n1] = np.transpose(cross)
    return z


def triangle_excess(z, chunk=64) -> float:
    """max over (i, j, k) of z[i,k] - z[i,j] - z[j,k], in chunks of the
    middle index so memory stays O(n^2 * chunk)."""
    z = np.asarray(z, dtype=float)
    worst = -math.inf
    for lo in range(0, z.shape[0], chunk):
        mid = slice(lo, lo + chunk)
        excess = z[:, None, :] - z[:, mid, None] - z[None, mid, :]
        worst = max(worst, float(excess.max()))
    return worst


def check_gluing(r1, r2, cross, tol=1e-9) -> list:
    cross = np.asarray(cross, dtype=float)
    bad = []
    if cross.size and cross.min() < -tol:
        bad.append(f"negative cross entry {cross.min():.3g}")
    excess = triangle_excess(glued_metric(r1, r2, cross))
    if excess > tol:
        bad.append(f"glued metric breaks a triangle by {excess:.3g}")
    return bad


def mark_offsets(marks_a, marks_b, kind) -> np.ndarray:
    """Mark distance between every pair: 0/1 for labels, Euclidean for
    vector marks."""
    if kind == "discrete":
        return np.array([[0.0 if u == v else 1.0 for v in marks_b] for u in marks_a])
    a = np.asarray(marks_a, dtype=float)
    b = np.asarray(marks_b, dtype=float)
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def check_coupling(cost, wp, wq, coupling, value, tol=1e-9) -> list:
    """Certificate for a Prohorov value: the coupling has marginals wp and
    wq, and the mass it puts on pairs with cost beyond the value is at most
    the value."""
    pi = np.asarray(coupling, dtype=float)
    bad = []
    if pi.shape != np.shape(cost):
        return [f"coupling shape {pi.shape} != {np.shape(cost)}"]
    if pi.size and pi.min() < -tol:
        bad.append(f"negative coupling entry {pi.min():.3g}")
    row = float(np.abs(pi.sum(axis=1) - np.asarray(wp)).max())
    col = float(np.abs(pi.sum(axis=0) - np.asarray(wq)).max())
    if max(row, col) > tol:
        bad.append(f"coupling marginals off by {max(row, col):.3g}")
    beyond = float(pi[np.asarray(cost) > value + 1e-12].sum())
    if beyond > value + tol:
        bad.append(f"mass {beyond:.6g} beyond the value {value:.6g}")
    return bad
