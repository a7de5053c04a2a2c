"""Statistical layer: two-sample testing and convergence tables.

The two-sample test is justified by the fact that two spaces are
equivalent exactly when their full sampling laws agree; a fixed sample
order n probes the order-n marginal of that law, so n is an explicit
knob.  The permutation scheme gives exact finite-sample level with no
distributional assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteMmmSpace, _canonical_form, _form_key, _require_nonnegative, _sample_indices,
)
from .errors import ParameterError
from .poly import Polynomial, _exact_is_cheap, evaluate_exact, evaluate_mc

__all__ = [
    "TwoSampleResult",
    "ConvergenceTable",
    "two_sample_test",
    "convergence_table",
]


# ---------------------------------------------------------------------------
# feature map
# ---------------------------------------------------------------------------

def _mark_coordinates(space: FiniteMmmSpace) -> np.ndarray:
    """One (N, k) row of mark embedding coordinates per atom: a label's
    position in the label set (k = 1), or the Euclidean coordinates."""
    ms = space.mark_space
    if ms.kind == "discrete":
        position = {lab: float(pos) for pos, lab in enumerate(ms.labels)}
        return np.array([position[mark] for mark in space.marks]).reshape(space.n, 1)
    return np.array(space.marks, dtype=float).reshape(space.n, ms.dim)


def _features(space: FiniteMmmSpace, idx: np.ndarray) -> np.ndarray:
    """Permutation-invariant feature rows for order-n index samples.

    Each row: the n(n-1)/2 sampled distances sorted, then each mark
    embedding coordinate (`_mark_coordinates`, gathered by ``idx``) sorted
    across the n sampled atoms (coordinates sorted independently:
    invariant, at the price of decoupling multi-dimensional marks).
    """
    m, n = idx.shape
    iu = np.triu_indices(n, k=1)
    block = space.distances[idx[:, :, None], idx[:, None, :]]
    dcols = np.sort(block[:, iu[0], iu[1]], axis=1)
    mcols = np.sort(_mark_coordinates(space)[idx], axis=1).reshape(m, -1)
    return np.concatenate([dcols, mcols], axis=1)


# ---------------------------------------------------------------------------
# two-sample test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoSampleResult:
    statistic: float
    p_value: float
    order: int
    samples: int
    permutations: int
    feature: str = "sorted-distances+sorted-mark-embeddings"

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ParameterError("p_value escaped [0, 1]")


PERMUTATION_BLOCK = 256


def _row_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x``, as a (k, k) matrix.

    Each entry is the sum over the columns, in order and from 0, of the
    squared coordinate differences, then one square root: the order in
    which the C loop of ``scipy.spatial.distance.cdist`` adds, so the
    matrix equals ``cdist(x, x)`` bit for bit.  Rows go in blocks of 64,
    so besides the result it holds one (64, k) temporary.
    """
    k = x.shape[0]
    dist, diff = np.zeros((k, k)), np.empty((min(k, 64), k))
    for r0 in range(0, k, 64):
        out, tmp = dist[r0: r0 + 64], diff[: min(64, k - r0)]
        for col in x.T:
            np.subtract.outer(col[r0: r0 + 64], col, out=tmp)
            tmp *= tmp
            out += tmp
    return np.sqrt(dist, out=dist)


def _energies(dmat: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Energy statistic of every split in the columns of ``masks``.

    ``masks`` is a 0/1 float matrix with 2m rows, one column per split,
    and m ones (the first group) in each column.  With s = D 1 and
    T = 1' D 1, a split x has energy (4 (x's - x'Dx) - T) / m^2, which is
    2 mean(D[x, ~x]) - mean(D[x, x]) - mean(D[~x, ~x]); one matrix product
    gives every column's x'Dx.
    """
    m = masks.shape[0] // 2
    s = dmat.sum(axis=1)
    quad = (masks * (dmat @ masks)).sum(axis=0)
    return (4.0 * (s @ masks - quad) - s.sum()) / m**2


def two_sample_test(
    a: FiniteMmmSpace,
    b: FiniteMmmSpace,
    n: int = 2,
    m: int = 400,
    permutations: int = 199,
    seed: int = 0,
) -> TwoSampleResult:
    """Permutation test of the hypothesis that two spaces are equivalent.

    Draws m order-n samples per side, maps them through the sorted
    feature rows of `_features`, and compares the two clouds with the
    energy statistic; the p-value comes from ``permutations`` random
    relabelings of the pooled rows, so the level is exact for any m.  The
    pooled rows' Euclidean distances come from `_row_distances`, which
    sums the squared differences column by column in feature order, in
    blocks of 64 rows, and holds one (2m)^2 float array.  The energies of
    all splits come from matrix products over blocks of PERMUTATION_BLOCK
    splits, in O(m^2 + m * PERMUTATION_BLOCK) memory.

    Determinism and symmetry: both spaces are put in canonical form
    (`core._canonical_form`), and the side whose form comes first (marks
    by repr, then weight bytes, then distance bytes) is drawn first from
    the single seeded stream.  Hence test(a, b) and test(b, a) agree bit
    for bit, and the result is invariant under relabeling either input.
    Raises TooLargeError past `core.CANONICAL_NODE_BOUND` search nodes,
    and ParameterError for NaN/inf entries or a negative weight in either
    input, checked before the forms drop nonpositive atoms.
    """
    if n < 2:
        raise ParameterError("sample order must be at least 2")
    if m < 20:
        raise ParameterError("need at least 20 samples per side")
    if permutations < 99:
        raise ParameterError("need at least 99 permutations")
    if a.mark_space != b.mark_space:
        raise ParameterError("both spaces must share the mark space")
    _require_nonnegative(a, b)

    ca, cb = sorted((_canonical_form(a), _canonical_form(b)), key=_form_key)

    rng = np.random.default_rng(seed)
    idx1 = _sample_indices(ca, (m, n), rng)
    idx2 = _sample_indices(cb, (m, n), rng)
    pooled = np.vstack([_features(ca, idx1), _features(cb, idx2)])
    # an exact power-of-two scale keeps the distances and their sums finite
    e = max(math.frexp(float(np.abs(pooled).max()))[1] - 500, 0)
    pooled = np.ldexp(pooled, -e)
    dmat = _row_distances(pooled)

    # column 0 is the observed split; the permutations follow in draw order
    splits = permutations + 1
    energies = np.empty(splits)
    for start in range(0, splits, PERMUTATION_BLOCK):
        masks = np.zeros((2 * m, min(PERMUTATION_BLOCK, splits - start)))
        for c in range(masks.shape[1]):
            first = np.arange(m) if start + c == 0 else rng.permutation(2 * m)[:m]
            masks[first, c] = 1.0
        energies[start: start + masks.shape[1]] = _energies(dmat, masks)
    observed = energies[0]
    hits = int(np.count_nonzero(energies[1:] >= observed - 1e-12))
    return TwoSampleResult(
        statistic=math.ldexp(float(observed), e),
        p_value=(1 + hits) / (permutations + 1),
        order=n,
        samples=m,
        permutations=permutations,
    )


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceTable:
    """Panel evaluations along a sequence, optionally against a target.

    ``estimates[k, c]`` is panel member c on space k with ``stderrs`` 0
    for exact cells.  With a target: ``target_values`` per column,
    ``gaps[k, c] = |estimate - target|``, and ``trends[c]`` compares the
    first row's gap with the last ("decreasing"/"increasing"/"flat").
    """

    row_labels: tuple
    column_labels: tuple
    estimates: np.ndarray
    stderrs: np.ndarray
    target_values: np.ndarray | None = None
    gaps: np.ndarray | None = None
    trends: tuple | None = None


def _evaluate_cell(phi: Polynomial, space: FiniteMmmSpace, m: int, seed: int):
    if _exact_is_cheap(phi, space):
        return evaluate_exact(phi, space), 0.0
    return evaluate_mc(phi, space, m, seed)


def convergence_table(
    sequence,
    target: FiniteMmmSpace | None,
    panel,
    m: int = 2000,
    seed: int = 0,
) -> ConvergenceTable:
    """Evaluate a polynomial panel along a sequence of spaces.

    Cells are exact whenever the enumeration or product fast path fits
    the budget, Monte Carlo with m >= 2 draws otherwise (per-cell derived
    seeds keep everything reproducible).  With a target space, per-column
    absolute gaps and a first-versus-last trend summary are attached.
    """
    if m < 2:
        raise ParameterError("need at least two Monte Carlo draws for a standard error")
    sequence = list(sequence)
    if not sequence:
        raise ParameterError("sequence must be nonempty")
    panel = list(panel)
    if not panel:
        raise ParameterError("panel must be nonempty")

    rows = len(sequence)
    cols = len(panel)
    estimates = np.zeros((rows, cols))
    stderrs = np.zeros((rows, cols))
    for k, space in enumerate(sequence):
        for c, phi in enumerate(panel):
            estimates[k, c], stderrs[k, c] = _evaluate_cell(
                phi, space, m, seed + 1000003 * k + 101 * c
            )

    target_values = gaps = None
    trends = None
    if target is not None:
        target_values = np.zeros(cols)
        for c, phi in enumerate(panel):
            target_values[c], _ = _evaluate_cell(phi, target, m, seed + 7919 * (c + 1))
        gaps = np.abs(estimates - target_values[None, :])
        trends = tuple(
            "decreasing"
            if gaps[-1, c] < gaps[0, c] - 1e-12
            else ("increasing" if gaps[-1, c] > gaps[0, c] + 1e-12 else "flat")
            for c in range(cols)
        )

    row_labels = tuple(
        s.label if s.label else f"space-{k}" for k, s in enumerate(sequence)
    )
    return ConvergenceTable(
        row_labels=row_labels,
        column_labels=tuple(phi.description for phi in panel),
        estimates=estimates,
        stderrs=stderrs,
        target_values=target_values,
        gaps=gaps,
        trends=trends,
    )
