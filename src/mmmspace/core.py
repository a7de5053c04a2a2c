"""Finite marked metric measure spaces.

A space is a finite pseudo-metric on N points together with a probability
weight and a mark for every point; marks live in a fixed complete separable
mark space (a finite label set with the 0/1 metric, or R^d with the
Euclidean metric).  Two spaces are the same object exactly when a
measure-preserving, mark-preserving isometry maps one support onto the
other; `canonicalize` produces the quotient representative, and
`is_equivalent_exact` compares canonical forms (`_canonical_form`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, TooLargeError

__all__ = [
    "MarkSpace",
    "FiniteMmmSpace",
    "Violation",
    "ValidationReport",
    "MarkFunctionInput",
    "validate",
    "from_mark_function",
    "canonicalize",
    "is_equivalent_exact",
    "empirical_from_samples",
]


# ---------------------------------------------------------------------------
# mark spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkSpace:
    """The fixed mark space I: ``discrete`` labels or ``euclidean`` R^dim."""

    kind: str
    labels: tuple = ()
    dim: int = 0

    def __post_init__(self):
        if self.kind not in ("discrete", "euclidean"):
            raise ParameterError(f"unknown mark space kind {self.kind!r}")
        if self.kind == "discrete":
            if not self.labels:
                raise ParameterError("discrete mark space needs at least one label")
            if len(set(self.labels)) != len(self.labels):
                raise ParameterError("duplicate labels in mark space")
        if self.kind == "euclidean" and self.dim < 1:
            raise ParameterError("euclidean mark space needs dim >= 1")

    @staticmethod
    def discrete(labels: Sequence) -> "MarkSpace":
        return MarkSpace(kind="discrete", labels=tuple(labels))

    @staticmethod
    def euclidean(dim: int) -> "MarkSpace":
        return MarkSpace(kind="euclidean", dim=int(dim))

    def contains(self, mark) -> bool:
        if self.kind == "discrete":
            return mark in self.labels
        return (
            isinstance(mark, tuple)
            and len(mark) == self.dim
            and all(isinstance(x, float) and math.isfinite(x) for x in mark)
        )

    def coerce(self, mark):
        """Canonical internal form of a mark value (hashable)."""
        if self.kind == "discrete":
            if mark not in self.labels:
                raise ParameterError(f"mark {mark!r} not in label set")
            return mark
        arr = np.asarray(mark, dtype=float).reshape(-1)
        if arr.shape != (self.dim,):
            raise ParameterError(f"mark {mark!r} is not a vector of dim {self.dim}")
        return tuple(float(x) for x in arr)

    def distance(self, u, v) -> float:
        """Mark metric r_I: discrete 0/1, Euclidean norm otherwise."""
        return float(self.cross_distances([u], [v])[0, 0])

    def cross_distances(self, us: Sequence, vs: Sequence) -> np.ndarray:
        """The (len(us), len(vs)) matrix of r_I from each u to each v.

        Euclidean entries are sqrt(<u - v, u - v>), the formula of
        ``np.linalg.norm(u - v)``.
        """
        if self.kind == "discrete":
            ids: dict = {}
            iu = np.array([ids.setdefault(u, len(ids)) for u in us], dtype=int)
            iv = np.array([ids.setdefault(v, len(ids)) for v in vs], dtype=int)
            return (iu[:, None] != iv[None, :]).astype(float)
        u = np.asarray(us, dtype=float).reshape(len(us), self.dim)
        v = np.asarray(vs, dtype=float).reshape(len(vs), self.dim)
        diff = u[:, None, :] - v[None, :, :]
        return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


# ---------------------------------------------------------------------------
# the space itself
# ---------------------------------------------------------------------------

def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FiniteMmmSpace:
    """N points, an N x N distance matrix, marks, probability weights.

    Arrays are copied and frozen at construction.  Only light shape checks
    happen here; `validate` reports metric/measure violations without
    raising so callers can inspect them.
    """

    distances: np.ndarray
    marks: tuple
    weights: np.ndarray
    mark_space: MarkSpace
    label: str = ""

    def __post_init__(self):
        d = _frozen_array(self.distances)
        w = _frozen_array(self.weights)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ParameterError("distance matrix must be square")
        n = d.shape[0]
        if w.shape != (n,):
            raise ParameterError("weights length must match the point count")
        marks = tuple(self.mark_space.coerce(m) for m in self.marks)
        if len(marks) != n:
            raise ParameterError("marks length must match the point count")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "marks", marks)

    @property
    def n(self) -> int:
        return self.distances.shape[0]

    @functools.cached_property
    def _first_non_finite(self) -> str | None:
        """`_find_non_finite` of the space, found on first use and kept: the
        arrays are read-only (`_frozen_array`) and the marks tuples, as
        `dmat.DistanceMatrixSample.key` also relies on."""
        return _find_non_finite(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMmmSpace):
            return NotImplemented
        return (
            self.mark_space == other.mark_space
            and self.label == other.label
            and self.marks == other.marks
            and self.distances.shape == other.distances.shape
            and bool(np.all(self.distances == other.distances))
            and bool(np.all(self.weights == other.weights))
        )

    def __repr__(self) -> str:
        return (
            f"FiniteMmmSpace(n={self.n}, mark_space={self.mark_space.kind}, "
            f"label={self.label!r})"
        )


def _mark_codes(marks) -> tuple[np.ndarray, list]:
    """Each mark's code, and the distinct marks in code order: equal marks
    share a code, and distinct marks are ranked by repr (marks that print
    alike, by first appearance).  The mark order of `dmat`'s law keys and
    of `dmat.mark_marginal`, and the equal-mark test of `validate`."""
    seen: dict = {}
    first = np.array([seen.setdefault(m, len(seen)) for m in marks], dtype=np.intp)
    distinct = list(seen)
    order = sorted(range(len(distinct)), key=lambda c: repr(distinct[c]))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank[first], [distinct[c] for c in order]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple
    magnitude: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set:
        return {v.kind for v in self.violations}

    def __contains__(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)


VIOLATIONS_LISTED = 100


def _listed(kind: str, ix, magnitudes, message, what: str, total: int | None = None) -> list:
    """The ``kind`` Violations that `validate` lists, out of ``total`` of them
    (default ``len(magnitudes)``) in index order.

    ``ix[p]`` is the p-th one's index tuple and ``magnitudes[p]`` its
    magnitude; past the first VIOLATIONS_LISTED they may skip ahead to the
    first one of largest magnitude.  Listed: the first VIOLATIONS_LISTED,
    then that worst one if it is not among them, then, if there are more
    than VIOLATIONS_LISTED, one with no indices giving the count, of
    magnitude min(0, the worst's), so that the first violation of largest
    magnitude in a report (`mmm validate`'s detail) is the one of the full
    list.  ``message(ix, magnitude)`` words a listed violation.
    """
    total = len(magnitudes) if total is None else total
    pick = list(range(min(total, VIOLATIONS_LISTED)))
    if total:
        worst = int(np.argmax(magnitudes))
        pick += [worst] * (worst >= VIOLATIONS_LISTED)
    out = []
    for p in pick:
        at, size = tuple(int(t) for t in ix[p]), float(magnitudes[p])
        out.append(Violation(kind, at, size, message(at, size)))
    if total > VIOLATIONS_LISTED:
        out.append(Violation(kind, (), min(0.0, float(magnitudes[worst])),
                             f"{total} {what}, the first {VIOLATIONS_LISTED} "
                             f"and the largest listed"))
    return out


def _non_finite(space: FiniteMmmSpace) -> list:
    """``non-finite`` Violations (magnitude 0) for the NaN/inf entries,
    distances in C order and then weights, listed by `_listed`, so that an
    all-NaN space's report stays small."""
    d, w = space.distances, space.weights
    bad_d, bad_w = ~np.isfinite(d), ~np.isfinite(w)
    total = int(np.count_nonzero(bad_d)) + int(np.count_nonzero(bad_w))
    rows, cols = np.unravel_index(np.flatnonzero(bad_d)[:VIOLATIONS_LISTED], d.shape)
    ix = list(zip(rows.tolist(), cols.tolist()))
    ix += [(i,) for i in np.flatnonzero(bad_w)[:VIOLATIONS_LISTED - len(ix)].tolist()]

    def message(at, _):
        name = f"d({at[0]},{at[1]})" if len(at) == 2 else f"weight {at[0]}"
        return f"{name} = {float((d if len(at) == 2 else w)[at])!r} is not finite"

    return _listed("non-finite", ix, np.zeros(len(ix)), message, "entries are not finite", total)


def _weight_total(space: FiniteMmmSpace) -> float:
    """fsum of the weights; ParameterError naming the first NaN/inf entry
    (`_require_finite`) or unless the total is positive."""
    _require_finite(space)
    total = math.fsum(space.weights.tolist())
    if not total > 0:
        raise ParameterError(f"space {space.label!r}: weights must have positive total")
    return total


def _find_non_finite(space: FiniteMmmSpace) -> str | None:
    """The message naming the first NaN/inf distance in C order, else weight,
    else Euclidean mark coordinate, or None: one `np.isfinite` pass per
    array and an argmax, whatever the number of bad entries."""
    d, w, marks = space.distances, space.weights, space.marks
    coords = (np.reshape(marks, (space.n, space.mark_space.dim))
              if space.mark_space.kind == "euclidean" else np.zeros((space.n, 0)))
    for ok, name in ((np.isfinite(d), lambda i, j: f"d({i},{j}) = {float(d[i, j])!r}"),
                     (np.isfinite(w), lambda i: f"weight {i} = {float(w[i])!r}"),
                     (np.isfinite(coords).all(axis=1), lambda i: f"mark {i} = {marks[i]!r}")):
        if not ok.all():
            return f"{name(*np.unravel_index(int(ok.argmin()), ok.shape))} is not finite"
    return None


def _require_finite(*spaces: FiniteMmmSpace) -> None:
    """Raise ParameterError naming the first non-finite distance, weight or
    Euclidean mark coordinate of the first space that has one; each space
    is scanned once (`FiniteMmmSpace._first_non_finite`)."""
    for space in spaces:
        if space._first_non_finite is not None:
            raise ParameterError(f"space {space.label!r}: {space._first_non_finite}")


def _require_nonnegative(*spaces: FiniteMmmSpace) -> None:
    """`_require_finite`, then ParameterError naming the first negative
    weight of the first space that has one."""
    _require_finite(*spaces)
    for space in spaces:
        negative = np.flatnonzero(space.weights < 0)
        if len(negative):
            i = int(negative[0])
            raise ParameterError(f"space {space.label!r}: weight {i} = "
                                 f"{float(space.weights[i])!r} is negative")


def _require_tol(tol: float) -> None:
    """ParameterError for a NaN, negative or infinite ``tol``, which would
    hide or invent violations."""
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tol must be finite and nonnegative, got {tol!r}")


TRIANGLE_BLOCK_ELEMENTS = 1 << 18

# Rounding margin of the min-plus pass, in units of max(1, d(i, k)): see
# `_triangle_rows`.
_TRIANGLE_MARGIN = 8 * np.finfo(float).eps
_HALF_MAX = np.finfo(float).max / 2


def _triangle_limit(dik, tol: float, relative: bool):
    """The excess a triple (i, j, k) may reach: ``tol`` times max(1, d(i, k))
    when ``relative``, else ``tol``."""
    return tol * np.maximum(1.0, dik) if relative else tol


def _triangle_rows(d: np.ndarray, tol: float, relative: bool, upper: bool = False):
    """The rows i that one min-plus pass cannot clear, in increasing order.

    For each row the pass forms S(i, k) = min_j fl(d(i, j) + d(j, k)) with
    one add of row i onto blocks of the rows of d^T and one contiguous
    min-reduce, so about n^3 adds and mins (n^3 / 2 with ``upper``, where
    a block of rows from i0 looks only at the columns k > i0); it reads d
    itself when d is symmetric and a copy of d^T otherwise.  Blocks of
    rows and of columns k hold at most TRIANGLE_BLOCK_ELEMENTS sums, in
    one reused buffer, and the minima of about TRIANGLE_BLOCK_ELEMENTS / 8
    pairs are checked at a time, so the pass holds O(n^2) memory; a
    matrix that fits one block is done in a single add and min.  Row i is
    cleared when every pair (i, k) it looks at has
    fl(d(i, k) - S(i, k)) <= fl(L - m), with L = `_triangle_limit` of
    d(i, k) and the margin m = 8 eps max(1, d(i, k)).

    A cleared pair has fl(fl(a - b) - c) <= L for every j, where that is
    the excess `_triangle_blocks` computes, a = d(i, k), b = d(i, j) and
    c = d(j, k).  Proof, for nonnegative entries at most half the largest
    float, with u = eps / 2 and each sum or difference within u of its
    magnitude (they never underflow inexactly): if fl(fl(a - b) - c) > L
    >= 0 then fl(a - b) > c, so b < a, c < a and b + c < 2a.  Its two
    roundings then move a - b - c by at most 2u a, and the two of
    D = fl(a - fl(b + c)) by at most 4u a, so D > L - 6u a.  As
    S(i, k) <= fl(b + c), fl(a - S) >= D; and L < a gives
    fl(L - m) <= L - m + u max(1, a) = L - 15u max(1, a).  So
    fl(a - S) > fl(L - m) and the pair is not cleared: every row holding
    an excess above L is returned.

    Every row is returned without a pass for a matrix with a negative entry
    or one above half the largest float, for a ``tol`` below the margin's
    8 eps (no pair of a zero-diagonal matrix can clear: j = i gives
    S = d(i, k)), and for n^3 <= TRIANGLE_BLOCK_ELEMENTS / 8 (n <= 32):
    there the exact scan is one block, and the pass's fixed cost of some
    fifteen array calls is more than it saves (on 2 CPUs, the pass made
    `glue` of 16 and 24 points 1.8 times slower, and the triangle check
    of 40 points 2 to 3 times faster).
    """
    n = d.shape[0]
    every = np.arange(n)
    if (n ** 3 <= TRIANGLE_BLOCK_ELEMENTS // 8 or tol < _TRIANGLE_MARGIN
            or d.min() < 0 or d.max() > _HALF_MAX):
        return every
    dt = d if np.array_equal(d, d.T) else np.ascontiguousarray(d.T)
    step = max(1, TRIANGLE_BLOCK_ELEMENTS // (n * n))
    width = n if step > 1 else max(1, TRIANGLE_BLOCK_ELEMENTS // n)
    batch = max(step, TRIANGLE_BLOCK_ELEMENTS // (8 * n))
    sums_buf = np.empty(min(step, n) * min(width, n) * n)
    mins = np.empty((min(batch, n), n))
    held = np.zeros(n, dtype=bool)
    for b0 in range(0, n, batch):
        rows = d[b0: b0 + batch]
        got = mins[: len(rows)]
        got.fill(np.inf)  # the columns k <= i0 that ``upper`` skips stay cleared
        for i0 in range(b0, b0 + len(rows), step):
            part = d[i0: min(i0 + step, b0 + len(rows))]
            for k0 in range(i0 + 1 if upper else 0, n, width):
                cols = dt[k0: k0 + width]
                sums = sums_buf[: len(part) * len(cols) * n].reshape(len(part), len(cols), n)
                np.add(part[:, None, :], cols[None, :, :], out=sums)
                sums.min(axis=2, out=got[i0 - b0: i0 - b0 + len(part), k0: k0 + len(cols)])
        scale = np.maximum(1.0, rows)
        slack = _triangle_limit(rows, tol, relative) - _TRIANGLE_MARGIN * scale
        held[b0: b0 + len(rows)] = (rows - got > slack).any(axis=1)
    return every[held]


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min_j a[i, j] + b[j, k], over blocks of j of at most
    TRIANGLE_BLOCK_ELEMENTS sums (one j at least): the floats of one
    (i, j, k) stack's min in O(N_i N_k) memory."""
    n, m = a.shape[0], b.shape[1]
    step = max(1, TRIANGLE_BLOCK_ELEMENTS // max(1, n * m))
    out = np.full((n, m), np.inf)
    for j0 in range(0, a.shape[1], step):
        sums = a[:, j0: j0 + step, None] + b[None, j0: j0 + step, :]
        np.minimum(out, sums.min(axis=1), out=out)
    return out


def _triangle_blocks(d: np.ndarray, upper: bool = False, rows=None):
    """Yield ``(idx, excess)`` with ``excess[a, j, k] = d(i, k) - d(i, j) - d(j, k)``
    for i = idx[a], over the rows ``rows`` (default: all), in increasing i.

    The rows come in blocks of at most TRIANGLE_BLOCK_ELEMENTS entries (one
    row at least), so a scan over all triples holds O(n^2) memory; a space
    that fits one block is done in a single pass.  C-order scans of the
    blocks in turn see the triples in the order of the full n^3 tensor.
    With ``upper`` a block holds only the columns k > idx[0], so
    ``excess[a, j, c]`` is the entry of k = idx[0] + 1 + c, with the same
    operands and value.  Yields nothing for n < 3.
    """
    n = d.shape[0]
    if n < 3:
        return
    rows = np.arange(n) if rows is None else np.asarray(rows)
    step = max(1, TRIANGLE_BLOCK_ELEMENTS // (n * n))
    for b in range(0, len(rows), step):
        idx = rows[b: b + step]
        block = d[idx]
        k0 = int(idx[0]) + 1 if upper else 0
        yield idx, block[:, None, k0:] - block[:, :, None] - d[None, :, k0:]


def _triangles(d: np.ndarray, tol: float) -> list:
    """``triangle`` Violations for the triples (i, j, k), i < k and j outside
    {i, k}, whose excess d(i,k) - d(i,j) - d(j,k) passes the relative limit,
    in (i, j, k) order and listed by `_listed`.  Each block of rows is
    counted and searched in numpy, and only the first VIOLATIONS_LISTED
    triples and the first of largest excess are kept, so a space that
    violates every triangle costs no Python work per triple."""
    found: list = []  # (triple, excess)
    total, worst = 0, None

    def triple(idx, i0, shape, flat, h):
        a, j, c = np.unravel_index(h, shape)
        return (int(idx[a]), int(j), i0 + 1 + int(c)), float(flat[h])

    # only i < k is reported, so each block skips the columns k <= idx[0]
    rows = _triangle_rows(d, tol, relative=True, upper=True)
    for idx, excess in _triangle_blocks(d, upper=True, rows=rows):
        i0 = int(idx[0])
        ks = np.arange(i0 + 1, d.shape[0])
        mask = excess > _triangle_limit(d[idx, i0 + 1:], tol, True)[:, None, :]
        mask &= (idx[:, None] < ks)[:, None, :]  # a later row of the block sees k <= i
        mask[np.arange(len(idx)), idx] = False  # j = i
        mask[:, ks, np.arange(len(ks))] = False  # j = k
        hits = np.flatnonzero(mask)
        if not hits.size:
            continue
        total += hits.size
        flat = excess.reshape(-1)
        found += [triple(idx, i0, mask.shape, flat, h)
                  for h in hits[: VIOLATIONS_LISTED - len(found)].tolist()]
        best = int(hits[np.argmax(flat[hits])])
        if worst is None or flat[best] > worst[1]:
            worst = triple(idx, i0, mask.shape, flat, best)
    found += [worst] * (worst is not None)
    return _listed("triangle", [t for t, _ in found], np.array([e for _, e in found]),
                   lambda at, e: f"triangle violation ({at[0]},{at[1]},{at[2]}), excess {e:g}",
                   "triples violate the triangle inequality", total)


def validate(space: FiniteMmmSpace, tol: float = 1e-12) -> ValidationReport:
    """Check the metric-measure invariants and report every violation.

    Checks, in order: finite distances and weights, zero diagonal,
    symmetry, nonnegativity, triangle inequality (excess measured relative
    to max(1, d(i,k)) at tolerance ``tol``), weight nonnegativity, total
    weight within ``tol`` of 1, marks inside the mark space, and unmerged
    duplicates (distinct points at distance <= tol carrying equal marks,
    which canonicalize would merge).  Non-finite entries are reported as
    ``non-finite`` and end the check, since no other invariant means
    anything on them.

    Triangles: one min-plus pass (`_triangle_rows`, about n^3 / 2 adds and
    as many mins) clears every row i whose pairs k > i provably hold no
    excess above the limit, and only the rows it cannot clear get the
    exact excesses d(i,k) - d(i,j) - d(j,k) in blocks of the first index
    (`_triangle_blocks`), so the report is the one a scan of every triple
    gives.  Rows with a triple near or above the limit go to the exact
    scan, which costs about twice the pass per row; a ``tol`` below 8 eps
    (``tol=0``, say), a negative entry and n <= 32 send every row there
    without a pass.  Memory is O(n^2).

    Every kind is listed by one rule (`_listed`): its first
    VIOLATIONS_LISTED = 100 in index order, then its first one of largest
    magnitude if it is not among them, then, if there are more, one entry
    with no indices giving the count.  Equal marks are found through
    their codes (`_mark_codes`), so no kind costs Python work per pair.

    Returns a ValidationReport: a fault in the space is reported, never
    raised.  A ``tol`` that is NaN, negative or infinite raises
    ParameterError, since it would hide or invent violations.
    """
    _require_tol(tol)
    d = space.distances
    w = space.weights
    out: list[Violation] = _non_finite(space)
    if out:
        return ValidationReport(tuple(out))

    diag = np.diagonal(d)
    bad = np.flatnonzero(diag != 0.0)
    out += _listed("diagonal", bad[:, None], diag[bad], lambda at, _: f"d({at[0]},{at[0]}) != 0",
                   "diagonal entries are not 0")

    # |d - d^T| > tol * max(1, |d|), computed in place: two n^2 arrays
    gap, limit = d - d.T, np.abs(d)
    np.abs(gap, out=gap)
    np.maximum(limit, 1.0, out=limit)
    limit *= tol
    asym = np.argwhere(np.triu(gap > limit, 1))
    out += _listed("asymmetry", asym, gap[tuple(asym.T)],
                   lambda at, _: f"d({at[0]},{at[1]}) != d({at[1]},{at[0]})",
                   "pairs are asymmetric")
    del gap, limit

    neg = np.argwhere(np.triu(d < -0.0))
    out += _listed("negativity", neg, d[tuple(neg.T)],
                   lambda at, _: f"negativity at ({at[0]},{at[1]})", "entries are negative")

    out += _triangles(d, tol)

    bad = np.flatnonzero(w < 0)
    out += _listed("weight-negative", bad[:, None], w[bad], lambda at, _: f"weight {at[0]} < 0",
                   "weights are negative")
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > tol:
        out.append(Violation("weight-sum", (), float(total - 1.0), f"weights sum to {total!r}"))

    bad = np.array([i for i, mk in enumerate(space.marks) if not space.mark_space.contains(mk)],
                   dtype=np.intp)
    out += _listed("mark-invalid", bad[:, None], np.zeros(len(bad)),
                   lambda at, _: f"mark at {at[0]} outside mark space",
                   "marks are outside the mark space")

    codes = _mark_codes(space.marks)[0]
    dup = np.argwhere(np.triu(d <= tol, 1) & (codes[:, None] == codes[None, :]))
    out += _listed("duplicate-points", dup, d[tuple(dup.T)],
                   lambda at, _: f"points {at[0]},{at[1]} at distance 0 share a mark",
                   "pairs of points at distance 0 share a mark")

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkFunctionInput:
    """A metric measure space plus a mark function kappa on its points."""

    distances: np.ndarray
    weights: np.ndarray
    kappa: Mapping | Callable


def from_mark_function(inp: MarkFunctionInput, mark_space: MarkSpace) -> FiniteMmmSpace:
    """Attach marks to a plain metric measure space via kappa.

    kappa may be a mapping or a callable on point indices.  It must be
    defined at every index with positive weight; indices with zero weight
    and no kappa value get a filler mark (first label, or the origin),
    which canonicalize removes along with the point.
    """
    w = np.asarray(inp.weights, dtype=float)
    if mark_space.kind == "discrete":
        filler = mark_space.labels[0]
    else:
        filler = tuple(0.0 for _ in range(mark_space.dim))

    def lookup(i: int):
        if callable(inp.kappa):
            return inp.kappa(i)
        return inp.kappa[i]

    marks = []
    for i in range(len(w)):
        try:
            marks.append(lookup(i))
        except (KeyError, IndexError):
            if w[i] > 0:
                raise ParameterError(
                    f"mark function undefined at index {i} with positive weight"
                ) from None
            marks.append(filler)
    return FiniteMmmSpace(
        distances=inp.distances, marks=tuple(marks), weights=w, mark_space=mark_space
    )


def canonicalize(space: FiniteMmmSpace) -> FiniteMmmSpace:
    """Quotient representative: drop zero-weight points, merge duplicates.

    Points at mutual distance 0 carrying equal marks are merged (weights
    summed with fsum); points with weight 0 are dropped.  One array pass
    finds the kept pairs i < j with d[i, j] <= 0, in row-major order, and
    joins those with equal marks: memory is O(N^2) in the point count N.
    The sampled distance-matrix law is unchanged.  Idempotent.
    """
    w = space.weights
    keep = np.flatnonzero(w > 0)
    parent = list(range(space.n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    zero = np.argwhere(np.triu(space.distances[np.ix_(keep, keep)] <= 0.0, 1))
    for i, j in keep[zero].tolist():
        if space.marks[i] == space.marks[j]:
            parent[find(j)] = find(i)

    groups: dict[int, list[int]] = {}
    for i in keep.tolist():
        groups.setdefault(find(i), []).append(i)
    reps = sorted(groups)
    new_w = [math.fsum(float(w[j]) for j in groups[r]) for r in reps]
    return FiniteMmmSpace(
        distances=space.distances[np.ix_(reps, reps)],
        marks=tuple(space.marks[r] for r in reps),
        weights=np.array(new_w),
        mark_space=space.mark_space,
        label=space.label,
    )


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

CANONICAL_NODE_BOUND = 2000


def _initial_colour(marks, weights: np.ndarray) -> np.ndarray:
    """The ranks of (repr(mark), weight): the colouring `_refine` starts from."""
    keys = [(repr(m), w) for m, w in zip(marks, weights.tolist())]
    rank = {k: t for t, k in enumerate(sorted(set(keys)))}
    return np.array([rank[k] for k in keys], dtype=np.int64)


def _refine(d: np.ndarray, colour: np.ndarray) -> np.ndarray:
    """``colour`` refined by the rows of d until stable, in O(n^2) memory.
    Each round sorts every row's n - 1 off-diagonal pairs (d[i, j],
    colour[j]) by distance, then colour, puts the atom's own colour in
    front, and dense-ranks the rows lexicographically, so every cell splits
    in its own place; it stops when the number of colours stops growing."""
    n = len(colour)
    if n < 2:
        return colour
    groups = len(np.unique(colour))
    off = ~np.eye(n, dtype=bool)
    dist = d[off].reshape(n, n - 1)
    others = np.broadcast_to(np.arange(n), (n, n))[off].reshape(n, n - 1)
    rows = np.empty((n, 2 * n - 1))
    for _ in range(n):
        near = np.lexsort((colour[others], dist))
        rows[:, 0] = colour
        rows[:, 1::2] = np.take_along_axis(dist, near, axis=1)
        rows[:, 2::2] = colour[np.take_along_axis(others, near, axis=1)]
        # lexsort's last key is its primary one: column 0 goes last
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        colour = np.empty(n, dtype=np.int64)
        colour[order] = np.concatenate(([0], np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1))))
        new_groups = int(colour[order[-1]]) + 1
        if new_groups == groups:
            break
        groups = new_groups
    return colour


def _target_cell(d: np.ndarray, colour: np.ndarray):
    """The atoms of the first smallest cell of the dense colouring ``colour``
    with two atoms that are not twins, or None, in O(n^2) work.  Twins
    share their diagonal entry and their distances to and from each atom
    outside the cell, and a cell of twins has one distance inside: every
    order of it gives the same relabelled matrix."""
    order = np.argsort(colour, kind="stable")
    size = np.bincount(colour)
    start = np.cumsum(size) - size
    first, second = order[start][colour], order[np.minimum(start + 1, len(d) - 1)][colour]
    same = colour[:, None] == colour[None, :]
    np.fill_diagonal(same, False)
    apart = np.where(same, d != d[first, second][:, None], (d != d[first]) | (d.T != d.T[first]))
    np.fill_diagonal(apart, np.diagonal(d) != np.diagonal(d)[first])
    split = (size > 1) & (np.bincount(colour, weights=apart.any(axis=1), minlength=len(size)) > 0)
    if not split.any():
        return None
    c = np.flatnonzero(split)[np.argmin(size[split])]
    return order[start[c]: start[c] + size[c]]


def _canonical_order(d: np.ndarray, colour: np.ndarray) -> np.ndarray:
    """The order whose relabelled matrix d[order][:, order] has the least
    bytes among the leaves of an individualization-refinement search
    (McKay and Piperno, "Practical graph isomorphism, II", J. Symbolic
    Comput. 2014).  A node refines its colouring (`_refine`); each atom u
    of its `_target_cell` gives a child whose colouring puts u first in
    that cell, and a node with none is a leaf, in colour order.  Two
    byte-equal leaves give an automorphism.  A child is skipped when its
    atom is in the orbit of one already tried under the automorphisms that
    fix the node's path, and a leaf equal to the first one ends the search
    below the node where their paths part: the automorphism maps a
    searched subtree onto each one skipped.  Raises TooLargeError past
    CANONICAL_NODE_BOUND nodes.
    """
    n, nodes, path = len(colour), 0, ()
    autos, frames = [], []  # frames[k]: path, colouring, target cell and tried atoms at depth k
    first = best = None  # leaves as (matrix bytes, order, path)
    while True:
        nodes += 1
        if nodes > CANONICAL_NODE_BOUND:
            raise TooLargeError(f"canonical order search passed its budget of "
                                f"{CANONICAL_NODE_BOUND} nodes on {n} atoms")
        colour = _refine(d, colour)
        cell = _target_cell(d, colour)
        if cell is not None:
            frames.append((path, colour, cell.tolist(), []))
        else:
            order = np.argsort(colour, kind="stable")
            form = d[np.ix_(order, order)].tobytes()
            seen = next((leaf for leaf in (first, best) if leaf and leaf[0] == form), None)
            if seen:
                autos.append(np.empty(n, dtype=np.intp))
                autos[-1][seen[1]] = order
                if seen is first:  # back to the node where the two paths part
                    part = next(k for k, (u, v) in enumerate(zip(path, first[2])) if u != v)
                    del frames[part + 1:]
            elif best is None or form < best[0]:
                best = (form, order, path)
            first = first or best
        while frames:  # the next child to search, depth first
            path, colour, cell, tried = frames[-1]
            fixing = [g for g in autos if (g[list(path)] == path).all()]
            orbit, last = np.arange(n), None  # the least atom of each orbit
            while last is None or not np.array_equal(orbit, last):
                last = orbit
                for g in fixing:
                    orbit = np.minimum(orbit, orbit[g])
            done = {orbit[t] for t in tried}
            u = next((u for u in cell if orbit[u] not in done), None)
            if u is not None:
                break
            frames.pop()
        else:
            return best[1]
        tried.append(u)
        colour, path = 2 * colour + 1, path + (u,)
        colour[u] -= 1


def _canonical_form(space: FiniteMmmSpace) -> FiniteMmmSpace:
    """``canonicalize(space)`` in `_canonical_order`, with -0.0 distances
    and Euclidean mark coordinates read as 0.0: spaces on one mark space
    are equivalent exactly when their forms have equal `_form_key`."""
    space = canonicalize(space)
    d = space.distances + 0.0  # -0.0 + 0.0 is 0.0
    marks = space.marks
    if space.mark_space.kind == "euclidean":
        marks = tuple(tuple(x + 0.0 for x in m) for m in marks)
    order = _canonical_order(d, _initial_colour(marks, space.weights))
    return replace(space, distances=d[np.ix_(order, order)], weights=space.weights[order],
                   marks=tuple(marks[i] for i in order))


def _form_key(form: FiniteMmmSpace) -> tuple:
    """Marks by repr, then weight bytes, then distance bytes."""
    return tuple(map(repr, form.marks)), form.weights.tobytes(), form.distances.tobytes()


def is_equivalent_exact(a: FiniteMmmSpace, b: FiniteMmmSpace) -> bool:
    """Decide equality of two spaces up to mark-preserving isometry.

    The two canonical forms are compared bit for bit (`_canonical_form`,
    `_form_key`), in O(n^2) memory.  Raises TooLargeError when the
    canonical order search passes CANONICAL_NODE_BOUND nodes, and
    ParameterError for spaces without positive total weight or with
    NaN/inf entries.
    """
    _require_finite(a, b)
    for space in (a, b):
        _weight_total(space)
    return (a.mark_space == b.mark_space
            and _form_key(_canonical_form(a)) == _form_key(_canonical_form(b)))


# ---------------------------------------------------------------------------
# empirical spaces
# ---------------------------------------------------------------------------

def _sample_indices(space: FiniteMmmSpace, size, seed) -> np.ndarray:
    """Atom indices drawn iid from the weights: bit for bit, and in dtype
    and shape, ``default_rng(seed).choice(space.n, size, p=w / fsum(w))``
    (a Generator ``seed`` is used as is and left where choice leaves it).

    As choice does, cdf = cumsum(w / fsum(w)) / its last entry, u =
    ``rng.random(size)``, and a draw is the count of cdf entries <= u.
    With at least as many draws as k >= 4N buckets, k a power of two, a
    guide table (Chen and Asau 1974) replaces choice's search per draw:
    b = floor(u k) and b / k are exact, so b / k <= u < (b + 1) / k.
    lo[b] counts the entries <= b / k, and when bucket b, the interval
    (b / k, (b + 1) / k], holds at most one entry, the count is lo[b] +
    (cdf[lo[b]] <= u); cdf[-1] = 1 > u keeps lo[b] <= N - 1.  Draws in a
    bucket that holds two or more entries, and all draws when they are
    fewer than the buckets, are searched as choice searches them.  NaN/inf
    distances, weights or marks and negative weights raise ParameterError.
    """
    _require_nonnegative(space)
    cdf = np.cumsum(space.weights / _weight_total(space))
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(size)
    k = 4 << (space.n - 1).bit_length()
    if u.size < k:
        return cdf.searchsorted(u, "right")
    lo = cdf.searchsorted(np.arange(k + 1) / k, "right")
    b = (u * k).astype(np.intp)
    idx = lo[b] + (u >= cdf[lo[:-1]][b])
    crowded = np.diff(lo) > 1
    if crowded.any():
        searched = crowded[b]
        idx[searched] = cdf.searchsorted(u[searched], "right")
    return idx


def empirical_from_samples(space: FiniteMmmSpace, n: int, seed: int) -> FiniteMmmSpace:
    """Empirical space: n iid points from the space, weight k/n on an atom drawn k times.

    The distinct atoms, in order of first draw, carry their draw counts;
    `canonicalize` merges them, and the counts are scaled by 1/n.  Memory
    is O(N^2) in the space's point count N, not in n.  The result always
    passes validate.  Deterministic per seed.
    """
    if n < 1:
        raise ParameterError("need at least one sample point")
    idx = _sample_indices(space, n, seed)
    _, first, counts = np.unique(idx, return_index=True, return_counts=True)
    order = np.argsort(first)
    atoms = idx[first[order]]
    counted = canonicalize(
        FiniteMmmSpace(
            distances=space.distances[np.ix_(atoms, atoms)],
            marks=tuple(space.marks[i] for i in atoms),
            weights=counts[order].astype(float),
            mark_space=space.mark_space,
            label=f"{space.label or 'space'}-emp{n}-seed{seed}",
        )
    )
    return replace(counted, weights=counted.weights * (1.0 / n))
