"""Finite marked metric measure spaces.

A space is a finite pseudo-metric on N points together with a probability
weight and a mark for every point; marks live in a fixed complete separable
mark space (a finite label set with the 0/1 metric, or R^d with the
Euclidean metric).  Two spaces are the same object exactly when a
measure-preserving, mark-preserving isometry maps one support onto the
other; `canonicalize` produces the quotient representative and
`is_equivalent_exact` decides equality for small spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _non_finite(space: FiniteMmmSpace) -> list:
    """A ``non-finite`` Violation per NaN/inf distance, then per weight."""
    d, w = space.distances, space.weights
    bad = [((int(i), int(j)), f"d({i},{j})", d[i, j])
           for i, j in np.argwhere(~np.isfinite(d))]
    bad += [((int(i),), f"weight {i}", w[i]) for i in np.flatnonzero(~np.isfinite(w))]
    return [Violation("non-finite", ix, 0.0, f"{name} = {float(x)!r} is not finite")
            for ix, name, x in bad]


def _weight_total(space: FiniteMmmSpace) -> float:
    """fsum of the weights; ParameterError unless it is positive."""
    total = math.fsum(space.weights.tolist())
    if not total > 0:
        raise ParameterError(f"space {space.label!r}: weights must have positive total")
    return total


def _require_finite(*spaces: FiniteMmmSpace) -> None:
    """Raise ParameterError naming the first non-finite distance or weight."""
    for space in spaces:
        bad = _non_finite(space)
        if bad:
            raise ParameterError(f"space {space.label!r}: {bad[0].message}")


TRIANGLE_BLOCK_ELEMENTS = 1 << 18


def _triangle_blocks(d: np.ndarray):
    """Yield ``(i0, excess)`` with ``excess[a, j, k] = d(i, k) - d(i, j) - d(j, k)``
    for i = i0 + a.

    The first index walks in blocks of at most TRIANGLE_BLOCK_ELEMENTS
    entries (one row of i at least), so a scan over all triples holds O(n^2)
    memory; a space that fits one block is done in a single pass.  Blocks
    come in increasing i, so C-order scans of the blocks in turn see the
    triples in the order of the full n^3 tensor.  Yields nothing for n < 3.
    """
    n = d.shape[0]
    if n < 3:
        return
    step = max(1, TRIANGLE_BLOCK_ELEMENTS // (n * n))
    for i0 in range(0, n, step):
        rows = d[i0: i0 + step]
        yield i0, rows[:, None, :] - rows[:, :, None] - d[None, :, :]


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

    Memory is O(n^2): triangles are scanned in blocks of the first index.

    Returns a ValidationReport; it never raises.
    """
    d = space.distances
    w = space.weights
    n = space.n
    out: list[Violation] = _non_finite(space)
    if out:
        return ValidationReport(tuple(out))

    for i in np.flatnonzero(np.diagonal(d) != 0.0):
        out.append(
            Violation("diagonal", (int(i),), float(d[i, i]), f"d({i},{i}) != 0")
        )

    asym = np.argwhere(np.abs(d - d.T) > tol * np.maximum(1.0, np.abs(d)))
    for i, j in asym:
        if i < j:
            out.append(
                Violation(
                    "asymmetry",
                    (int(i), int(j)),
                    float(abs(d[i, j] - d[j, i])),
                    f"d({i},{j}) != d({j},{i})",
                )
            )

    neg = np.argwhere(d < -0.0)
    for i, j in neg:
        if i <= j:
            out.append(
                Violation(
                    "negativity",
                    (int(i), int(j)),
                    float(d[i, j]),
                    f"negativity at ({i},{j})",
                )
            )

    limit = tol * np.maximum(1.0, d)
    for i0, excess in _triangle_blocks(d):
        aa, jj, kk = np.nonzero(excess > limit[i0: i0 + len(excess), None, :])
        for a, j, k in zip(aa.tolist(), jj.tolist(), kk.tolist()):
            i = i0 + a
            if i < k and j != i and j != k:
                out.append(
                    Violation(
                        "triangle",
                        (i, j, k),
                        float(excess[a, j, k]),
                        f"triangle violation ({i},{j},{k}), excess {excess[a, j, k]:g}",
                    )
                )

    for i in np.flatnonzero(w < 0):
        out.append(
            Violation("weight-negative", (int(i),), float(w[i]), f"weight {i} < 0")
        )
    total = math.fsum(w.tolist())
    if abs(total - 1.0) > tol:
        out.append(
            Violation(
                "weight-sum", (), float(total - 1.0), f"weights sum to {total!r}"
            )
        )

    for i in range(n):
        if not space.mark_space.contains(space.marks[i]):
            out.append(
                Violation("mark-invalid", (i,), 0.0, f"mark at {i} outside mark space")
            )

    for i, j in np.argwhere(np.triu(d <= tol, k=1)).tolist():
        if space.marks[i] == space.marks[j]:
            out.append(
                Violation(
                    "duplicate-points",
                    (i, j),
                    float(d[i, j]),
                    f"points {i},{j} at distance 0 share a mark",
                )
            )

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
    summed with fsum); points with weight 0 are dropped.  The sampled
    distance-matrix law is unchanged.  Idempotent: a second application
    returns an equal space.
    """
    w = space.weights
    keep = [i for i in range(space.n) if w[i] > 0]

    parent = {i: i for i in keep}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d = space.distances
    for a in range(len(keep)):
        i = keep[a]
        for b in range(a + 1, len(keep)):
            j = keep[b]
            if d[i, j] <= 0.0 and space.marks[i] == space.marks[j]:
                parent[find(j)] = find(i)

    groups: dict[int, list[int]] = {}
    for i in keep:
        groups.setdefault(find(i), []).append(i)
    reps = sorted(groups)
    new_w = [math.fsum(float(w[j]) for j in groups[r]) for r in reps]
    sub = d[np.ix_(reps, reps)]
    return FiniteMmmSpace(
        distances=sub,
        marks=tuple(space.marks[r] for r in reps),
        weights=np.array(new_w),
        mark_space=space.mark_space,
        label=space.label,
    )


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

EXACT_SEARCH_BOUND = 10


def _find_isometry(a: FiniteMmmSpace, b: FiniteMmmSpace, atol: float):
    """Backtracking search for a mark/weight/distance-preserving bijection.

    Returns the permutation phi with b ~ a relabeled by phi, or None.
    Inputs must already be canonical and of equal size.
    """
    n = a.n
    if n != b.n:
        return None
    da, db = a.distances, b.distances
    wa, wb = a.weights, b.weights

    candidates = []
    for i in range(n):
        cs = [
            j
            for j in range(n)
            if a.marks[i] == b.marks[j] and abs(wa[i] - wb[j]) <= atol
        ]
        if not cs:
            return None
        candidates.append(cs)

    order = sorted(range(n), key=lambda i: len(candidates[i]))
    assign = [-1] * n
    used = [False] * n

    def extend(depth: int):
        if depth == n:
            return True
        i = order[depth]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for d2 in range(depth):
                i2 = order[d2]
                if abs(da[i, i2] - db[j, assign[i2]]) > atol:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if extend(depth + 1):
                    return True
                assign[i] = -1
                used[j] = False
        return False

    if extend(0):
        return tuple(assign)
    return None


def is_equivalent_exact(
    a: FiniteMmmSpace, b: FiniteMmmSpace, atol: float = 1e-12
) -> bool:
    """Decide equality of two small spaces up to mark-preserving isometry.

    Both inputs are canonicalized first.  The search looks for a bijection
    matching marks exactly and weights/distances within ``atol``
    (relabeled copies match bit-for-bit; the tolerance only absorbs
    merge-order float noise).  Raises TooLargeError beyond 10 points; use
    the statistical two-sample test for larger spaces.  Spaces without
    positive total weight raise ParameterError.
    """
    for space in (a, b):
        _weight_total(space)
    a = canonicalize(a)
    b = canonicalize(b)
    if max(a.n, b.n) > EXACT_SEARCH_BOUND:
        raise TooLargeError(
            f"exact equivalence search is limited to {EXACT_SEARCH_BOUND} points; "
            "use stats.two_sample_test for larger spaces"
        )
    if a.n != b.n or a.mark_space != b.mark_space:
        return False
    if sorted(a.marks, key=repr) != sorted(b.marks, key=repr):
        return False
    if np.abs(np.sort(a.weights) - np.sort(b.weights)).max() > atol:
        return False
    return _find_isometry(a, b, atol) is not None


# ---------------------------------------------------------------------------
# empirical spaces
# ---------------------------------------------------------------------------

def _sample_indices(space: FiniteMmmSpace, size, seed) -> np.ndarray:
    """Atom indices drawn iid from the weights (a Generator ``seed`` is used as is)."""
    p = space.weights / _weight_total(space)
    return np.random.default_rng(seed).choice(space.n, size=size, p=p)


def empirical_from_samples(space: FiniteMmmSpace, n: int, seed: int) -> FiniteMmmSpace:
    """Empirical space: n iid points from the space, uniform weights 1/n.

    Repeated atoms merge under canonicalization, so the result carries
    weight k/n on an atom drawn k times, and always passes validate.
    Deterministic per seed.
    """
    if n < 1:
        raise ParameterError("need at least one sample point")
    idx = _sample_indices(space, n, seed)
    sub = space.distances[np.ix_(idx, idx)]
    marks = tuple(space.marks[i] for i in idx)
    base = space.label if space.label else "space"
    return canonicalize(
        FiniteMmmSpace(
            distances=sub,
            marks=marks,
            weights=np.full(n, 1.0 / n),
            mark_space=space.mark_space,
            label=f"{base}-emp{n}-seed{seed}",
        )
    )
