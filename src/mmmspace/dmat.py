"""Marked distance matrix distributions.

Sampling n points iid from a space induces a law on (distance matrix,
marks) pairs; this module draws from that law, enumerates it exactly for
finite spaces, and implements the index operations (injective relabeling
and the shift onto fresh indices) that make the polynomial algebra work.

Exactness: every IEEE weight is a dyadic rational, so w_i = M_i / Q with
integer mantissas M_i over one power of two Q.  An atom's probability in
`exact_law` is then (sum over its tuples of prod M) / (sum M)^n, summed in
integers with one Fraction per atom, so permutation invariance and shift
consistency hold as algebraic identities, not merely within float
tolerance.  Beyond EXACT_TUPLE_LIMIT enumerated tuples the law switches to
float probabilities built from order-independent primitives (sorted-factor
products, exactly rounded sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    FiniteMmmSpace, MarkSpace, _require_finite, _sample_indices, _weight_total,
    canonicalize,
)
from .errors import BudgetError, ParameterError

__all__ = [
    "DistanceMatrixSample",
    "DistanceMatrixLaw",
    "sample",
    "sample_many",
    "exact_law",
    "laws_equal",
    "law_push",
    "law_shift",
    "pair_distance_law",
    "project_mm",
    "mark_marginal",
    "permute",
    "shift",
]

ENUM_BUDGET = 10_000_000
EXACT_TUPLE_LIMIT = 200_000
EXACT_LAW_CHUNK = 1_000_000
KEY_SIG_DIGITS = 12
MAX_DECIMAL_EXPONENT = math.floor(math.log10(np.finfo(float).max))


def round_sig(x, sig: int = KEY_SIG_DIGITS):
    """Round to ``sig`` significant digits (vectorized; grouping key only).

    Below 10^(sig - 309) (1e-297 at 12 digits) the scale 10^dec overflows a
    float, so those values are rounded through their decimal repr instead.
    """
    arr = np.asarray(x, dtype=float)
    out = arr.copy()
    nz = (arr != 0) & np.isfinite(arr)
    vals = arr[nz]
    # in place, so that the temporaries of a large key array stay few
    dec = np.log10(np.abs(vals))
    np.subtract(sig - 1, np.floor(dec, out=dec), out=dec)
    tiny = dec > MAX_DECIMAL_EXPONENT
    scale = np.power(10.0, np.minimum(dec, MAX_DECIMAL_EXPONENT, out=dec), out=dec)
    keys = np.multiply(vals, scale, out=vals)
    np.divide(np.round(keys, out=keys), scale, out=keys)
    if tiny.any():
        keys[tiny] = [float(f"{v:.{sig - 1}e}") for v in arr[nz][tiny].tolist()]
    out[nz] = keys
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True, eq=False)
class DistanceMatrixSample:
    """One draw: an order-n distance matrix block plus the n marks."""

    order: int
    dist: np.ndarray
    marks: tuple

    def __post_init__(self):
        d = np.array(self.dist, dtype=float)
        d.flags.writeable = False
        if d.shape != (self.order, self.order):
            raise ParameterError("dist block shape must be (order, order)")
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "marks", tuple(self.marks))

    def key(self) -> tuple:
        """Aggregation key: 12-significant-digit distances, exact marks.

        Computed on first use and kept (the sample is immutable)."""
        key = self.__dict__.get("_key")
        if key is None:
            tri = round_sig(self.dist[np.triu_indices(self.order, 1)]).tolist()
            key = (tuple(tri), self.marks)
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceMatrixSample):
            return NotImplemented
        return self.order == other.order and self.key() == other.key()


@dataclass(frozen=True)
class DistanceMatrixLaw:
    """Finite law of (distance block, marks): atoms sorted by key."""

    order: int
    samples: tuple
    probs: tuple
    exact: bool

    @property
    def atoms(self) -> tuple:
        return tuple(zip(self.samples, self.probs))

    def total(self):
        if self.exact:
            return sum(self.probs, Fraction(0))
        return math.fsum(self.probs)

    def prob_of(self, sample: DistanceMatrixSample):
        k = sample.key()
        for s, p in zip(self.samples, self.probs):
            if s.key() == k:
                return p
        return Fraction(0) if self.exact else 0.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _make_sample(space: FiniteMmmSpace, idx: np.ndarray) -> DistanceMatrixSample:
    return DistanceMatrixSample(
        order=len(idx),
        dist=space.distances[np.ix_(idx, idx)],
        marks=tuple(space.marks[i] for i in idx),
    )


def sample(space: FiniteMmmSpace, n: int, seed: int) -> DistanceMatrixSample:
    """Draw one order-n sample from the distance matrix law (per-seed deterministic)."""
    if n < 1:
        raise ParameterError("order must be >= 1")
    return _make_sample(space, _sample_indices(space, n, seed))


def sample_many(space: FiniteMmmSpace, n: int, m: int, seed: int) -> list:
    """Draw m independent order-n samples from one seeded stream."""
    idx = _sample_indices(space, (m, n), seed)
    return [_make_sample(space, row) for row in idx]


# ---------------------------------------------------------------------------
# exact law
# ---------------------------------------------------------------------------

def _mantissas(w: np.ndarray) -> tuple[np.ndarray, int]:
    """Integers M (an object array) and Q with w_i = M_i / Q exactly: Q is the
    largest denominator of ``float.as_integer_ratio``, all powers of two."""
    ratios = [float(x).as_integer_ratio() for x in w]
    q = max(den for _, den in ratios)
    return np.array([num * (q // den) for num, den in ratios], dtype=object), q


def _group_sums(values: np.ndarray, groups: np.ndarray, count: int) -> np.ndarray:
    """Sum ``values`` by group id with np.add.reduceat (exact on Python ints)."""
    order = np.argsort(groups, kind="stable")
    starts = np.searchsorted(groups[order], np.arange(count))
    return np.add.reduceat(values[order], starts)


def exact_law(
    space: FiniteMmmSpace,
    n: int,
    budget: int = ENUM_BUDGET,
    exact: bool | None = None,
) -> DistanceMatrixLaw:
    """Enumerate the order-n distance matrix law of a finite space.

    Parameters
    ----------
    space : FiniteMmmSpace
    n : int
        Sample order; N^n index tuples are enumerated.
    budget : int
        Hard cap on N^n (default 10^7); BudgetError beyond it.
    exact : bool, optional
        Force rational (True) or float (False) probabilities.  Default:
        rational when N^n <= 200000.

    Returns
    -------
    DistanceMatrixLaw
        Atoms aggregated by (distances rounded to 12 significant digits,
        exact mark tuple), sorted by key, each represented by its first
        tuple; probabilities normalized by (sum of weights)^n and summing to
        exactly 1 in the rational case.  Chunks of EXACT_LAW_CHUNK tuples
        are grouped by one ``np.unique`` each, and merged by one more.
        NaN/inf entries and a nonpositive total weight raise ParameterError.
    """
    if n < 1:
        raise ParameterError("order must be >= 1")
    N = space.n
    K = N ** n
    if K > budget:
        raise BudgetError(f"enumeration needs {K} tuples, budget is {budget}")
    _require_finite(space)
    _weight_total(space)
    if exact is None:
        exact = K <= EXACT_TUPLE_LIMIT

    D, w = space.distances, space.weights
    mantissas, q = _mantissas(w)
    seen: dict = {}  # shared mark values share ids
    mark_ids = np.array([seen.setdefault(mk, len(seen)) for mk in space.marks], dtype=float)
    rows, cols = np.triu_indices(n, 1)
    radix = N ** np.arange(n - 1, -1, -1, dtype=np.int64)

    chunk_keys, chunk_reps, chunk_sums = [], [], []
    for start in range(0, K, EXACT_LAW_CHUNK):
        base = np.arange(start, min(start + EXACT_LAW_CHUNK, K), dtype=np.int64)
        idx = base[:, None] // radix % N
        keymat = np.column_stack([round_sig(D[idx[:, rows], idx[:, cols]]), mark_ids[idx]])
        uniq, firsts, inverse = np.unique(
            keymat, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        if exact:
            prods = np.prod(mantissas[idx], axis=1)
            chunk_sums.append(_group_sums(prods, inverse, len(uniq)))
        else:
            prods = np.prod(w[np.sort(idx, axis=1)], axis=1)
            chunk_sums.append(np.bincount(inverse, weights=prods, minlength=len(uniq)))
        chunk_keys.append(uniq)
        chunk_reps.append(idx[firsts])

    keymat, reps, sums = chunk_keys[0], chunk_reps[0], chunk_sums[0]
    if len(chunk_keys) > 1:
        # A key occurs at most once per chunk and the chunks follow the
        # enumeration, so first occurrences hold the first tuples.  Chunk
        # sums add exactly, so float sums are rounded once, as by fsum.
        keymat, firsts, inverse = np.unique(
            np.concatenate(chunk_keys), axis=0, return_index=True, return_inverse=True
        )
        reps = np.concatenate(chunk_reps)[firsts]
        parts = np.concatenate(chunk_sums)
        if not exact:
            parts = np.array([Fraction(x) for x in parts], dtype=object)
        sums = _group_sums(parts, inverse.reshape(-1), len(keymat))

    total_m = int(sum(mantissas))
    if exact:
        norm = total_m ** n
        probs = [Fraction(int(x), norm) for x in sums]
    else:
        norm = float(Fraction(total_m, q) ** n)
        probs = [float(x) / norm for x in sums]
    blocks = D[reps[:, :, None], reps[:, None, :]]
    tris = keymat[:, : len(rows)].tolist()
    marks = space.marks
    entries = []
    for block, rep, tri, p in zip(blocks, reps.tolist(), tris, probs):
        smp = DistanceMatrixSample(order=n, dist=block, marks=tuple(marks[i] for i in rep))
        object.__setattr__(smp, "_key", (tuple(tri), smp.marks))
        entries.append((repr(smp.key()), smp, p))
    entries.sort(key=lambda e: e[0])

    return DistanceMatrixLaw(
        order=n,
        samples=tuple(e[1] for e in entries),
        probs=tuple(e[2] for e in entries),
        exact=exact,
    )


def _law_from_pairs(order: int, pairs: list, exact: bool) -> DistanceMatrixLaw:
    agg: dict = {}
    reps: dict = {}
    for smp, p in pairs:
        k = smp.key()
        if k not in agg:
            agg[k] = []
            reps[k] = smp
        agg[k].append(p)
    keys = sorted(agg, key=repr)
    probs = []
    for k in keys:
        if exact:
            probs.append(sum(agg[k], Fraction(0)))
        else:
            probs.append(math.fsum(agg[k]))
    return DistanceMatrixLaw(
        order=order,
        samples=tuple(reps[k] for k in keys),
        probs=tuple(probs),
        exact=exact,
    )


def law_push(law: DistanceMatrixLaw, sigma: Sequence[int]) -> DistanceMatrixLaw:
    """Push a law through an injective index map and re-aggregate exactly."""
    pairs = [(permute(s, sigma), p) for s, p in zip(law.samples, law.probs)]
    return _law_from_pairs(len(sigma), pairs, law.exact)


def law_shift(law: DistanceMatrixLaw, k: int) -> DistanceMatrixLaw:
    """Marginal law of the last order-k block (drop the first k indices)."""
    if not 0 < k < law.order:
        raise ParameterError("shift must satisfy 0 < k < order")
    return law_push(law, range(k, law.order))


def laws_equal(a: DistanceMatrixLaw, b: DistanceMatrixLaw, tol: float = 0.0) -> bool:
    """Compare two laws atom by atom (rational probs compare exactly)."""
    if a.order != b.order or len(a.samples) != len(b.samples):
        return False
    for (sa, pa), (sb, pb) in zip(a.atoms, b.atoms):
        if sa.key() != sb.key():
            return False
        if isinstance(pa, Fraction) and isinstance(pb, Fraction):
            if pa != pb:
                return False
        elif abs(float(pa) - float(pb)) > tol:
            return False
    return True


def pair_distance_law(space: FiniteMmmSpace):
    """Law of the first sampled distance r12: (values, probabilities).

    A weighted histogram of the distance matrix: entry (i, j) has mass
    w_i w_j with w the fsum-normalized weights, and is keyed by its
    distance rounded to 12 significant digits (the keys of `exact_law`).
    Each key's masses are summed with fsum, so a probability is the
    rational law's within a few ulps, whatever the entry order.  Values
    are sorted ascending; memory is O(N^2).  NaN/inf distances or weights
    and a nonpositive total weight raise ParameterError.
    """
    _require_finite(space)
    w = space.weights / _weight_total(space)
    keys = round_sig(space.distances).reshape(-1)
    order = np.argsort(keys, kind="stable")
    values, starts = np.unique(keys[order], return_index=True)
    mass = np.outer(w, w).reshape(-1)[order].tolist()
    ends = starts[1:].tolist() + [len(mass)]
    probs = [math.fsum(mass[lo:hi]) for lo, hi in zip(starts.tolist(), ends)]
    return values, np.array(probs)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

MM_DUMMY_LABEL = "mm"


def project_mm(space: FiniteMmmSpace) -> FiniteMmmSpace:
    """Forget marks: every point gets one dummy label; result canonicalized."""
    ms = MarkSpace.discrete((MM_DUMMY_LABEL,))
    return canonicalize(
        FiniteMmmSpace(
            distances=space.distances,
            marks=tuple(MM_DUMMY_LABEL for _ in range(space.n)),
            weights=space.weights,
            mark_space=ms,
            label=space.label,
        )
    )


def mark_marginal(space: FiniteMmmSpace) -> dict:
    """Mark marginal: canonical mark value -> total weight (fsum per value)."""
    agg: dict = {}
    for mk, wt in zip(space.marks, space.weights):
        agg.setdefault(mk, []).append(float(wt))
    return {mk: math.fsum(vals) for mk, vals in agg.items()}


# ---------------------------------------------------------------------------
# index operations
# ---------------------------------------------------------------------------

def permute(s: DistanceMatrixSample, sigma: Sequence[int]) -> DistanceMatrixSample:
    """Pull back a sample along an injective index map (0-based).

    sigma maps new index t to old index sigma[t]; the result has order
    len(sigma), dist'[s][t] = dist[sigma[s]][sigma[t]] and marks' =
    marks[sigma[t]].
    """
    sig = [int(t) for t in sigma]
    if len(set(sig)) != len(sig):
        raise ParameterError("index map must be injective")
    if sig and (min(sig) < 0 or max(sig) >= s.order):
        raise ParameterError("index map goes out of range")
    idx = np.asarray(sig, dtype=int)
    return DistanceMatrixSample(
        order=len(sig),
        dist=s.dist[np.ix_(idx, idx)],
        marks=tuple(s.marks[t] for t in sig),
    )


def shift(s: DistanceMatrixSample, k: int) -> DistanceMatrixSample:
    """Drop the first k indices: the sample seen by a polynomial after a shift."""
    if not 0 < k < s.order:
        raise ParameterError("shift must satisfy 0 < k < order")
    return permute(s, range(k, s.order))
