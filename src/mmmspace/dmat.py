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
    out += 0.0  # -0.0 to 0.0, so that equal keys print alike
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

def _samples(space: FiniteMmmSpace, idx: np.ndarray) -> list:
    """The samples of the index rows ``idx``: all blocks come from one fancy
    index, made read-only, and each sample keeps a view of its block."""
    blocks = space.distances[idx[:, :, None], idx[:, None, :]]
    blocks.flags.writeable = False
    marks = np.fromiter(space.marks, dtype=object, count=space.n)[idx].tolist()
    out = []
    for block, row in zip(blocks, marks):
        smp = object.__new__(DistanceMatrixSample)
        fields = smp.__dict__  # frozen: fill the fields without __init__'s copy
        fields["order"] = len(row)
        fields["dist"] = block
        fields["marks"] = tuple(row)
        out.append(smp)
    return out


def sample(space: FiniteMmmSpace, n: int, seed: int) -> DistanceMatrixSample:
    """Draw one order-n sample from the distance matrix law (per-seed deterministic)."""
    if n < 1:
        raise ParameterError("order must be >= 1")
    return _samples(space, _sample_indices(space, n, seed)[None, :])[0]


def sample_many(space: FiniteMmmSpace, n: int, m: int, seed: int) -> list:
    """Draw m independent order-n samples from one seeded stream."""
    return _samples(space, _sample_indices(space, (m, n), seed))


# ---------------------------------------------------------------------------
# exact law
# ---------------------------------------------------------------------------

def _mantissas(w: np.ndarray) -> tuple[np.ndarray, int]:
    """Integers M (an object array) and Q with w_i = M_i / Q exactly: Q is the
    largest denominator of ``float.as_integer_ratio``, all powers of two."""
    ratios = [float(x).as_integer_ratio() for x in w]
    q = max(den for _, den in ratios)
    return np.array([num * (q // den) for num, den in ratios], dtype=object), q


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an integer matrix with one stable sort.

    Returns (order, new): ``order`` sorts the rows lexicographically, ties
    in row order, and ``new[k]`` marks where the k-th sorted row differs
    from the one before it.  So ``order[new]`` holds the first row of each
    group, groups sorted by their rows, and ``cumsum(new) - 1`` gives the
    group ids in sorted order.
    """
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    return order, new


def _repr_order(tris: list, marks: list) -> list:
    """Positions of the keys (tri, marks) in the order of repr((tri, marks)).

    ``tris[a]`` and ``marks[a]`` list the reprs of the a-th key's rounded
    distances and of its marks, so callers can cache one repr per value.
    All keys have the same order, so the tuples' reprs share one shape."""
    if not tris:
        return []
    p, n = len(tris[0]), len(marks[0])
    mid = ",), (" if p == 1 else "), ("
    end = ",))" if n == 1 else "))"
    texts = [f"(({', '.join(t)}{mid}{', '.join(m)}{end}" for t, m in zip(tris, marks)]
    return sorted(range(len(texts)), key=texts.__getitem__)


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
        exactly 1 in the rational case.  A tuple's key row holds integer
        codes of its rounded distances (code order is value order) and
        its mark ids; chunks of EXACT_LAW_CHUNK tuples are grouped by one
        stable lexsort of these rows each, and merged by one more.  The
        samples' blocks are read-only views of one array.
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
    # float products and their norm both carry an exact factor 2^-e that
    # puts the largest weight in [1/2, 1), so that tiny weights' norm does
    # not underflow to 0
    e = math.frexp(float(w.max()))[1]
    w = np.ldexp(w, -e)
    seen: dict = {}  # shared mark values share ids
    mark_ids = [seen.setdefault(mk, len(seen)) for mk in space.marks]
    # code order is value order; one code per 12-digit distance
    vals, codes = np.unique(round_sig(D), return_inverse=True)
    dtype = np.min_scalar_type(max(len(vals), len(seen)) - 1)
    codes = codes.reshape(D.shape).astype(dtype)
    mark_ids = np.array(mark_ids, dtype=dtype)
    rows, cols = np.triu_indices(n, 1)
    radix = N ** np.arange(n - 1, -1, -1, dtype=np.int64)

    chunk_keys, chunk_reps, chunk_sums = [], [], []
    for start in range(0, K, EXACT_LAW_CHUNK):
        base = np.arange(start, min(start + EXACT_LAW_CHUNK, K), dtype=np.int64)
        idx = base[:, None] // radix % N
        keys = np.concatenate([codes[idx[:, rows], idx[:, cols]], mark_ids[idx]], axis=1)
        order, new = _group_rows(keys)
        if exact:
            prods = np.prod(mantissas[idx], axis=1)
            chunk_sums.append(np.add.reduceat(prods[order], np.flatnonzero(new)))
        else:
            prods = np.prod(w[np.sort(idx, axis=1)], axis=1)
            group = np.empty(len(order), dtype=np.intp)
            group[order] = np.cumsum(new) - 1
            chunk_sums.append(np.bincount(group, weights=prods))
        firsts = order[new]
        chunk_keys.append(keys[firsts])
        chunk_reps.append(idx[firsts])

    keys, reps, sums = chunk_keys[0], chunk_reps[0], chunk_sums[0]
    if len(chunk_keys) > 1:
        # A key occurs at most once per chunk and the chunks follow the
        # enumeration, so first occurrences hold the first tuples.  Chunk
        # sums add exactly, so float sums are rounded once, as by fsum.
        order, new = _group_rows(np.concatenate(chunk_keys))
        firsts = order[new]
        keys = np.concatenate(chunk_keys)[firsts]
        reps = np.concatenate(chunk_reps)[firsts]
        parts = np.concatenate(chunk_sums)
        if not exact:
            parts = np.array([Fraction(x) for x in parts], dtype=object)
        sums = np.add.reduceat(parts[order], np.flatnonzero(new))

    total_m = int(sum(mantissas))
    if exact:
        norm = total_m ** n
        probs = [Fraction(int(x), norm) for x in sums]
    else:
        norm = float((Fraction(total_m, q) / Fraction(2) ** e) ** n)
        probs = [float(x) / norm for x in sums]
    samples = _samples(space, reps)
    tri_codes = keys[:, : len(rows)]
    for smp, tri in zip(samples, vals[tri_codes].tolist()):
        smp.__dict__["_key"] = (tuple(tri), smp.marks)
    value_reprs = np.array([repr(v) for v in vals.tolist()], dtype=object)
    mark_reprs = np.array([repr(mk) for mk in space.marks], dtype=object)
    order = _repr_order(value_reprs[tri_codes].tolist(), mark_reprs[reps].tolist())

    return DistanceMatrixLaw(
        order=n,
        samples=tuple(samples[a] for a in order),
        probs=tuple(probs[a] for a in order),
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
    keys = list(agg)
    ranks = _repr_order([[repr(v) for v in k[0]] for k in keys],
                        [[repr(mk) for mk in k[1]] for k in keys])
    keys = [keys[a] for a in ranks]
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
