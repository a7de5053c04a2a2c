"""Marked distance matrix distributions.

Sampling n points iid from a space induces a law on (distance matrix,
marks) pairs; this module draws from that law, enumerates it exactly for
finite spaces, and implements the index operations (injective relabeling
and the shift onto fresh indices) that make the polynomial algebra work.

Every law of sampled tuples (`exact_law`, `law_push`, `pair_distance_law`)
is added up by `_aggregate`: one stable lexsort groups equal key rows,
and masses add exactly or, correctly rounded, by fsum (groups of one
or two masses by one float addition).  Exactness: every IEEE weight is
a dyadic rational, so w_i = M_i / Q with integer mantissas M_i over one
power of two Q; dividing by their gcd leaves integers m_i.  An atom's
probability in `exact_law` is then (sum over its tuples of prod m) /
(sum m)^n, summed in integers, in int64 when max|m|^n * N^n < 2^63 (every
uniform-weight space: all its m are 1) and in Python ints otherwise, with
one Fraction per distinct sum.  So permutation invariance and shift
consistency hold as algebraic identities, not merely within float
tolerance.  Beyond EXACT_TUPLE_LIMIT enumerated tuples the law switches to
float probabilities from order-independent primitives: sorted-factor
products, summed per atom by an fsum within each chunk of EXACT_LAW_CHUNK
tuples and an fsum over the chunks.

Every law lists its atoms in key order: the rounded distances compare as
numbers, in row-major upper-triangle order, and then the marks by repr.
A key row holds each distance's rank among the distinct rounded values
and each mark's code (`core._mark_codes`, the marks' repr ranks), so the
lexsort of `_aggregate` returns the atoms in that order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    FiniteMmmSpace, MarkSpace, _mark_codes, _require_finite, _sample_indices, _weight_total,
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


@dataclass(frozen=True, eq=False)
class DistanceMatrixLaw:
    """Finite law of (distance block, marks), atoms in key order.

    ``blocks`` is one read-only (K, n, n) array holding each atom's first
    tuple's distance block, ``marks`` the read-only (K, n) object array of
    its marks and ``probs`` the K probabilities (Fractions when ``exact``).
    ``samples`` wraps them as `DistanceMatrixSample`s on first use.
    """

    order: int
    blocks: np.ndarray
    marks: np.ndarray
    probs: tuple
    exact: bool

    def __post_init__(self):
        self.blocks.flags.writeable = False
        self.marks.flags.writeable = False

    @functools.cached_property
    def samples(self) -> tuple:
        """The atoms as samples, built on first use (see `_wrap`)."""
        return tuple(_wrap(self.blocks, self.marks.tolist()))

    @property
    def atoms(self) -> tuple:
        return tuple(zip(self.samples, self.probs))

    def total(self):
        return sum(self.probs, Fraction(0)) if self.exact else math.fsum(self.probs)

    def prob_of(self, sample: DistanceMatrixSample):
        k = sample.key()
        return next((p for s, p in zip(self.samples, self.probs) if s.key() == k),
                    Fraction(0) if self.exact else 0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _wrap(blocks: np.ndarray, marks: list) -> list:
    """Samples holding read-only views of ``blocks`` (K, n, n) and the rows
    of ``marks``, every key set from one `round_sig` over all triangles."""
    blocks.flags.writeable = False
    rows, cols = np.triu_indices(blocks.shape[1], 1)
    out = []
    for block, row, tri in zip(blocks, marks, round_sig(blocks[:, rows, cols]).tolist()):
        smp = object.__new__(DistanceMatrixSample)
        fields = smp.__dict__  # frozen: fill the fields without __init__'s copy
        fields["order"] = len(row)
        fields["dist"] = block
        fields["marks"] = row = tuple(row)
        fields["_key"] = (tuple(tri), row)
        out.append(smp)
    return out


def sample(space: FiniteMmmSpace, n: int, seed: int) -> DistanceMatrixSample:
    """Draw one order-n sample from the distance matrix law (per-seed deterministic)."""
    return sample_many(space, n, 1, seed)[0]


def sample_many(space: FiniteMmmSpace, n: int, m: int, seed: int) -> list:
    """Draw m >= 1 independent order-n samples (n >= 1) from one seeded
    stream.  The atom indices are bit for bit those of ``Generator.choice``
    with the normalized weights (`core._sample_indices`); NaN/inf entries
    and negative weights raise ParameterError."""
    if n < 1 or m < 1:
        raise ParameterError("order and sample count must be >= 1")
    idx = _sample_indices(space, (m, n), seed)
    blocks = space.distances[idx[:, :, None], idx[:, None, :]]
    return _wrap(blocks, np.fromiter(space.marks, dtype=object, count=space.n)[idx].tolist())


# ---------------------------------------------------------------------------
# exact law
# ---------------------------------------------------------------------------

def _mantissas(w: np.ndarray) -> tuple[np.ndarray, int]:
    """Integers M (an object array) and Q with w_i = M_i / Q exactly: Q is the
    largest denominator of ``float.as_integer_ratio``, all powers of two."""
    ratios = [float(x).as_integer_ratio() for x in w]
    q = max(den for _, den in ratios)
    return np.array([num * (q // den) for num, den in ratios], dtype=object), q


def _exact_factors(mantissas: np.ndarray, n: int) -> np.ndarray:
    """The mantissas over their gcd, m_i = M_i / gcd(M): int64 when
    max|m|^n * N^n < 2^63, which bounds every order-n product, every sum of
    them and every partial sum, else Python ints in an object array."""
    m = mantissas // math.gcd(*mantissas.tolist())
    top = max(abs(x) for x in m.tolist())
    return m.astype(np.int64) if (top * len(m)) ** n < 2 ** 63 else m


def _codes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct 12-digit keys of ``x`` in value order, and each entry's
    code (its key's position), shaped like ``x``."""
    values, codes = np.unique(round_sig(x), return_inverse=True)
    return values, codes.reshape(x.shape)


def _aggregate(keys: np.ndarray, masses: np.ndarray, exact: bool):
    """Add up the masses of equal rows of a key matrix: (firsts, sums).

    One stable lexsort groups the rows; ``firsts[g]`` is the position of
    group g's first row, groups sorted by their rows.  Exact masses
    (integers or Fractions in an object array) add exactly.  Every float
    sum is correctly rounded, the fsum of its group: a group of one or two
    masses is its rounded sum, with -0.0 read as 0.0 as fsum reads it, and
    fsum runs on the groups of three or more.
    """
    # no columns (an order-0 push): one group
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ranked = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    masses = masses[order]
    sums = np.add.reduceat(masses, starts)
    if not exact:
        sums += 0.0
        ends = np.append(starts[1:], len(masses))
        large = np.flatnonzero(ends - starts > 2)
        if len(large):
            parts = masses.tolist()
            sums[large] = [math.fsum(parts[lo:hi])
                           for lo, hi in zip(starts[large].tolist(), ends[large].tolist())]
    return order[new], sums


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
        exact mark tuple), in key order, each represented by its first
        tuple; probabilities normalized by (sum of weights)^n and summing
        to exactly 1 in the rational case.  A tuple's key row holds the
        codes of its rounded distances and of its marks; `_aggregate`
        groups each chunk of EXACT_LAW_CHUNK rows and then the chunks'
        atoms, so a float probability is the fsum of its chunks' fsums
        (a group of one or two masses is their rounded sum, which is its
        fsum; fsum runs on groups of three or more).
        A rational probability is (sum of its tuples' products of m) /
        (sum m)^n with m the weight mantissas over their gcd
        (`_exact_factors`): tuple products and sums run in int64 when
        max|m|^n * N^n < 2^63, which bounds every product, sum and partial
        sum, else in Python ints; one Fraction is built per distinct sum.
        NaN/inf entries and a nonpositive total weight raise ParameterError.
    """
    if n < 1:
        raise ParameterError("order must be >= 1")
    N = space.n
    K = N ** n
    if K > budget:
        raise BudgetError(f"enumeration needs {K} tuples, budget is {budget}")
    _weight_total(space)  # finite entries and a positive total
    if exact is None:
        exact = K <= EXACT_TUPLE_LIMIT

    D, w = space.distances, space.weights
    mantissas, q = _mantissas(w)
    if exact:
        factors = _exact_factors(mantissas, n)
    # float products and their norm both carry an exact factor 2^-e that
    # puts the largest weight in [1/2, 1), so that tiny weights' norm does
    # not underflow to 0
    e = math.frexp(float(w.max()))[1]
    w = np.ldexp(w, -e)
    mark_codes, distinct = _mark_codes(space.marks)
    vals, codes = _codes(D)
    dtype = np.min_scalar_type(max(len(vals), len(distinct)) - 1)
    codes, mark_codes = codes.astype(dtype), mark_codes.astype(dtype)
    rows, cols = np.triu_indices(n, 1)

    chunks = []
    for start in range(0, K, EXACT_LAW_CHUNK):
        # tuple t is the n base-N digits of t; the transpose keeps each
        # column contiguous for the gathers below
        base = np.arange(start, min(start + EXACT_LAW_CHUNK, K), dtype=np.int64)
        idx = np.array(np.unravel_index(base, (N,) * n)).T
        keys = np.concatenate([codes[idx[:, rows], idx[:, cols]], mark_codes[idx]], axis=1)
        masses = np.prod(factors[idx] if exact else w[np.sort(idx, axis=1)], axis=1)
        firsts, sums = _aggregate(keys, masses, exact)
        chunks.append((keys[firsts], idx[firsts], sums))
    keys, reps, sums = (np.concatenate(parts) for parts in zip(*chunks))
    if len(chunks) > 1:
        # a key occurs at most once per chunk and the chunks follow the
        # enumeration, so first occurrences hold the first tuples
        firsts, sums = _aggregate(keys, sums, exact)
        reps = reps[firsts]

    if exact:
        norm = sum(factors.tolist()) ** n
        sums = sums.tolist()
        # one Fraction per distinct sum: few when the weights are alike
        fractions = {x: Fraction(x, norm) for x in set(sums)}
        probs = tuple(map(fractions.__getitem__, sums))
    else:
        norm = int(sum(mantissas)) ** n
        probs = tuple((sums / float(Fraction(norm, q ** n) / Fraction(2) ** (e * n))).tolist())
    return DistanceMatrixLaw(
        order=n,
        blocks=D[reps[:, :, None], reps[:, None, :]],
        marks=np.fromiter(space.marks, dtype=object, count=N)[reps],
        probs=probs,
        exact=exact,
    )


def law_push(law: DistanceMatrixLaw, sigma: Sequence[int]) -> DistanceMatrixLaw:
    """Push a law through an injective index map and re-aggregate it:
    blocks and marks are pulled back as by `permute`, keyed as in
    `exact_law` and added up by `_aggregate` (fsum for float laws)."""
    sig = _index_map(sigma, law.order)
    rows, cols = np.triu_indices(len(sig), 1)
    blocks, marks = law.blocks[:, sig][:, :, sig], law.marks[:, sig]
    _, tri_codes = _codes(blocks[:, rows, cols])
    mark_codes = _mark_codes(marks.ravel().tolist())[0].reshape(marks.shape)
    masses = np.array(law.probs, dtype=object if law.exact else float)
    firsts, sums = _aggregate(np.concatenate([tri_codes, mark_codes], axis=1), masses, law.exact)
    return DistanceMatrixLaw(
        order=len(sig),
        blocks=blocks[firsts],
        marks=marks[firsts],
        probs=tuple(sums.tolist()),
        exact=law.exact,
    )


def law_shift(law: DistanceMatrixLaw, k: int) -> DistanceMatrixLaw:
    """Marginal law of the last order-k block (drop the first k indices)."""
    if not 0 < k < law.order:
        raise ParameterError("shift must satisfy 0 < k < order")
    return law_push(law, range(k, law.order))


def laws_equal(a: DistanceMatrixLaw, b: DistanceMatrixLaw, tol: float = 0.0) -> bool:
    """Compare two laws atom by atom (rational probs compare exactly)."""
    if a.order != b.order or len(a.probs) != len(b.probs):
        return False
    for (sa, pa), (sb, pb) in zip(a.atoms, b.atoms):
        rational = isinstance(pa, Fraction) and isinstance(pb, Fraction)
        if sa.key() != sb.key() or (pa != pb if rational else abs(float(pa) - float(pb)) > tol):
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
    w = space.weights / _weight_total(space)
    keys = round_sig(space.distances).reshape(-1, 1)
    firsts, probs = _aggregate(keys, np.outer(w, w).reshape(-1), exact=False)
    return keys[firsts, 0], probs


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
    """Mark marginal: canonical mark value -> total weight (fsum per value),
    marks in the order of their reprs (`core._mark_codes`), so that a
    relabelled space gives the same dict in the same order.  NaN/inf
    distances, weights or Euclidean mark coordinates raise ParameterError."""
    _require_finite(space)
    codes, distinct = _mark_codes(space.marks)
    groups: list = [[] for _ in distinct]
    for code, wt in zip(codes.tolist(), space.weights.tolist()):
        groups[code].append(wt)
    return {mk: math.fsum(vals) for mk, vals in zip(distinct, groups)}


# ---------------------------------------------------------------------------
# index operations
# ---------------------------------------------------------------------------

def _index_map(sigma: Sequence[int], order: int) -> list:
    """``sigma`` as a list of ints, checked to be injective into range(order)."""
    sig = [int(t) for t in sigma]
    if len(set(sig)) != len(sig):
        raise ParameterError("index map must be injective")
    if sig and (min(sig) < 0 or max(sig) >= order):
        raise ParameterError("index map goes out of range")
    return sig


def permute(s: DistanceMatrixSample, sigma: Sequence[int]) -> DistanceMatrixSample:
    """Pull back a sample along an injective index map (0-based).

    sigma maps new index t to old index sigma[t]; the result has order
    len(sigma), dist'[s][t] = dist[sigma[s]][sigma[t]] and marks' =
    marks[sigma[t]].
    """
    sig = _index_map(sigma, s.order)
    return DistanceMatrixSample(len(sig), s.dist[np.ix_(sig, sig)], tuple(s.marks[t] for t in sig))


def shift(s: DistanceMatrixSample, k: int) -> DistanceMatrixSample:
    """Drop the first k indices: the sample seen by a polynomial after a shift."""
    if not 0 < k < s.order:
        raise ParameterError("shift must satisfy 0 < k < order")
    return permute(s, range(k, s.order))
