"""Polynomials of marked metric measure spaces.

A polynomial of order n integrates a bounded function of the first
n(n-1)/2 sampled distances and the first n sampled marks against the
distance matrix law.  Products of polynomials are again polynomials: the
second factor reads the sample through a shift onto fresh indices, so the
product's order is the sum of the orders.

`product_family` enumerates the countable separating family built from a
per-mark dictionary and a per-pair dictionary; `default_panel` takes the
leading members as a diagnostic panel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FiniteMmmSpace, MarkSpace, _sample_indices, _weight_total
from .dmat import ENUM_BUDGET, EXACT_TUPLE_LIMIT, exact_law
from .errors import ParameterError

__all__ = [
    "Polynomial",
    "ProductFamilySpec",
    "evaluate_exact",
    "evaluate_mc",
    "multiply",
    "product_family",
    "default_family_spec",
    "default_panel",
    "constant",
    "distance_monomial",
    "mark_indicator",
]


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Order-n polynomial: a bounded body on (distance block, marks).

    ``body(dist, marks)`` receives the (n, n) distance block and the
    n-tuple of marks of one sample.  ``mark_factors``/``pair_factors``
    are optional product structure (factor per sampled index, factor per
    index pair); when present they must agree with body and enable fast
    exact evaluation.  Factor callables must accept numpy arrays.
    """

    order: int
    body: Callable
    bound: float
    smoothness: float = math.inf
    description: str = ""
    mark_factors: tuple | None = None
    pair_factors: tuple | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ParameterError("polynomial order must be >= 1")
        if self.mark_factors is not None and len(self.mark_factors) != self.order:
            raise ParameterError("need one mark factor per sampled index")

    @property
    def has_product_form(self) -> bool:
        return self.mark_factors is not None and self.pair_factors is not None


def _body_from_factors(mark_factors, pair_factors):
    def body(dist, marks):
        v = 1.0
        for t, g in enumerate(mark_factors):
            v *= float(g(marks[t]))
        for (k, l), f in pair_factors:
            v *= float(f(dist[k, l]))
        return v

    return body


def constant(c: float) -> Polynomial:
    return Polynomial(
        order=1,
        body=lambda dist, marks: float(c),
        bound=abs(float(c)),
        description=f"{c:g}",
        mark_factors=(lambda u, c=c: float(c),),
        pair_factors=(),
    )


def distance_monomial(k: int, l: int, order: int | None = None, bound: float = np.inf):
    """The polynomial r_{kl} (0-based index pair)."""
    n = max(k, l) + 1 if order is None else order
    return Polynomial(
        order=n,
        body=lambda dist, marks: float(dist[k, l]),
        bound=float(bound),
        description=f"r{k + 1}{l + 1}",
        mark_factors=tuple(lambda u: 1.0 for _ in range(n)),
        pair_factors=(((k, l), lambda s: np.asarray(s, dtype=float) + 0.0),),
    )


def mark_indicator(label, pos: int = 0, order: int | None = None) -> Polynomial:
    """Indicator that the mark at sampled index ``pos`` equals ``label``."""
    n = pos + 1 if order is None else order
    factors = [lambda u: 1.0 for _ in range(n)]
    factors[pos] = lambda u, lab=label: 1.0 if u == lab else 0.0
    return Polynomial(
        order=n,
        body=lambda dist, marks, lab=label: 1.0 if marks[pos] == lab else 0.0,
        bound=1.0,
        description=f"ind[u{pos + 1}={label}]",
        mark_factors=tuple(factors),
        pair_factors=(),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _evaluate_product_exact(phi: Polynomial, space: FiniteMmmSpace) -> float:
    """Tensor contraction for product-form polynomials of order <= 3."""
    n = phi.order
    w = space.weights
    total = _weight_total(space)
    vecs = []
    for t in range(n):
        g = phi.mark_factors[t]
        vecs.append(w * np.array([float(g(mk)) for mk in space.marks]))
    mats = {}
    for (k, l), f in phi.pair_factors:
        m = np.asarray(f(space.distances), dtype=float)
        if (k, l) in mats:
            mats[(k, l)] = mats[(k, l)] * m
        else:
            mats[(k, l)] = m

    letters = "ijk"
    operands, script = [], []
    for t in range(n):
        operands.append(vecs[t])
        script.append(letters[t])
    for (k, l), m in mats.items():
        operands.append(m)
        script.append(letters[k] + letters[l])
    val = float(np.einsum(",".join(script) + "->", *operands))
    return val / total ** n


def evaluate_exact(
    phi: Polynomial, space: FiniteMmmSpace, budget: int = ENUM_BUDGET
) -> float:
    """Integrate the polynomial against the exact distance matrix law.

    Product-form polynomials of order <= 3 go through a direct tensor
    contraction; everything else enumerates the law (budget-capped).
    Both paths agree within float tolerance.
    """
    if phi.has_product_form and phi.order <= 3:
        return _evaluate_product_exact(phi, space)
    law = exact_law(space, phi.order, budget=budget)
    terms = [
        float(p) * float(phi.body(s.dist, s.marks)) for s, p in zip(law.samples, law.probs)
    ]
    return math.fsum(terms)


def _exact_is_cheap(phi: Polynomial, space: FiniteMmmSpace) -> bool:
    """Whether `evaluate_exact` is cheap: the product contraction applies
    (product form, order <= 3) or the law has at most EXACT_TUPLE_LIMIT tuples."""
    cheap_product = phi.has_product_form and phi.order <= 3
    return cheap_product or space.n**phi.order <= EXACT_TUPLE_LIMIT


def evaluate_mc(phi: Polynomial, space: FiniteMmmSpace, m: int, seed: int):
    """Monte Carlo estimate of the polynomial: (estimate, standard error).

    Draws m iid order-n samples from one seeded stream (the same stream
    ``dmat.sample_many`` would use).  The standard error is the sample
    standard deviation (ddof=1) over sqrt(m); it is exactly 0 for a
    constant integrand.
    """
    if m < 1:
        raise ParameterError("need at least one Monte Carlo draw")
    idx = _sample_indices(space, (m, phi.order), seed)
    D = space.distances
    if phi.has_product_form:
        vals = np.ones(m)
        for t in range(phi.order):
            g = phi.mark_factors[t]
            per_atom = np.array([float(g(mk)) for mk in space.marks])
            vals *= per_atom[idx[:, t]]
        for (k, l), f in phi.pair_factors:
            vals *= np.asarray(f(D[idx[:, k], idx[:, l]]), dtype=float)
    else:
        vals = np.empty(m)
        marks = space.marks
        for r in range(m):
            row = idx[r]
            vals[r] = phi.body(
                D[np.ix_(row, row)], tuple(marks[i] for i in row)
            )
    est = float(vals.mean())
    if m > 1:
        err = float(vals.std(ddof=1) / math.sqrt(m))
    else:
        err = float("nan")
    return est, err


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

def multiply(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product polynomial: b reads the sample after a shift by a.order.

    The result has order a.order + b.order; its body evaluates a on the
    leading block and b on the trailing block, so integrating it against
    the law equals the product of the separate integrals.
    """
    na = a.order

    def body(dist, marks):
        return float(a.body(dist[:na, :na], marks[:na])) * float(
            b.body(dist[na:, na:], marks[na:])
        )

    mark_factors = None
    pair_factors = None
    if a.has_product_form and b.has_product_form:
        mark_factors = tuple(a.mark_factors) + tuple(b.mark_factors)
        pair_factors = tuple(a.pair_factors) + tuple(
            ((k + na, l + na), f) for (k, l), f in b.pair_factors
        )

    return Polynomial(
        order=na + b.order,
        body=body,
        bound=a.bound * b.bound,
        smoothness=min(a.smoothness, b.smoothness),
        description=f"({a.description})*({b.description}@+{na})",
        mark_factors=mark_factors,
        pair_factors=pair_factors,
    )


# ---------------------------------------------------------------------------
# the separating product family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductFamilySpec:
    """Dictionaries for the countable product family.

    ``mark_dictionary`` / ``pair_dictionary`` are tuples of (template,
    callable); templates may contain "{pos}" (1-based sample index) or
    "{pair}" (two 1-based indices) for readable member descriptions.
    """

    mark_space: MarkSpace
    mark_dictionary: tuple
    pair_dictionary: tuple
    max_order: int


PAIR_RATES = (0.5, 1.0, 2.0, 4.0)
EUCLIDEAN_THETAS = (0.5, 1.0, 2.0)


def default_family_spec(mark_space: MarkSpace, max_order: int = 3) -> ProductFamilySpec:
    """Default dictionaries: exp(-lambda s) on pairs; indicators or
    exp(-|theta u_i|) on marks, plus the constant 1."""
    pair = tuple(
        (f"exp(-{lam:g}*r{{pair}})", _exp_rate(lam)) for lam in PAIR_RATES
    )
    marks: list = [("1", _one)]
    if mark_space.kind == "discrete":
        for lab in mark_space.labels:
            marks.append((f"ind[u{{pos}}={lab}]", _indicator(lab)))
    else:
        for axis in range(mark_space.dim):
            for theta in EUCLIDEAN_THETAS:
                marks.append(
                    (f"exp(-|{theta:g}*u{{pos}}[{axis}]|)", _exp_axis(theta, axis))
                )
    return ProductFamilySpec(
        mark_space=mark_space,
        mark_dictionary=tuple(marks),
        pair_dictionary=pair,
        max_order=max_order,
    )


def _one(u):
    return 1.0


def _exp_rate(lam):
    def f(s):
        return np.exp(-lam * np.asarray(s, dtype=float))

    return f


def _indicator(lab):
    def g(u):
        return 1.0 if u == lab else 0.0

    return g


def _exp_axis(theta, axis):
    def g(u):
        return float(np.exp(-abs(theta * u[axis])))

    return g


def product_family(spec: ProductFamilySpec):
    """Yield the product family members in the documented order.

    Orders n = 1, 2, ..., max_order; within an order, one member per
    assignment tuple (g_1, ..., g_n, f_12, f_13, ..., f_{n-1,n}) of
    dictionary indices, iterated lexicographically with the last position
    varying fastest.  The n = 1 member with the constant mark factor is
    the constant polynomial; `default_panel` skips it.
    """
    G = len(spec.mark_dictionary)
    F = len(spec.pair_dictionary)
    for n in range(1, spec.max_order + 1):
        pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
        for gs in itertools.product(range(G), repeat=n):
            for fs in itertools.product(range(F), repeat=len(pairs)):
                yield _family_member(spec, n, gs, fs, pairs)


def _family_member(spec, n, gs, fs, pairs) -> Polynomial:
    mark_factors = tuple(spec.mark_dictionary[g][1] for g in gs)
    pair_factors = tuple(
        (pairs[t], spec.pair_dictionary[f][1]) for t, f in enumerate(fs)
    )
    parts = []
    for t, g in enumerate(gs):
        template = spec.mark_dictionary[g][0]
        if template != "1":
            parts.append(template.format(pos=t + 1))
    for t, f in enumerate(fs):
        k, l = pairs[t]
        parts.append(
            spec.pair_dictionary[f][0].format(pair=f"{k + 1}{l + 1}")
        )
    desc = "*".join(parts) if parts else "1"
    return Polynomial(
        order=n,
        body=_body_from_factors(mark_factors, pair_factors),
        bound=1.0,
        description=desc,
        mark_factors=mark_factors,
        pair_factors=pair_factors,
    )


def default_panel(mark_space: MarkSpace, n_max: int, size: int) -> list:
    """First ``size`` non-constant members of the default family up to n_max."""
    if size < 1:
        raise ParameterError("panel size must be >= 1")
    spec = default_family_spec(mark_space, max_order=n_max)
    panel: list = []
    for member in product_family(spec):
        if member.description == "1":
            continue
        panel.append(member)
        if len(panel) == size:
            break
    return panel
