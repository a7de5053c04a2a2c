"""Tightness and relative-compactness diagnostics for families of spaces.

Three exact quantities drive everything here, each computed from atom
weights without sampling:

* the modulus of mass distribution: the mass of points whose open
  eps-ball is light (mass <= delta);
* the tail of the first-distance law P(r12 > t);
* the tail of the mark marginal outside a label set or centered ball.

`family_tightness` takes pointwise sups of these curves over a family
and reports threshold verdicts.  A finite family can never prove
tightness of the limit objects it stands in for, so the verdicts are
labeled "consistent with tightness", not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FiniteMmmSpace, _require_finite, _sample_indices
from .dmat import mark_marginal, pair_distance_law
from .errors import ParameterError

__all__ = [
    "ball_masses",
    "modulus_mass",
    "distance_tail",
    "mark_tail",
    "family_tightness",
    "sampled_functionals",
    "TightnessReport",
    "SampledFunctionals",
]

DEFAULT_MASS_THRESHOLD = 0.05


def _increasing(grid, what: str) -> np.ndarray:
    """``grid`` as a float array; ParameterError unless it is nonempty,
    free of NaN and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.isnan(grid).any() or np.any(np.diff(grid) <= 0):
        raise ParameterError(f"{what} must be nonempty and increasing, without NaN")
    return grid


def ball_masses(space: FiniteMmmSpace, eps: float) -> np.ndarray:
    """Mass of the open ball of radius eps around each atom (strict <);
    NaN/inf distances, weights or marks raise ParameterError."""
    if not eps > 0:
        raise ParameterError(f"ball radius must be positive, got {eps!r}")
    _require_finite(space)
    inside = space.distances < eps
    return inside @ space.weights


def modulus_mass(space: FiniteMmmSpace, eps: float, delta: float) -> float:
    """Mass carried by atoms whose open eps-ball holds mass at most delta."""
    if not 0.0 <= delta <= 1.0:
        raise ParameterError("delta must lie in [0, 1]")
    m = ball_masses(space, eps)
    return float(math.fsum(space.weights[m <= delta].tolist()))


def distance_tail(space: FiniteMmmSpace, thresholds) -> np.ndarray:
    """P(r12 > t) for each threshold t, exactly from the order-2 law."""
    thresholds = _increasing(thresholds, "thresholds")
    values, probs = pair_distance_law(space)
    out = np.empty(thresholds.size)
    for t_index, t in enumerate(thresholds):
        out[t_index] = math.fsum(probs[values > t].tolist())
    return out


def mark_tail(space: FiniteMmmSpace, radii=None, labels=None) -> np.ndarray:
    """Mass of the mark marginal escaping a label set or centered balls.

    Discrete mark spaces take ``labels`` (mass of marks outside the set,
    one value repeated per requested point: the curve is constant).
    Euclidean ones take increasing ``radii`` (mass at Euclidean norm > R
    from the origin).  Passing the wrong kind raises.
    """
    marg = mark_marginal(space)
    if space.mark_space.kind == "discrete":
        if labels is None or radii is not None:
            raise ParameterError("discrete mark spaces take a label set")
        keep = set(labels)
        mass = math.fsum(w for mark, w in marg.items() if mark not in keep)
        return np.array([mass])
    if radii is None or labels is not None:
        raise ParameterError("euclidean mark spaces take a radius grid")
    radii = _increasing(radii, "radii")
    out = np.empty(radii.size)
    norms_weights = [
        (float(np.linalg.norm(np.asarray(mark))), w) for mark, w in marg.items()
    ]
    for r_index, r in enumerate(radii):
        out[r_index] = math.fsum(w for nrm, w in norms_weights if nrm > r)
    return out


@dataclass(frozen=True)
class TightnessReport:
    """Family-sup curves and threshold verdicts.

    ``modulus`` has shape (len(delta_grid), len(eps_grid)); the tails are
    one value per grid point.  ``tightness_consistent`` is the AND of the
    per-criterion verdicts; it says the finite family shows no sign of
    escaping mass, not that a limit family is relatively compact.
    """

    eps_grid: np.ndarray
    delta_grid: np.ndarray
    tail_grid: np.ndarray
    modulus: np.ndarray
    distance_tail: np.ndarray
    mark_tail: np.ndarray
    verdicts: dict = field(default_factory=dict)

    @property
    def tightness_consistent(self) -> bool:
        return all(self.verdicts.values())


def family_tightness(
    spaces,
    eps_grid,
    delta_grid,
    tail_grid=None,
    mark_labels=None,
    mark_radii=None,
    threshold: float = DEFAULT_MASS_THRESHOLD,
) -> TightnessReport:
    """Sup the diagnostic curves over a family and issue verdicts.

    The r12-tail thresholds default to ``eps_grid`` (same units as the
    metric).  The "modulus" verdict holds when, at the smallest delta,
    some eps on the grid pushes the sup-modulus to ``threshold`` or
    below; "distance_tail" when the sup tail at the largest r12 threshold
    is at most ``threshold``; "mark_tail" idem for the mark curve
    (the last radius, or the given label set).  Mark verdicts need
    labels/radii; omitted, the mark block is skipped (empty curve, no
    verdict).
    """
    spaces = list(spaces)
    if not spaces:
        raise ParameterError("family must be nonempty")
    eps_grid = _increasing(eps_grid, "eps grid")
    delta_grid = _increasing(delta_grid, "delta grid")
    if eps_grid[0] <= 0:
        raise ParameterError("eps grid must be positive")
    if tail_grid is None:
        tail_grid = eps_grid.copy()
    tail_grid = np.asarray(tail_grid, dtype=float)
    if math.isnan(threshold):
        raise ParameterError("threshold must not be NaN")

    modulus = np.zeros((delta_grid.size, eps_grid.size))
    for d_index, delta in enumerate(delta_grid):
        for e_index, eps in enumerate(eps_grid):
            modulus[d_index, e_index] = max(
                modulus_mass(s, eps, delta) for s in spaces
            )
    dist_tail = np.max([distance_tail(s, tail_grid) for s in spaces], axis=0)

    want_marks = mark_labels is not None or mark_radii is not None
    if want_marks:
        m_tail = np.max(
            [mark_tail(s, radii=mark_radii, labels=mark_labels) for s in spaces],
            axis=0,
        )
    else:
        m_tail = np.zeros(0)

    verdicts = {
        "modulus": bool(modulus[0, :].min() <= threshold),
        "distance_tail": bool(dist_tail[-1] <= threshold),
    }
    if want_marks:
        verdicts["mark_tail"] = bool(m_tail[-1] <= threshold)
    return TightnessReport(
        eps_grid=eps_grid,
        delta_grid=delta_grid,
        tail_grid=tail_grid,
        modulus=modulus,
        distance_tail=dist_tail,
        mark_tail=m_tail,
        verdicts=verdicts,
    )


@dataclass(frozen=True)
class SampledFunctionals:
    """Empirical draws of the three test functionals (one row per sample)."""

    v: tuple  # first sampled mark
    w: np.ndarray  # first sampled distance r12
    z_eps: np.ndarray  # open-ball mass at the first sampled atom


def sampled_functionals(
    space: FiniteMmmSpace, n_samples: int, seed: int, eps: float
) -> SampledFunctionals:
    """Monte Carlo draws of the mark/distance/ball-mass functionals.

    For each of ``n_samples`` independent index pairs (i, j) drawn from
    the weights: v = mark of atom i, w = r(i, j), and z_eps = mass of the
    open eps-ball around atom i (the almost-sure limit of the
    ball-frequency statistic, exact on finite spaces).
    """
    if n_samples < 1:
        raise ParameterError("need at least one sample")
    idx = _sample_indices(space, (n_samples, 2), seed)
    masses = ball_masses(space, eps)
    v = tuple(space.marks[i] for i in idx[:, 0])
    w = space.distances[idx[:, 0], idx[:, 1]]
    return SampledFunctionals(v=v, w=np.asarray(w), z_eps=masses[idx[:, 0]])
