#!/usr/bin/env python3
"""Comparing spaces that do not share points.

The distance between two marked spaces is an infimum over gluings: metrics
on the disjoint union that restrict to both sides.  This demo walks one
pair through the whole toolbox: quick lower bound, the best upper bound
over the candidate gluings, and the exact value from a scan over the
relations between equal-mark points, with its slack.  A relabeled copy comes out at distance zero, as it must.
"""

import numpy as np

from mmmspace import (
    FiniteMmmSpace,
    GluedSpace,
    MarkSpace,
    glue,
    is_equivalent_exact,
    mgp_exact,
    mgp_lower,
    mgp_upper,
)


def main():
    marks = MarkSpace.discrete(("a", "b"))
    x = FiniteMmmSpace(
        distances=np.array([[0.0, 1.0], [1.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
        marks=("a", "b"),
        mark_space=marks,
        label="pair-d1",
    )
    y = FiniteMmmSpace(
        distances=np.array([[0.0, 2.0], [2.0, 0.0]]),
        weights=np.array([0.5, 0.5]),
        marks=("a", "b"),
        mark_space=marks,
        label="pair-d2",
    )

    print(f"lower bound:  {mgp_lower(x, y):.6f}")
    v, _ = mgp_upper(x, y)
    print(f"upper bound:  {v:.6f}")

    result = mgp_exact(x, y)
    print(f"certified:    {result.exact:.6f} with slack {result.slack:.2e}")
    print(f"              true value lies in [{result.exact - result.slack:.6f}, {result.exact:.6f}]")

    # the witness cross matrix really is a gluing, and evaluating the
    # Prohorov objective across it reproduces the certified value
    g = glue(x, y, result.witness_cross)
    v, _ = GluedSpace(left=x, right=y, cross=result.witness_cross).prohorov()
    print(f"witness gluing validates ({g.z_metric().shape[0]} glued points), objective {v:.6f}")

    shuffled = FiniteMmmSpace(
        distances=x.distances[np.ix_([1, 0], [1, 0])],
        weights=x.weights[[1, 0]],
        marks=(x.marks[1], x.marks[0]),
        mark_space=marks,
        label="pair-d1-shuffled",
    )
    v, _ = mgp_upper(x, shuffled)
    print()
    print(f"relabeled copy: upper bound {v:.2e}, equivalent = {is_equivalent_exact(x, shuffled)}")


if __name__ == "__main__":
    main()
