"""Finite metric measure spaces with marks.

A space is a finite metric on atoms, a probability weight per atom, and
a mark per atom from a shared mark space.  The package revolves around
the law of the random distance matrix obtained by sampling atoms i.i.d.
from the weights: two spaces are the same exactly when those laws agree,
polynomials of the law separate spaces and detect convergence, and the
marked Gromov-Prohorov distance metrizes the comparison.  Generators,
tightness diagnostics, a two-sample test, and the `mmm` CLI sit on top.
"""

__version__ = "0.1.0"

from .compact import (
    SampledFunctionals,
    TightnessReport,
    ball_masses,
    distance_tail,
    family_tightness,
    mark_tail,
    modulus_mass,
    sampled_functionals,
)
from .core import (
    FiniteMmmSpace,
    MarkFunctionInput,
    MarkSpace,
    ValidationReport,
    Violation,
    canonicalize,
    empirical_from_samples,
    from_mark_function,
    is_equivalent_exact,
    validate,
)
from .dmat import (
    DistanceMatrixLaw,
    DistanceMatrixSample,
    exact_law,
    law_push,
    law_shift,
    laws_equal,
    mark_marginal,
    pair_distance_law,
    permute,
    project_mm,
    sample,
    sample_many,
    shift,
)
from .errors import (
    BudgetError,
    DomainError,
    GluingError,
    MarginalError,
    ParameterError,
    TooLargeError,
)
from .gen import CoalescentConfig, MoranConfig, euclidean_cloud, kingman, moran
from .mgp import (
    GluedSpace,
    MgpResult,
    correspondence_cross,
    glue,
    glue_three,
    mgp_bounds,
    mgp_exact,
    mgp_lower,
    mgp_upper,
)
from .poly import (
    Polynomial,
    ProductFamilySpec,
    constant,
    default_family_spec,
    default_panel,
    distance_monomial,
    evaluate_exact,
    evaluate_mc,
    mark_indicator,
    multiply,
    product_family,
)
from .prohorov import FinitePointMeasure, prohorov_exact, strassen_check
from .serialize import (
    load_space,
    save_space,
    space_from_obj,
    space_to_obj,
)
from .stats import ConvergenceTable, TwoSampleResult, convergence_table, two_sample_test

__all__ = [
    "__version__",
    # core
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
    # sampling law
    "DistanceMatrixSample",
    "DistanceMatrixLaw",
    "sample",
    "sample_many",
    "exact_law",
    "law_push",
    "law_shift",
    "laws_equal",
    "pair_distance_law",
    "project_mm",
    "mark_marginal",
    "permute",
    "shift",
    # polynomials
    "Polynomial",
    "ProductFamilySpec",
    "constant",
    "distance_monomial",
    "mark_indicator",
    "evaluate_exact",
    "evaluate_mc",
    "multiply",
    "default_family_spec",
    "product_family",
    "default_panel",
    # Prohorov machinery
    "FinitePointMeasure",
    "prohorov_exact",
    "strassen_check",
    # marked Gromov-Prohorov
    "GluedSpace",
    "MgpResult",
    "glue",
    "glue_three",
    "correspondence_cross",
    "mgp_upper",
    "mgp_lower",
    "mgp_exact",
    "mgp_bounds",
    # tightness
    "TightnessReport",
    "SampledFunctionals",
    "ball_masses",
    "modulus_mass",
    "distance_tail",
    "mark_tail",
    "family_tightness",
    "sampled_functionals",
    # generators
    "CoalescentConfig",
    "MoranConfig",
    "kingman",
    "moran",
    "euclidean_cloud",
    # statistics
    "TwoSampleResult",
    "ConvergenceTable",
    "two_sample_test",
    "convergence_table",
    # serialization
    "space_to_obj",
    "space_from_obj",
    "save_space",
    "load_space",
    # errors
    "DomainError",
    "TooLargeError",
    "BudgetError",
    "MarginalError",
    "ParameterError",
    "GluingError",
]
