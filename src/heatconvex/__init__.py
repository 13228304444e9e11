"""Heat flow and generalized convexity toolkit.

A transform F turns plain convexity into F-convexity of a nonnegative
function u (meaning F(u) is convex), and the package answers, numerically,
which transforms keep that structure under the heat semigroup.  Four layers:

- :mod:`heatconvex.transforms`: admissible transforms, their curvature
  profiles, the preservation classifier and the strength order.
- :mod:`heatconvex.heatflow`: free-space and Dirichlet heat evolution with
  certified quadrature error and growth bookkeeping.
- :mod:`heatconvex.certify`: midpoint-inequality certificates, violation
  hunting, mixture envelopes, and the envelope comparison check.
- :mod:`heatconvex.cli`: the ``heatconvex`` command (classify / evolve /
  verify / hunt).
"""

from .numerics import DomainError
from .transforms import (
    ClassReport,
    FTransform,
    GSpec,
    StrengthComparison,
    abs_kink_generator,
    builtin_transforms,
    classify,
    compare_strength,
    make_affine,
    make_exp,
    make_from_g,
    make_hot,
    make_neglog,
    make_power_alpha,
    scale_shift,
)
from .heatflow import (
    DomainSpec,
    EvaluationWindowError,
    ExistenceWindowError,
    GridFunction,
    InitialDatum,
    grid_nodes,
    heat_evolve_dirichlet,
    heat_evolve_free,
    hot_h,
)
from .certify import (
    Certificate,
    EnvelopeComparison,
    MidpointSample,
    SamplingPlan,
    check_F_convex,
    check_envelope_comparison,
    check_quasi_convex,
    counterexample_datum,
    hunt_violation,
    mixture_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ClassReport",
    "DomainError",
    "DomainSpec",
    "EnvelopeComparison",
    "EvaluationWindowError",
    "ExistenceWindowError",
    "FTransform",
    "GSpec",
    "GridFunction",
    "InitialDatum",
    "MidpointSample",
    "SamplingPlan",
    "StrengthComparison",
    "abs_kink_generator",
    "builtin_transforms",
    "check_F_convex",
    "check_envelope_comparison",
    "check_quasi_convex",
    "classify",
    "compare_strength",
    "counterexample_datum",
    "grid_nodes",
    "heat_evolve_dirichlet",
    "heat_evolve_free",
    "hot_h",
    "hunt_violation",
    "make_affine",
    "make_exp",
    "make_from_g",
    "make_hot",
    "make_neglog",
    "make_power_alpha",
    "mixture_envelope",
    "scale_shift",
    "__version__",
]
