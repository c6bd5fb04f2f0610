"""Sharp coefficient-majorant radii for maps into the closed unit polydisc.

The library works on one-variable slices of holomorphic maps from a Banach
ball into the closed polydisc.  It evaluates three majorant functionals
(a squared form, a refined form with an initial-value exponent, and a form
composed with a vanishing-to-order-k self-map) plus the classical majorant
sum, each as a rigorous two-sided enclosure; solves for the sharp radii;
certifies sharpness with extremal-family witnesses; and reproduces the
counterexamples showing the equal-modulus hypothesis cannot be dropped.
"""

from .errors import (
    CertificationError,
    DomainError,
    PolybohrError,
    PreconditionError,
    SolverError,
    WitnessSearchError,
)
from .series import (
    DEFAULT_ORDER,
    TailBudget,
    TruncatedSeries,
    eval_series_many,
    mobius_series,
    random_schur_series,
    random_schur_series_many,
    schur_series_from_params,
    tail_bound,
)
from .slices import (
    DEFAULT_PHASES,
    CoefficientNorms,
    PolydiscSlice,
    coefficient_norms,
    random_equimodular_slice,
    random_equimodular_slices,
    schwarz_compose,
    schwarz_pick_bound,
    slice_tail_bound,
    sup_modulus,
)
from .functionals import (
    VERIFY_TOL,
    FunctionalSpec,
    FunctionalValue,
    eval_functional,
    verify_theorem,
)
from .radii import (
    CLASSICAL_RADIUS,
    REFINED_RADIUS_P1,
    REFINED_RADIUS_P2,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    RadiusResult,
    check_slack_factorization,
    closed_form_radius,
    composed_extremal_excess,
    composed_functional_bound,
    composed_radius_equation,
    refined_extremal_excess_p1,
    refined_extremal_excess_p2,
    refined_slack_p1,
    refined_slack_p2,
    slack_polynomial,
    slack_polynomial_factored,
    solve_decreasing_root,
    solve_radius,
    squared_functional_slack,
)
from .sharpness import (
    CounterexampleReport,
    SharpnessWitness,
    counterexample_analytic_bound,
    extremal_slice,
    find_witness,
    reproduce_counterexample,
    witness_lambda_grid,
)

__version__ = "0.1.0"

#: The README quick-start API plus the exception classes.  The other names
#: imported above stay importable from the package, as tests and the
#: benchmark use them, but are not part of the star-import surface.
__all__ = [
    "FunctionalSpec",
    "PolydiscSlice",
    "closed_form_radius",
    "eval_functional",
    "extremal_slice",
    "find_witness",
    "mobius_series",
    "verify_theorem",
    "CertificationError",
    "DomainError",
    "PolybohrError",
    "PreconditionError",
    "SolverError",
    "WitnessSearchError",
]
