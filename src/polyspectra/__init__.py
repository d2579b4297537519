"""polyspectra: weighted pseudospectra of matrix polynomials.

Level sets of the smallest-singular-value surface, sublevel component
counting, boundary tracing, fault (surface-crossing) detection, and explicit
nearest perturbations carrying multiple eigenvalues.
"""

__version__ = "0.1.0"

from .errors import (
    ConstructionError,
    GridTooCoarseError,
    InputError,
    NotFoundWithinBudgetError,
    NumericalError,
    PolyspectraError,
    PreconditionError,
    SaddleAtEigenvalueError,
    SaddleNotConvergedError,
    SaddleOnFaultError,
    SaddleOutsideWindowError,
    SaddleSearchError,
    SeedNotFoundError,
    SingularLeadingCoefficientError,
)
from .faultlines import (
    FaultReport,
    SurfaceIndexMap,
    build_surface_map,
    collapsed_gap,
    fault_scan,
    is_fault_point,
)
from .contours import BoundaryCurve, Termination, boundary_curves, on_curve_tolerance
from .matpoly import (
    EigenReport,
    MatrixPolynomial,
    WeightPolynomial,
    eigenvalues,
    evaluate,
    evaluate_many,
    geometric_multiplicity,
    max_norm,
    weight_deriv_eval,
    weight_eval,
)
from .perturbations import (
    BallClassification,
    BallMembership,
    DistanceResult,
    MultiplicityCertificate,
    PerturbationSet,
    SaddleResult,
    ball_membership,
    build_qhat,
    build_qtilde,
    certify_multiple,
    distance_to_eigenvalue,
    distance_to_multiple,
    find_saddle,
    multiple_criterion,
)
from .pseudospectrum import (
    ComponentReport,
    GridSpec,
    Levels,
    ScalarField,
    boundedness_check,
    components,
    compute_field,
    default_window,
    merge_bracket,
)
from .svdcore import (
    F_eps,
    SingularTripletSet,
    s_min,
    singular_triplets,
    singular_values_many,
)
