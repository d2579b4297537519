"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: parse errors -> 2,
numerical failures -> 3, precondition violations -> 4.
"""


class PolyspectraError(Exception):
    """Base class for all library errors."""


class InputError(PolyspectraError):
    """Malformed problem specification (bad JSON, bad field, bad shape)."""


class PreconditionError(PolyspectraError):
    """An operation was called outside its documented domain."""


class NumericalError(PolyspectraError):
    """A numerical procedure failed or exhausted its budget."""


class SingularLeadingCoefficientError(NumericalError):
    """Leading coefficient is numerically singular; the finite eigenvalue
    count would drop below n*m."""


class GridTooCoarseError(NumericalError):
    """The grid cannot resolve the sublevel sets asked about: an
    eigenvalue's nearest node lies above the requested level
    (``components``), ``distance``'s floor level (twice the largest value
    at the eigenvalues' nodes) reaches its budget, or two of the points'
    nodes already share a component at the bottom of the merge search
    (``merge_bracket``).  Refine nx/ny or shrink the window."""


class SeedNotFoundError(NumericalError):
    """No boundary curve to report: no requested level has a curve inside
    the window."""


class ConstructionError(NumericalError):
    """An explicit perturbation failed its residual check."""


class SaddleSearchError(NumericalError):
    """Base class for stationary-point search failures."""


class SaddleOutsideWindowError(SaddleSearchError):
    """Iterates left the search window."""


class SaddleAtEigenvalueError(SaddleSearchError):
    """Iterates converged to the spectrum (smallest singular value -> 0)."""


class SaddleOnFaultError(SaddleSearchError):
    """Iterates landed on a surface crossing that could not be certified as
    a merge point."""


class SaddleNotConvergedError(SaddleSearchError):
    """Iteration budget exhausted without meeting the stationarity test."""


class NotFoundWithinBudgetError(NumericalError):
    """No two of the points' nodes share a component at the top of the
    merge search (``merge_bracket``): for ``distance``, the eigenvalues'
    components are still apart at the largest admissible level."""
