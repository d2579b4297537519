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
    """An eigenvalue landed on a grid cell above the requested level; the
    grid cannot resolve the sublevel set.  Refine nx/ny or shrink window."""


class SeedNotFoundError(NumericalError):
    """No boundary curve to report: no requested level has a curve inside
    the window."""


class BracketError(PreconditionError):
    """A bisection bracket does not satisfy its endpoint conditions."""


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
    """Component count never dropped below its starting value up to the
    largest admissible level."""
