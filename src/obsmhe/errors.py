"""Exception hierarchy shared by all obsmhe modules."""


class ObsMheError(Exception):
    """Base class for all library errors."""


class DomainViolation(ObsMheError):
    """A trajectory entered a region where the output map is undefined."""


class GridMismatch(ObsMheError):
    """A time, breakpoint or signal grid does not align with the integration grid."""


class EigFailure(ObsMheError):
    """The Jacobi eigenvalue iteration failed to converge (pathological scaling)."""


class Unbounded(ObsMheError):
    """A sampled trajectory norm exceeded the overflow guard."""


class CertificationInconclusive(ObsMheError):
    """A window Grammian is numerically singular but the flat-cost witness check
    failed, so neither a positive nor a negative persistence verdict is supported.
    Carries the scanned window reports (`windows`)."""

    def __init__(self, message, windows=()):
        super().__init__(message)
        self.windows = windows


class DimensionMismatch(ObsMheError):
    """A noise signal's width differs from the dimension of the channel it enters."""


class SingularWindow(ObsMheError):
    """The window Grammian has no usable smallest eigenvalue for a stability audit."""


class MaxItersExceeded(ObsMheError):
    """The local solver hit its iteration cap before reaching stationarity."""


class BoundaryStuck(ObsMheError):
    """Two consecutive solver steps were projected onto the trust-ball boundary;
    the minimizer is outside the ball or the radius is too small."""


class ConditionsFailed(ObsMheError):
    """A hypothesis inequality of the uniform stability audit does not hold.

    Carries the completed audit so callers can still inspect the numbers.
    """

    def __init__(self, message, audit=None):
        super().__init__(message)
        self.audit = audit


class ConfigError(ObsMheError):
    """Invalid experiment configuration; `field` holds the offending path."""

    def __init__(self, message, field=""):
        super().__init__(message)
        self.field = field
