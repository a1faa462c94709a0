"""Exception types raised by rakeuq.

Every error the library raises deliberately derives from :class:`RakeUqError`,
so callers can catch one type at the boundary. The CLI maps these onto exit
codes: schema problems exit 2, numeric failures exit 3 and an exhausted ridge
ladder exits 4.
"""


class RakeUqError(Exception):
    """Base class for all rakeuq errors."""


class SchemaError(RakeUqError):
    """An input file failed schema or semantic validation."""

    def __init__(self, message: str, field: str = ""):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class SingularDesign(RakeUqError):
    """The design matrix is numerically singular and no ridge was requested."""


class RegularizationExhausted(RakeUqError):
    """Every ladder lambda still left the coefficient norm at or above beta."""


class OutOfDomain(RakeUqError):
    """A radial fraction fell outside the unit interval."""


class DimensionMismatch(RakeUqError):
    """Array shapes are inconsistent with the model or geometry."""


class RequiresIidNoise(RakeUqError):
    """The operation is only valid for scalar-diagonal measurement noise."""


class InvalidParams(RakeUqError):
    """A parameter is outside its admissible range."""


class DegenerateRatio(RakeUqError):
    """The efficiency denominator vanished (equal or invalid pressures)."""


class InvalidCorrelation(RakeUqError):
    """A correlation value or matrix is not admissible."""


class NotPSD(RakeUqError):
    """A covariance matrix has a meaningfully negative eigenvalue."""


class TooFewSamples(RakeUqError):
    """A sample statistic needs more observations than were supplied."""


class NegativeComponent(RakeUqError):
    """An uncertainty budget component is negative."""


class NegativeVariance(RakeUqError):
    """An analytically nonnegative variance came out meaningfully negative."""


class DrawFailed(RakeUqError):
    """Too many Monte Carlo draws failed to fit."""
