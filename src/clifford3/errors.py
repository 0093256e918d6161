"""Exception types shared across the package."""
from __future__ import annotations


class Clifford3Error(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class UsageError(Clifford3Error):
    """The command line does not parse: a bad option or choice, a missing flag."""


class RankUnsupported(Clifford3Error):
    """Only ranks 1, 2 and 3 are modeled."""


class CongruenceViolation(Clifford3Error):
    """A stability degree fails its congruence mod the rank."""

    def __init__(self, r: int, message: str):
        super().__init__(message)
        self.r = r


class NotSemistable(Clifford3Error):
    """Operation requires all stability degrees to be nonnegative."""


class NotUnstable(Clifford3Error):
    """Operation requires at least one negative stability degree."""


class HypothesisFailed(Clifford3Error):
    """A named hypothesis of a bound does not hold for the given input."""


class MissingS1F(Clifford3Error):
    """The bound needs the first stability degree of a minimal rank-2 quotient."""


class OutOfModeledRange(Clifford3Error):
    """Exact section counts are only modeled on a restricted parameter range."""


class OracleRangeExceeded(Clifford3Error):
    """The brute-force polynomial oracle is capped to keep it honest and fast."""


class IndexNegative(Clifford3Error):
    """The derived coefficient index is negative."""


class SlopeOutOfRange(Clifford3Error):
    """The slope-based bound only applies to rank-3 degrees below 6."""


class HypothesisUnverifiable(Clifford3Error):
    """The recorded dimension bounds cannot certify a generic sequence."""


class ParamsOutOfRange(Clifford3Error):
    """Example-family parameters outside their admissible range."""


class UnrealizableF(Clifford3Error):
    """No direct sum of powers of the degree-2 pencil matches the request."""
