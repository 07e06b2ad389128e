"""Exception hierarchy shared by all modules.

Two broad failure classes matter downstream: data/argument validation
problems (CLI exit code 3) and numerical degeneracies such as non-PSD
covariances or zero normalizations (CLI exit code 4).
"""

__all__ = ["MarkedPointsError", "ValidationError", "NumericalError"]


class MarkedPointsError(Exception):
    """Base class for all package errors."""


class ValidationError(MarkedPointsError):
    """Invalid data, domain, or argument (CLI exit code 3)."""


class NumericalError(MarkedPointsError):
    """Numerical failure: non-PSD covariance, degenerate normalization (CLI exit code 4)."""
