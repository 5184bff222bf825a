"""Exception types shared across the laboratory modules."""


class LabError(Exception):
    """Base class for all rmflab errors."""


class ConfigurationError(LabError, ValueError):
    """A build or experiment parameter is outside the supported range."""


class RangeError(LabError, ValueError):
    """A query exceeds the limit of a precomputed table or series."""


class DomainError(LabError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class PreconditionError(LabError, ValueError):
    """A stated precondition of an operation is violated."""


class FitError(LabError, ValueError):
    """Not enough usable data points to produce a regression fit."""
