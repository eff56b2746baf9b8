"""Exception types shared across the library."""

__all__ = [
    "PrefidError",
    "ConfigurationError",
    "DomainError",
    "CapacityError",
    "ResolutionError",
    "PreconditionError",
]


class PrefidError(Exception):
    """Base class for library errors."""


class ConfigurationError(PrefidError):
    """Invalid configuration: bad mode/policy combination, malformed config file."""


class DomainError(PrefidError):
    """Arguments outside an operation's domain (wrong space, empty relation, bad vector)."""


class CapacityError(PrefidError):
    """A requested discretization exceeds the enumeration budget."""


class ResolutionError(PrefidError):
    """The grid is too coarse for the requested construction; refine and retry."""


class PreconditionError(PrefidError):
    """A documented precondition does not hold for the given inputs."""
