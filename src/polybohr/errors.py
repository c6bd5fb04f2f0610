"""Exception types shared across the package."""


class PolybohrError(Exception):
    """Base class for all package errors."""


class DomainError(PolybohrError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CertificationError(PolybohrError, ValueError):
    """An operation requires a series certified to lie in the Schur class."""


class PreconditionError(PolybohrError, ValueError):
    """A structural precondition (equimodularity, radius range, ...) fails."""


class WitnessSearchError(PolybohrError, RuntimeError):
    """No sharpness witness was found on the search grid."""
