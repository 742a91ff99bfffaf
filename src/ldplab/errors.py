"""Exception types shared across the package."""


class LdpLabError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(LdpLabError):
    """An iterative numerical routine (eigensolver, matrix inverse) failed."""


class DimensionMismatch(LdpLabError):
    """Operands have incompatible dimensions."""


class DomainError(LdpLabError, ValueError):
    """An argument is malformed or lies outside the operation's domain."""


class RecoveryFailure(LdpLabError):
    """Power-sum peeling did not stabilize within the available indices."""


class UnsupportedLaw(LdpLabError):
    """No closed-form characteristic function is available for this law."""


class InfeasibleExperiment(LdpLabError):
    """A Monte Carlo experiment cannot resolve the target probability."""
