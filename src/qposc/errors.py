"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when an argument lies outside the admissible parameter domain."""


class ConsistencyError(RuntimeError):
    """Raised when a solver detects a state that contradicts the model's
    structural guarantees (e.g. a curve sample whose residual is not near
    zero); the message names the measured quantity and its limit."""
