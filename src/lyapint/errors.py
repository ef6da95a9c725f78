"""Exception types shared across the package."""


class DomainError(ValueError):
    """A state lies outside the domain of a vector field or integral map."""


class IntegrationError(RuntimeError):
    """A scheme produced non-finite values, or (as a subclass) its
    projection failed.

    The ``step`` attribute carries the 1-based step index once the failing
    step is known (attached by the trajectory driver).
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ProjectionError(IntegrationError):
    """Newton projection failed to reach its residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class RankError(IntegrationError):
    """Constraint Jacobian is numerically rank-zero; projection is undefined."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad method/system pairing, etc.)."""
