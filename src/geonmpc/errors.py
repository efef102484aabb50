"""Exception types shared across the package."""


class GeonmpcError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GeonmpcError):
    """Operands have incompatible shapes."""


class SingularMatrix(GeonmpcError):
    """A dense matrix is singular or too ill-conditioned to invert."""


class ChartDomainViolation(GeonmpcError):
    """A state left the domain of the local parametrization."""


class ProjectionDivergence(GeonmpcError):
    """A manifold projection iteration failed to reach tolerance."""


class InitializationFailure(GeonmpcError):
    """The decision-vector initialization did not converge.

    Carries the final residual norm and the damping history so the caller
    can see how the Newton iteration died.
    """

    def __init__(self, message, final_residual=None, damping_history=None):
        super().__init__(message)
        self.final_residual = final_residual
        self.damping_history = damping_history or []


class ConfigError(GeonmpcError):
    """Simulator configuration file or value is invalid."""


class SimulationAborted(GeonmpcError):
    """The closed-loop run hit a solver or integrator error mid-loop.

    Carries the records collected up to the failure so partial output can
    still be inspected; the error that stopped the loop is __cause__.
    """

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []
