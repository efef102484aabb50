"""Structure-preserving NMPC on smooth manifolds.

The package layers a matrix-free Newton-Krylov predictive controller on
top of geometric one-step integrators: guarded LAPACK and GMRES kernels at
the bottom, manifold-aware steppers and a single-shooting horizon transcription
in the middle, and a closed-loop simulator with CSV telemetry on top.
"""

from .config import SimConfig, load_config
from .errors import (
    ChartDomainViolation,
    ConfigError,
    DimensionMismatch,
    GeonmpcError,
    InitializationFailure,
    ProjectionDivergence,
    SimulationAborted,
    SingularMatrix,
)
from .gmres import (
    GmresConfig,
    GmresReport,
    LinearOperator,
    gmres_solve,
    matrix_operator,
)
from .hemisphere import (
    HemisphereParams,
    ambient_dynamics,
    chart_dynamics,
    hemisphere_chart,
    initial_guess,
    make_problem,
    plant_step,
    sphere_constraint,
)
from .horizon import (
    DecisionLayout,
    HorizonGrid,
    HorizonProblem,
    OcpDefinition,
    euler_stepper,
)
from .manifold import (
    ManifoldChart,
    ManifoldConstraint,
    OneStepMethod,
    explicit_euler,
    local_coordinates_step,
    project_onto_manifold,
    standard_projection_step,
    symmetric_projection_step,
    trapezoidal,
)
from .simulate import (
    PrecondComparison,
    TrajectoryRecord,
    compare_preconditioning,
    emit_plot_data,
    run_simulation,
)
from .solver import NmpcController, SampleTelemetry, SolverConfig

__version__ = "0.1.0"

__all__ = [
    "ChartDomainViolation",
    "ConfigError",
    "DecisionLayout",
    "DimensionMismatch",
    "GeonmpcError",
    "GmresConfig",
    "GmresReport",
    "HemisphereParams",
    "HorizonGrid",
    "HorizonProblem",
    "InitializationFailure",
    "LinearOperator",
    "ManifoldChart",
    "ManifoldConstraint",
    "NmpcController",
    "OcpDefinition",
    "OneStepMethod",
    "PrecondComparison",
    "ProjectionDivergence",
    "SampleTelemetry",
    "SimConfig",
    "SimulationAborted",
    "SingularMatrix",
    "SolverConfig",
    "TrajectoryRecord",
    "ambient_dynamics",
    "chart_dynamics",
    "compare_preconditioning",
    "emit_plot_data",
    "euler_stepper",
    "explicit_euler",
    "gmres_solve",
    "hemisphere_chart",
    "initial_guess",
    "load_config",
    "local_coordinates_step",
    "make_problem",
    "matrix_operator",
    "plant_step",
    "project_onto_manifold",
    "run_simulation",
    "sphere_constraint",
    "standard_projection_step",
    "symmetric_projection_step",
    "trapezoidal",
    "__version__",
]
