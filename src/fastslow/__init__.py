"""Simulation and verification toolkit for fast-slow diffusions.

The package simulates coupled fast-slow SDE systems, computes the objects of
the averaging pipeline — invariant densities of the frozen fast flow, centered
cell-problem solutions, averaged coefficients — and quantifies how rare-event
probabilities of the slow integral functional scale, by comparing Monte Carlo
tail estimates against quadratic path-action predictions at the deviation
speed eps^(1 - 2 kappa).
"""

from .averaging import (
    AveragedModel,
    averaged_coefficients,
    homogenization_defect,
)
from .deviations import CorrectorProbe, mdp_speed
from .errors import (
    ConfigError,
    ConvergenceError,
    FastslowError,
    FredholmError,
    GridDomainError,
    ManifestError,
    SimulationBlowupError,
    SingularOperatorError,
)
from .grids import GridField, RectGrid, corrected_cumtrapz, multilinear
from .mcengine import (
    Event,
    TailEstimate,
    boundedness_Y,
    count_trend_violations,
    exponential_inequality_grid,
    gaussian_surrogate_sweep,
    negligibility_sweep,
    negligibility_xi,
    tail_probability,
    wilson_interval,
)
from .model import (
    BENCHMARKS,
    ModelSpec,
    ValidationReport,
    Violation,
    diffusion_matrix,
    get_benchmark,
    validate_model,
)
from .poisson import (
    PoissonFamily,
    PoissonSolution,
    solve_family,
    solve_poisson,
)
from .ratefn import (
    ActionValue,
    DiscretePath,
    action,
    minimize_endpoint,
)
from .simulate import (
    micro_substeps,
    path_generator,
    simulate_block,
)
from .stationary import (
    check_centering,
    invariant_density,
    invariant_density_empirical,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FastslowError",
    "ConfigError",
    "ManifestError",
    "GridDomainError",
    "FredholmError",
    "SingularOperatorError",
    "SimulationBlowupError",
    "ConvergenceError",
    # grids
    "RectGrid",
    "GridField",
    "multilinear",
    "corrected_cumtrapz",
    # model
    "ModelSpec",
    "Violation",
    "ValidationReport",
    "validate_model",
    "diffusion_matrix",
    "get_benchmark",
    "BENCHMARKS",
    # simulation
    "simulate_block",
    "path_generator",
    "micro_substeps",
    # stationary densities
    "invariant_density",
    "invariant_density_empirical",
    "check_centering",
    # cell problem
    "PoissonSolution",
    "PoissonFamily",
    "solve_poisson",
    "solve_family",
    # averaging
    "AveragedModel",
    "averaged_coefficients",
    "homogenization_defect",
    # corrector deviations
    "CorrectorProbe",
    "mdp_speed",
    # rate function
    "DiscretePath",
    "ActionValue",
    "action",
    "minimize_endpoint",
    # Monte Carlo engine
    "Event",
    "TailEstimate",
    "tail_probability",
    "gaussian_surrogate_sweep",
    "exponential_inequality_grid",
    "negligibility_xi",
    "boundedness_Y",
    "negligibility_sweep",
    "count_trend_violations",
    "wilson_interval",
]
