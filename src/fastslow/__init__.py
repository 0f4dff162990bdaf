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
    default_z_grid,
    homogenization_defect,
    q_field,
    simulate_averaged,
    time_average_defect,
    write_averaged_csv,
)
from .deviations import (
    CertificateReport,
    CorrectorProbe,
    DeltaReport,
    SweepCell,
    TermStat,
    corrector_path,
    dissipation_field,
    lyapunov_certificate,
    mdp_speed,
    negligibility_sweep,
    write_sweep_csv,
)
from .errors import (
    CertificateError,
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
    brownian_sampler,
    check_exponential_inequality,
    count_trend_violations,
    exponential_inequality_grid,
    frozen_martingale_sampler,
    gaussian_surrogate_sweep,
    negligibility_xi,
    stopped_brownian_sampler,
    tail_probability,
    wilson_interval,
    write_tail_csv,
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
    FluctuationSplit,
    GrowthReport,
    PoissonFamily,
    PoissonSolution,
    build_truncated_fluctuation,
    growth_probe,
    solve_family,
    solve_poisson,
)
from .ratefn import (
    ActionValue,
    DiscretePath,
    HalfSpaceEvent,
    action,
    mdp_prediction,
    minimize_endpoint,
    write_rate_path_csv,
)
from .simulate import (
    PathSample,
    micro_substeps,
    path_generator,
    rho_T,
    simulate_block,
    simulate_frozen,
    simulate_pair,
    write_path_csv,
)
from .stationary import (
    check_centering,
    invariant_density,
    invariant_density_1d,
    invariant_density_2d,
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
    "CertificateError",
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
    "PathSample",
    "simulate_pair",
    "simulate_frozen",
    "simulate_block",
    "rho_T",
    "path_generator",
    "micro_substeps",
    "write_path_csv",
    # stationary densities
    "invariant_density",
    "invariant_density_1d",
    "invariant_density_2d",
    "invariant_density_empirical",
    "check_centering",
    # cell problem
    "PoissonSolution",
    "PoissonFamily",
    "FluctuationSplit",
    "GrowthReport",
    "solve_poisson",
    "solve_family",
    "build_truncated_fluctuation",
    "growth_probe",
    # averaging
    "AveragedModel",
    "averaged_coefficients",
    "simulate_averaged",
    "homogenization_defect",
    "time_average_defect",
    "q_field",
    "default_z_grid",
    "write_averaged_csv",
    # corrector deviations
    "DeltaReport",
    "corrector_path",
    "CorrectorProbe",
    "TermStat",
    "SweepCell",
    "negligibility_sweep",
    "mdp_speed",
    "dissipation_field",
    "CertificateReport",
    "lyapunov_certificate",
    "write_sweep_csv",
    # rate function
    "DiscretePath",
    "ActionValue",
    "HalfSpaceEvent",
    "action",
    "minimize_endpoint",
    "mdp_prediction",
    "write_rate_path_csv",
    # Monte Carlo engine
    "Event",
    "TailEstimate",
    "tail_probability",
    "gaussian_surrogate_sweep",
    "exponential_inequality_grid",
    "check_exponential_inequality",
    "brownian_sampler",
    "stopped_brownian_sampler",
    "frozen_martingale_sampler",
    "negligibility_xi",
    "boundedness_Y",
    "count_trend_violations",
    "wilson_interval",
    "write_tail_csv",
]
