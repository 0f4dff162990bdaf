"""Exception hierarchy.

Everything raised on purpose by this package derives from FastslowError so
callers (and the CLI) can distinguish configuration problems from numerical
failures.
"""


class FastslowError(Exception):
    """Base class for all package errors."""


class ConfigError(FastslowError):
    """Malformed or rejected configuration input."""


class ManifestError(FastslowError):
    """An existing manifest.json cannot be read or is not this package's."""


class GridDomainError(FastslowError):
    """A point fell outside a tabulated grid, or a grid is unusable."""


class FredholmError(FastslowError):
    """Right-hand side not orthogonal to the invariant density (no solution)."""


class SingularOperatorError(FastslowError):
    """Discretized operator has a numerically degenerate null space."""


class SimulationBlowupError(FastslowError):
    """A trajectory left the representable range (non-finite state)."""

    def __init__(self, message, time_index=None, time=None):
        super().__init__(message)
        self.time_index = time_index
        self.time = time


class ConvergenceError(FastslowError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, last_value=None, last_grad_norm=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_grad_norm = last_grad_norm


class CertificateError(FastslowError):
    """No drift-coercivity radius visible on the supplied grid."""

    def __init__(self, message, K=None, dv_field=None):
        super().__init__(message)
        self.K = K
        self.dv_field = dv_field
