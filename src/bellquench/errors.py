"""Exception types shared across the package."""


class BellquenchError(Exception):
    """Base class for package-specific errors."""


class ResourceCapError(BellquenchError):
    """A request exceeds a size cap (CLI exit code 4): N beyond the
    dense-solver cap, an estimated peak above momentum.MEMORY_CAP, or
    an evolve time grid above dynamics.MAX_TIME_SAMPLES samples."""


class ThresholdUndefinedError(BellquenchError):
    """A phase diagram has no cross-phase cells, so no threshold exists."""


class InconsistentCorrelatorsError(BellquenchError):
    """Correlators do not define a positive semidefinite two-qubit state."""


class NonFiniteResultError(BellquenchError):
    """A number bound for a CSV artifact is NaN or infinite (CLI exit
    code 3), as when a huge field or time overflows the kernels."""


class FitFailedError(BellquenchError):
    """No optimizer start converged to a usable fit."""


class ConfigError(BellquenchError):
    """Invalid run configuration (bad key, bad value, malformed file)."""
