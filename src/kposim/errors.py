"""Exception taxonomy for the package.

Every error raised by library code derives from :class:`KposimError` so that
callers (and the command-line layer) can distinguish usage mistakes, physics /
numerics failures, and I/O problems.
"""

__all__ = [
    "KposimError",
    "UsageError",
    "InvalidDimensionError",
    "TruncationError",
    "BasisError",
    "ScheduleError",
    "StiffnessError",
    "AccuracyError",
    "FitError",
    "DegenerateDataError",
    "CalibrationError",
    "ReconstructionError",
    "SpanError",
    "GridExtentError",
    "ConvergenceError",
    "ConfigError",
]


class KposimError(Exception):
    """Base class for all package-specific errors."""


class UsageError(KposimError):
    """An argument was syntactically valid but not an allowed choice."""


class InvalidDimensionError(UsageError):
    """Fock-space dimension too small (or otherwise unusable)."""


class TruncationError(KposimError):
    """The requested object does not fit in the truncated Fock space."""


class BasisError(KposimError):
    """A qubit basis is missing, non-orthogonal, or could not be identified."""


class ScheduleError(UsageError):
    """A pulse schedule is malformed (bad durations, discontinuous pump, ...)."""


class StiffnessError(KposimError):
    """The adaptive integrator failed to advance (step size underflow)."""


class AccuracyError(KposimError):
    """A propagation post-condition (norm/trace conservation) was violated."""


class FitError(KposimError):
    """Nonlinear least-squares fit did not converge."""


class DegenerateDataError(FitError):
    """The data carry no usable signal for the requested fit (e.g. constant)."""


class CalibrationError(KposimError):
    """A pulse or gate calibration could not reach its target."""


class ReconstructionError(KposimError):
    """Density-matrix reconstruction failed (conditioning or convergence)."""


class SpanError(KposimError):
    """Process-tomography input states do not span the operator space."""


class GridExtentError(KposimError):
    """A feature touches the edge of the sampled grid, so it cannot be located."""


class ConvergenceError(KposimError):
    """A convergence-with-dimension (or iteration) gate failed."""


class ConfigError(UsageError):
    """An experiment configuration file is invalid."""
