"""Exception types shared across the package."""


class HydrohistError(Exception):
    """Base class for all package-specific errors."""


class DegenerateStateError(HydrohistError):
    """A state with no usable mass (e.g. an all-zero grid) was supplied."""


class ResolutionError(HydrohistError):
    """A grid is too coarse or too narrow for the requested operation."""


class StepSizeError(HydrohistError):
    """A time step violates the stability bound of an explicit scheme."""


class DivergenceError(HydrohistError):
    """An integrator produced non-finite values."""


class FitQualityError(HydrohistError):
    """Input data is unsuitable for the requested fit (degenerate or non-monotone)."""


class DimensionCapError(HydrohistError):
    """A requested Hilbert-space dimension exceeds the configured cap."""


class UndefinedFluctuationError(HydrohistError):
    """Relative fluctuation requested for a bin with zero occupation probability."""


class ConfigurationError(HydrohistError):
    """A scenario configuration is malformed or inconsistent."""


class ScenarioError(HydrohistError):
    """A scenario runner failed; the original exception is the __cause__."""
