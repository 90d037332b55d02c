"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class DegenerateBranchError(ValueError):
    """A measurement branch with (numerically) zero probability was requested."""


class DeviceError(ValueError):
    """A device graph violates its structural invariants."""


class ConvergenceError(RuntimeError):
    """A step-doubling check failed, or a readout left the code pair."""


class ConfigError(ValueError):
    """A run configuration failed validation."""
