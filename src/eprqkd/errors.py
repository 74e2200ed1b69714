"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """A run or operation was given parameters it cannot work with."""


class InsufficientPairsError(ConfigurationError):
    """A check or key had no pairs left to draw from. Within a run this is a
    per-trial abort, not a bad configuration."""


class ProtocolOrderError(RuntimeError):
    """An operation was invoked out of protocol order, or on particles the
    acting party does not hold."""

