"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """A run or operation was given parameters it cannot work with."""


class InsufficientPairsError(ConfigurationError):
    """A check or key had no pairs left to draw from. Within a run this is a
    per-trial abort, not a bad configuration."""


class ProtocolOrderError(RuntimeError):
    """An operation was invoked out of protocol order, or on particles the
    acting party does not hold."""


def require_type(name: str, value, kind: type):
    """Raise ConfigurationError naming ``name`` unless ``value`` is a
    ``kind``: bool, int, or float (which admits ints too). A bool is never
    taken for a number."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ConfigurationError(f"{name} must be {kind.__name__}, got {value!r}")
