"""Exception types shared across the simulator, and the config type checks."""


class ConfigurationError(ValueError):
    """A run or operation was given parameters it cannot work with."""


class InsufficientPairsError(ConfigurationError):
    """A check or key had no pairs left to draw from. Within a run this is a
    per-trial abort, not a bad configuration."""


class ProtocolOrderError(RuntimeError):
    """An operation was invoked out of protocol order, or on particles the
    acting party does not hold."""


# The config field types by annotation, which is a string under ``from
# __future__ import annotations``; the CLI derives its option types from it too.
FIELD_KINDS = {"bool": bool, "int": int, "float": float}


def require_field_types(obj):
    """Raise ConfigurationError naming the first field of the record ``obj``
    (a ``record.Record``) whose ``TYPES`` entry is bool, int or float and
    whose value is not one. A float field admits ints too; a bool is never
    taken for a number."""
    for name, annotation in obj.TYPES.items():
        kind, value = FIELD_KINDS.get(annotation), getattr(obj, name)
        allowed = (int, float) if kind is float else kind
        if kind and (isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed)):
            raise ConfigurationError(f"{name} must be {kind.__name__}, got {value!r}")


def require_known_keys(name: str, data, cls: type):
    """Raise ConfigurationError unless the ``name`` mapping ``data`` has only ``cls.FIELDS``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} must be a mapping, got {data!r}")
    unknown = sorted(data.keys() - cls.TYPES.keys())
    if unknown:
        raise ConfigurationError(f"unknown {name} key {unknown[0]!r}")
