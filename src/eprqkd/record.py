"""The base of the records that check their input.

A subclass declares its fields as annotations, in order, gives a default as
a class attribute, and checks its values in a ``check`` method. Every
construction, ``replace`` included, first checks the exact type of each
field annotated bool, int or float, in field order (a float field stores an
int of magnitude at most 2**53 as that float, and refuses any other int), and
then runs ``check``.
``FIELDS`` names the fields in order and ``TYPES`` maps each to its
annotation (a string under ``from __future__ import annotations``). An
instance keeps its values in its ``__dict__``, in field order, and refuses
to set or delete one afterwards.
"""
from .errors import ConfigurationError

# The field types a record checks, by annotation; the CLI derives its option
# types from it too.
FIELD_KINDS = {"bool": bool, "int": int, "float": float}
# The largest int every int of whose magnitude a float holds exactly.
_EXACT = 2**53


def require_known_keys(name: str, data, cls: type):
    """Raise ConfigurationError unless the ``name`` mapping ``data`` has only ``cls.FIELDS``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} must be a mapping, got {data!r}")
    unknown = sorted(data.keys() - cls.TYPES.keys())
    if unknown:
        raise ConfigurationError(f"unknown {name} key {unknown[0]!r}")


class Record:
    def __init_subclass__(cls):
        cls.TYPES = dict(cls.__annotations__)
        cls.FIELDS = names = tuple(cls.TYPES)
        # Each field whose annotation is bool, int or float, with that kind.
        cls._KINDS = [(n, FIELD_KINDS[t]) for n, t in cls.TYPES.items() if t in FIELD_KINDS]
        cls._TEMPLATE = {name: vars(cls).get(name) for name in names}
        required = {name for name in names if name not in vars(cls)}
        # After n positional values: the fields a keyword may name, and those it must.
        cls._KEYWORDS = [(set(names[n:]), required - set(names[:n])) for n in range(len(names) + 1)]

    def __init__(self, *args, **kwargs):
        keywords = self._KEYWORDS[len(args)] if len(args) <= len(self.FIELDS) else None
        if keywords is None or not keywords[1] <= kwargs.keys() <= keywords[0]:
            raise TypeError(
                f"{type(self).__name__}() needs each of {self.FIELDS} once, unless it has a default"
            )
        values = vars(self)
        values.update(self._TEMPLATE, **kwargs)
        values.update(zip(self.FIELDS, args))
        # Each value is of its field's exact kind: no subclass (a bool is no
        # int, an IntEnum member no int), since a subclass may spell itself
        # otherwise. A float field stores an int that a float holds exactly
        # as that float, so equal configs write equal bytes, and refuses
        # another int, which no float holds.
        for name, kind in self._KINDS:
            value = values[name]
            if kind is float and type(value) is int and -_EXACT <= value <= _EXACT:
                values[name] = value = float(value)
            if type(value) is not kind:
                raise ConfigurationError(f"{name} must be {kind.__name__}, got {value!r}")
        self.check()

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new record is."""
        return type(self)(**{**vars(self), **changes})

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"
