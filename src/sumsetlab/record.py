"""Frozen value records without generated code.

A subclass of Record declares its fields as class annotations, in order;
a class-level value is that field's default.  Record takes the fields by
position or by name, runs ``__post_init__``, refuses assignment and
deletion, compares and hashes the fields, and prints them as
``Name(field=value, ...)``.  A field named in the class attribute
``_uncompared`` still prints but takes no part in equality or hashing.

Defining a subclass only records its field names, defaults and compared
fields, so importing the package generates and compiles no code.  An
attribute set in ``__post_init__`` through ``object.__setattr__`` that
is not annotated is not a field: it is neither printed nor compared.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a Record."""


class Record:
    # Each subclass gets its own _fields when it is defined; a subclass
    # body may set _uncompared.
    _fields = ()
    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._compared_values = attrgetter(*cls._compared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        # Every field given exactly once; anything else binds the slow way.
        if len(args) + len(kwargs) != len(values) or values.keys() != self._names:
            values = self._bind(args, kwargs)
        state = self.__dict__
        for field in self._fields:
            state[field] = values[field]
        self.__post_init__()

    def _bind(self, args, kwargs) -> dict:
        """The fields of a call that leaves some to their defaults, or the
        TypeError of a call that gives too many, too few or unknown ones."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(self._defaults)
        values.update(zip(fields, args))
        for field, value in kwargs.items():
            if field not in self._names:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, field, value):
        raise FrozenRecordError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise FrozenRecordError(f"cannot delete field {field!r}")

    def __repr__(self):
        state = self.__dict__
        inner = ", ".join(f"{field}={state[field]!r}" for field in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._compared_values
        return values(self) == values(other)

    def __hash__(self):
        # The hash of the tuple of compared fields, as a dataclass hashes.
        state = self.__dict__
        return hash(tuple([state[field] for field in self._compared]))

    def replace(self, **changes):
        """A new record with the given fields changed, built (and checked)
        through the constructor."""
        state = self.__dict__
        values = {field: state[field] for field in self._fields}
        values.update(changes)
        return type(self)(**values)
