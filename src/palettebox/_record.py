"""Immutable records compared by their fields, built without generated code.

The standard library's record decorator imports ``inspect`` and its
parsers, and compiles each decorated class's methods from source; together
they cost a CLI process more start-up time than most commands spend
working.  Here every record class shares the same few closures instead.

A record declares its fields as class annotations, in order.  A class
attribute of the same name is the field's default, and
``field(default=..., compare=False)`` also keeps a field out of equality
and hashing.  The class's own ``__post_init__``, if any, checks each new
instance.  ``cached_property`` works, because it writes the instance
``__dict__`` directly.
"""

from operator import attrgetter

_MISSING = object()


class field:
    """Options of one field: its default, and whether equality and hashing read it."""

    __slots__ = ("default", "compare")

    def __init__(self, *, default=_MISSING, compare=True):
        self.default = default
        self.compare = compare


def frozen(cls):
    """Give ``cls`` an ``__init__``, field equality, hashing and a repr, and make it immutable.

    Methods the class body defines itself are kept.
    """
    names = tuple(cls.__annotations__)
    defaults, compared = {}, []
    for name in names:
        spec = vars(cls).get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        if spec.default is not _MISSING:
            defaults[name] = spec.default
            setattr(cls, name, spec.default)
        if spec.compare:
            compared.append(name)
    nfields = len(names)
    # free[k]: the fields a call with k positional arguments may pass by keyword
    free = [frozenset(names[k:]) for k in range(nfields + 1)]
    post_init = getattr(cls, "__post_init__", None)
    key = attrgetter(*compared)

    def __init__(self, *args, **kwargs):
        if len(args) > nfields:
            _bad_call(cls, names, args, kwargs, {})
        d = self.__dict__
        d.update(defaults)
        # an index loop allocates nothing, while building a zip or an
        # enumerate costs more than binding a small record's fields
        i = 0
        for value in args:
            d[names[i]] = value
            i += 1
        if kwargs:
            if not free[i].issuperset(kwargs):
                _bad_call(cls, names, args, kwargs, d)
            d.update(kwargs)
        if len(d) != nfields:
            _bad_call(cls, names, args, kwargs, d)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        if method.__name__ not in vars(cls):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls._record_fields = names
    return cls


def _bad_call(cls, names, args, kwargs, bound):
    """Raise the TypeError a function with the fields as parameters would raise for this call."""
    call = f"{cls.__qualname__}()"
    if len(args) > len(names):
        raise TypeError(f"{call} takes {len(names)} positional arguments but {len(args)} were given")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if name in names[:len(args)]:
            raise TypeError(f"{call} got multiple values for argument {name!r}")
    missing = ", ".join(repr(name) for name in names if name not in bound)
    raise TypeError(f"{call} missing required arguments: {missing}")


def replace(record, **changes):
    """A new record with ``changes`` applied to the fields of ``record``, checked afresh."""
    fields = {name: getattr(record, name) for name in record._record_fields}
    return type(record)(**{**fields, **changes})
