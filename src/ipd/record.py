"""Record: the frozen value class behind ipd's result and model types.

A subclass's fields are its annotated names, in order; a class-level value
is that field's default. Construction takes the fields by position or by
keyword and then runs __post_init__, if the class has one, which may set
fields with object.__setattr__. Afterwards a field can be neither assigned
nor deleted. Records compare equal when they are of the same class with
equal fields, and hash as the tuple of their fields; a subclass declared
with eq=False compares and hashes by identity instead. The repr lists every
field, as in Name(a=1, b=2). Instances keep their fields in __dict__, so
cached_property, pickle and copy work as on any plain object.

Everything is worked out once per class, when it is created, and the
methods are closures over it, so importing a module of records generates
and compiles no source code at each start of the command line; this
module imports only operator.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        name = cls.__qualname__
        names = tuple(cls.__annotations__)
        if not names:
            raise TypeError(f"record {name} declares no fields")
        own = vars(cls)
        required = sum(field not in own for field in names)
        if any(field in own for field in names[:required]):
            raise TypeError(f"record {name} has a field without a default after one with")
        defaults = {field: own[field] for field in names[required:]}
        allowed = frozenset(names)
        count = len(names)
        post = getattr(cls, "__post_init__", None)

        def bind(args: tuple, kwargs: dict) -> dict:
            if len(args) > count:
                raise TypeError(f"{name}() takes {count} fields but {len(args)} were given")
            for field, value in zip(names, args):
                if field in kwargs:
                    raise TypeError(f"{name}() got two values for field {field!r}")
                kwargs[field] = value
            for field in kwargs.keys() - allowed:
                raise TypeError(f"{name}() got an unknown field {field!r}")
            for field in names[:required]:
                if field not in kwargs:
                    raise TypeError(f"{name}() is missing field {field!r}")
            return {**defaults, **kwargs}

        # The common calls, all by position or every field by keyword, skip
        # bind, which handles the rest and raises for a missing, unknown or
        # repeated field. The fields reach __dict__ from a dict of their own
        # rather than one by one, which would leave the instance a dict that
        # shares its keys with the class, and that kind reads attributes
        # slower.
        def __init__(self, *args, **kwargs) -> None:
            if args and not kwargs and required <= len(args) <= count:
                if len(args) < count:
                    kwargs.update(defaults)
                kwargs.update(zip(names, args))
            elif args or kwargs.keys() != allowed:
                kwargs = bind(args, kwargs)
            self.__dict__.update(kwargs)
            if post is not None:
                post(self)

        cls.__init__ = __init__
        cls._fields = names
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
            return
        values = attrgetter(*names)
        if count == 1:  # attrgetter of one name returns the bare value
            values = lambda obj, one=values: (one(obj),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
