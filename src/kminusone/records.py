"""``record``: what the package uses of ``@dataclass(frozen=True)``, without
its 0.6-0.9 ms per class and its import of ``inspect`` (0.14-0.21 ms here).
Kept: ``__init__`` over the annotated fields with class-level defaults, then
``__post_init__``; ``==`` within one class and ``hash`` of the tuple of fields,
as in dataclass, so set order and every printed output stay; repr
``Name(f=v, ...)``; no setting or deleting.  Importing compiles nothing: each
of ``__init__``, ``__eq__`` and ``__hash__`` is compiled on its class's first
call of it (0.03-0.13 ms) and set on the class, so a command pays for the few
methods it calls, not 3-5 ms for all 18 classes at import; ``attrgetter``
needs no compiling but made ``==`` and ``hash`` 1.2-2.3 times as slow.
"""

from operator import index

_CODE = {"__init__": "def __init__(self, {args}):\n    {sets}{post}",
         "__eq__": "def __eq__(self, other):\n    return ({mine}) == ({theirs}) "
                   "if other.__class__ is self.__class__ else NotImplemented",
         "__hash__": "def __hash__(self):\n    return hash(({mine}))"}


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def integers(values, what: str) -> tuple:
    """values as a tuple of ints for a constructor check: anything with
    ``__index__`` passes (ints, bools, sympy Integers); a float, Fraction or
    string raises ValueError where int() would truncate or parse it."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def record(cls):
    names, attrs = tuple(cls.__annotations__), cls.__dict__

    def on_first_call(name):
        def first_call(*args, **kwargs):
            namespace = {"_set": object.__setattr__, "_attrs": attrs}
            exec(_CODE[name].format(
                args=", ".join(f"{n}=_attrs[{n!r}]" if n in attrs else n for n in names),
                sets="".join(f"_set(self, {n!r}, {n}); " for n in names),
                post="self.__post_init__()" if "__post_init__" in attrs else "pass",
                mine="".join(f"self.{n}, " for n in names),
                theirs="".join(f"other.{n}, " for n in names)), namespace)
            setattr(cls, name, namespace[name])
            return namespace[name](*args, **kwargs)
        return first_call

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    for name in _CODE:
        setattr(cls, name, on_first_call(name))
    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, _refuse, _refuse
    return cls
