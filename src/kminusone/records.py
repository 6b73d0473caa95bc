"""``record``: what the package uses of ``@dataclass(frozen=True)``, without
its 0.6-0.9 ms per class and its import of ``inspect`` (0.14-0.21 ms here).
Kept: ``__init__`` over the annotated fields with class-level defaults, then
``__post_init__``; ``==`` within one class and ``hash`` of the tuple of fields,
as in dataclass, so set order and every printed output stay; repr
``Name(f=v, ...)``; no setting or deleting.  One compiled snippet per class
keeps construction, ``==`` and ``hash`` as fast as dataclass's.
"""

_CODE = """def __init__(self, {0}):
    {1}{2}
def __eq__(self, other):
    return ({3}) == ({4}) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash(({3}))"""


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls):
    names, attrs = tuple(cls.__annotations__), cls.__dict__
    namespace = {"_set": object.__setattr__, "_attrs": attrs}
    exec(_CODE.format(", ".join(f"{n}=_attrs[{n!r}]" if n in attrs else n for n in names),
                      "".join(f"_set(self, {n!r}, {n}); " for n in names),
                      "self.__post_init__()" if "__post_init__" in attrs else "pass",
                      "".join(f"self.{n}, " for n in names),
                      "".join(f"other.{n}, " for n in names)), namespace)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls.__init__, cls.__eq__, cls.__hash__ = map(namespace.get, ("__init__", "__eq__", "__hash__"))
    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, _refuse, _refuse
    return cls
