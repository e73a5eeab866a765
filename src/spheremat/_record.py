"""Immutable value records with slots.

`@record` turns a class whose body annotates its fields, with optional
trailing defaults, into a slotted class that has

* an `__init__` taking the fields positionally or by keyword, which calls
  `__post_init__` when the class defines one;
* equality and hashing by the tuple of fields, between instances of the
  same class;
* the repr `Name(field=value, ...)`;
* assignment and deletion refused with AttributeError.

That is what the standard library's frozen data classes give, without their
import (which pulls in `inspect`), which would cost an exact CLI call more
than all of the package's own modules. The methods are compiled from
source, as the standard library does, so construction and hashing are no
slower.
"""

_TEMPLATE = """\
def __init__(self, {params}):
{sets}
def __eq__(self, other):
    if self is other:
        return True
    if other.__class__ is self.__class__:
        return ({mine},) == ({theirs},)
    return NotImplemented

def __hash__(self):
    return hash(({mine},))

def __reduce__(self):
    return self.__class__, ({mine},)
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    sets = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
    if "__post_init__" in cls.__dict__:
        sets += "    self.__post_init__()\n"
    source = _TEMPLATE.format(
        params=", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields),
        sets=sets,
        mine=", ".join(f"self.{f}" for f in fields),
        theirs=", ".join(f"other.{f}" for f in fields),
    )
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec(source, scope)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({body})"

    methods = {name: scope[name] for name in ("__init__", "__eq__", "__hash__", "__reduce__")}
    methods["__repr__"] = __repr__
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
    ns = {
        k: v
        for k, v in cls.__dict__.items()
        if k not in fields and k not in ("__dict__", "__weakref__")
    }
    ns.update(
        methods,
        __setattr__=_setattr,
        __delattr__=_delattr,
        __slots__=fields,
        __qualname__=cls.__qualname__,
    )
    return type(cls)(cls.__name__, cls.__bases__, ns)
