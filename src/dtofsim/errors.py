"""Exception types shared across the toolkit, the parameter domains, and
``record``, which makes a parameter or result class a frozen record.

Each parameter class declares its fields' domains once, in a ``_DOMAINS``
table from ``domains``, and its counts in a ``_WHOLE`` tuple, which
``check_domains`` enforces.  Checks that span fields stay code in the
class.  ``record`` compiles, per class, one source of the methods that
``dataclass(frozen=True)`` generates and sets the ``__dataclass_fields__``
that the stdlib ``dataclasses.replace`` reads, sparing start-up the
``dataclasses`` module and its ``inspect``.  ``copy_with`` is ``replace``
of one field without its keyword call.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace


class ConfigError(ValueError):
    """A parameter or scenario file violates its documented constraints."""


class SolverError(RuntimeError):
    """A numerical solve could not produce a valid result."""


class NoDetectionError(SolverError):
    """The trigger SNR is already below the threshold at the minimum range."""


class UnboundedRangeError(SolverError):
    """The trigger SNR stays above the threshold out to the search cap."""


class SipmSaturationError(SolverError):
    """Background plus dark counts occupy the entire SPAD array."""


class FrozenInstanceError(AttributeError):
    """A field of a record was assigned or deleted."""


_SPEC = re.compile(r"(>=?) (\S+)|in ([(\[])(\S+), (\S+)([)\]])")
_NAMED_BOUNDS = {"pi/2": math.pi / 2, "-pi/2": -math.pi / 2}
MISSING = object()  # a record field's default when it has none


def _row(name: str, spec: str | tuple[str, ...]) -> tuple:
    if isinstance(spec, tuple):
        return (name, f"one of {spec}", None, None, None, None, spec)
    op, bound, left, lo, hi, right = _SPEC.fullmatch(spec).groups()
    if op:  # one-sided: up to +inf, inclusive
        left, lo, hi, right = "[" if op == ">=" else "(", bound, "inf", "]"
    lo, hi = (float(_NAMED_BOUNDS.get(b, b)) for b in (lo, hi))
    return (name, spec, lo, hi, left == "[", right == "]", None)


def domains(**specs: str | tuple[str, ...]) -> tuple[tuple, ...]:
    """A class's domain table, in check order, from field name -> text.

    A text is "> a", ">= a" or "in (a, b)" with either bracket at either
    end, where a bound is a number, "pi/2" or "-pi/2"; a tuple of names
    gives the text "one of (...)".  A one-sided domain admits +inf, NaN
    fails every domain, and ``None`` passes only a field whose default is
    ``None``.  Each row is ``(name, text, lo, hi, lo_closed, hi_closed,
    names)``; a text that is not a domain fails at import.
    """
    return tuple(_row(name, spec) for name, spec in specs.items())


def check_domains(obj) -> None:
    """Raise ``ConfigError("<field> must be <text>")`` for the first field
    of ``obj``'s ``_DOMAINS`` outside its domain, then ``ConfigError(
    "<field> must be a whole number")`` for the first of its ``_WHOLE``
    fields that is not one; a whole number such as 8.0 is stored as an
    int."""
    for name, text, lo, hi, lo_closed, hi_closed, names in obj._DOMAINS:
        value = getattr(obj, name)
        if value is None:  # passes only where it is the default
            ok = obj.__dataclass_fields__[name].default is None
        elif names is not None:
            ok = value in names
        else:
            ok = (lo < value < hi or value == lo and lo_closed
                  or value == hi and hi_closed)
        if not ok:
            raise ConfigError(f"{name} must be {text}")
    for name in getattr(obj, "_WHOLE", ()):
        value = getattr(obj, name)
        if not (isinstance(value, int) or float(value).is_integer()):
            raise ConfigError(f"{name} must be a whole number")
        object.__setattr__(obj, name, int(value))


def record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated names, in order, with
    their class attributes as defaults and the methods, ``__post_init__``
    call and ``__match_args__`` that ``dataclass(frozen=True)`` gives."""
    names = tuple(cls.__annotations__)
    params = ", ".join(f"{n}=cls.{n}" if n in vars(cls) else n for n in names)
    post = ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    reprs = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    mine, theirs = ("(" + "".join(f"{s}.{n}," for n in names) + ")"
                    for s in ("self", "other"))
    source = "\n".join([
        f"def __init__(self, {params}):",
        *(f"    object.__setattr__(self, {n!r}, {n})" for n in names), *post,
        "def __repr__(self):",
        f'    return self.__class__.__qualname__ + f"({reprs})"',
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {mine} == {theirs}",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash({mine})",
        "def __setattr__(self, name, value):",
        f"    if type(self) is cls or name in {names!r}:",
        '        raise FrozenInstanceError(f"cannot assign to field {name!r}")',
        "    super(cls, self).__setattr__(name, value)",
        "def __delattr__(self, name):",
        f"    if type(self) is cls or name in {names!r}:",
        '        raise FrozenInstanceError(f"cannot delete field {name!r}")',
        "    super(cls, self).__delattr__(name)"])
    namespace = {"cls": cls, "FrozenInstanceError": FrozenInstanceError}
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__",
                 "__setattr__", "__delattr__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, namespace[name])
    cls.__match_args__ = names
    # what dataclasses.replace reads: _field_type None is no ClassVar/InitVar
    cls.__dataclass_fields__ = {n: SimpleNamespace(
        name=n, default=vars(cls).get(n, MISSING), init=True, _field_type=None)
        for n in names}
    return cls


def fields(cls) -> tuple:
    """A record's fields in order; ``dataclasses.fields`` gives ``()``."""
    return tuple(cls.__dataclass_fields__.values())


def replace(obj, /, **changes):
    """``dataclasses.replace``: a new record of ``obj``'s fields with
    ``changes`` in their place, built and checked by ``__init__``."""
    return type(obj)(**{n: getattr(obj, n) for n in obj.__dataclass_fields__}
                     | changes)


def copy_with(obj, name: str, value):
    """``replace(obj, **{name: value})`` of a record, with the same value
    or error, without its keyword call: each field is copied in
    declaration order, as ``__init__`` sets it (not through ``__dict__``,
    which slows later reads), ``name`` is set in its place, then the
    class's own ``__post_init__`` runs; it recomputes any attribute it
    sets."""
    new = object.__new__(type(obj))
    for field in type(obj).__dataclass_fields__:
        object.__setattr__(new, field, getattr(obj, field))
    object.__setattr__(new, name, value)
    if hasattr(new, "__post_init__"):
        new.__post_init__()
    return new
