"""Exception types shared across the toolkit, and the parameter domains.

Each parameter class declares its fields' domains once, in a ``_DOMAINS``
table from ``domains``, and its counts in a ``_WHOLE`` tuple, which
``check_domains`` enforces.  Checks that span fields stay code in the
class.  ``copy_with`` is ``dataclasses.replace`` of one field.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from functools import cache


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


_SPEC = re.compile(r"(>=?) (\S+)|in ([(\[])(\S+), (\S+)([)\]])")
_NAMED_BOUNDS = {"pi/2": math.pi / 2, "-pi/2": -math.pi / 2}


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


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def copy_with(obj, name: str, value):
    """``dataclasses.replace(obj, **{name: value})`` of a frozen dataclass,
    with the same value or error, without its keyword call: each field is
    copied in declaration order, as ``__init__`` sets it (not through
    ``__dict__``, which slows later reads), ``name`` is set in its place,
    then the class's own ``__post_init__`` runs; it recomputes an
    ``init=False`` field."""
    new = object.__new__(type(obj))
    for field in _field_names(type(obj)):
        object.__setattr__(new, field, getattr(obj, field))
    object.__setattr__(new, name, value)
    if hasattr(new, "__post_init__"):
        new.__post_init__()
    return new
