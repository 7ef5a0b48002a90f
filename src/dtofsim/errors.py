"""Exception types shared across the toolkit, and the parameter domains.

Each parameter class declares its fields' domains once, in a ``_DOMAINS``
table from ``domains``, which ``check_domains`` enforces.  Checks that
span fields or modes stay code in the class.
"""

from __future__ import annotations

import math
import re


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
    of ``obj``'s ``_DOMAINS`` outside its domain."""
    for name, text, lo, hi, lo_closed, hi_closed, names in obj._DOMAINS:
        value = getattr(obj, name)
        if names is not None:
            ok = value in names
        else:  # None passes where it is the default; elsewhere TypeError
            ok = (value is None is obj.__dataclass_fields__[name].default
                  or lo < value < hi or value == lo and lo_closed
                  or value == hi and hi_closed)
        if not ok:
            raise ConfigError(f"{name} must be {text}")
