"""Exception types shared across the package, and its one input policy.

An integer is a numbers.Integral that is not a bool (np.int64 counts; 2.0,
True and np.True_ do not); a real is a numbers.Real that is not a bool,
finite where one is due and then kept as a Python float.  numpy registers its
scalars with this numeric tower (PEP 3141): only number_array imports numpy.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """Input outside an operation's domain (bad axis, shape mismatch, ...)."""


class ConfigError(ValueError):
    """Invalid run configuration.  Collects every problem, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# numpy dtype kinds admitted -> (numeric tower class, exact types, array dtype, noun)
_KINDS = {"iu": ("Integral", (int,), int, "integers"),
          "iuf": ("Real", (int, float), float, "real numbers"),
          "iufc": ("Complex", (int, float, complex), complex, "numbers")}


def _is(value, kinds: str) -> bool:
    tower, exact, _, _ = _KINDS[kinds]
    if isinstance(value, exact):  # a bool is an int; the rest skip the slower abstract check
        return type(value) is not bool
    import numbers

    return isinstance(value, getattr(numbers, tower))


def is_integer(value) -> bool:
    return _is(value, "iu")


def is_real(value) -> bool:  # finite or not
    return _is(value, "iuf")


def real(value, what: str, positive: bool = False) -> float:
    """value as a finite Python float, and > 0 if positive."""
    try:
        x = float(value) if is_real(value) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        rule = "finite and > 0" if positive else "a finite real number"
        raise DomainError(f"{what} must be {rule}, got {value!r}")
    return x


def _numbers_only(values, kinds: str) -> bool:
    if isinstance(values, (list, tuple)):
        return all([_is(v, kinds) or _numbers_only(v, kinds) for v in values])
    dtype = getattr(values, "dtype", None)  # an ndarray's dtype decides
    return dtype.kind in kinds if dtype is not None else _is(values, kinds)


def number_array(values, what: str, kinds: str = "iuf", width: int | None = None):
    """values, judged by dtype or item by item, as an int, float or complex
    ndarray (kinds "iu", "iuf" or "iufc"), not copied if it already is one,
    with finite entries and, given a width, a last axis of that length."""
    import numpy as np

    _, _, dtype, noun = _KINDS[kinds]
    if not _numbers_only(values, kinds):
        raise DomainError(f"{what} must be {noun}, got {values!r}")
    try:
        a = np.asarray(values, dtype=dtype)
    except (ValueError, OverflowError) as exc:  # ragged rows, an int beyond int64
        raise DomainError(f"{what} must be an array of {noun}: {exc}") from None
    if width is not None and (a.ndim == 0 or a.shape[-1] != width):
        raise DomainError(f"{what} must be {width} {noun} or a (..., {width}) stack of them, "
                          f"got shape {a.shape}")
    if dtype is not int and not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite, got non-finite entries")
    return a
