"""Grey numbers: closed real intervals with interval arithmetic and whitening.

A grey number is an indeterminate quantity known only to lie within a closed
interval [lower, upper]. When the endpoints coincide it is a white number,
i.e. an ordinary fully determined real. All values here are immutable and
every operation is pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math


class IntervalError(ValueError):
    """Malformed interval: reversed bounds or non-finite endpoints."""


class ZeroDivisorError(ZeroDivisionError):
    """Division by an interval that contains zero."""


def _half_sum(x: float, y: float) -> float:
    """(x + y) / 2 for finite x and y, halving first only where the sum overflows."""
    mid = (x + y) / 2
    return mid if math.isfinite(mid) else x / 2 + y / 2


def _whiten(lower: int, upper: int, den: int, t: float) -> float:
    """(lower + t*(upper - lower)) / den for t in [0, 1], the exact value
    rounded once: integer true division rounds correctly."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"whitening parameter must be in [0, 1], got {t}")
    c, r = t.as_integer_ratio()
    return (lower * r + c * (upper - lower)) / (den * r)


def _fmt(x: float) -> str:
    # up to 4 decimal places, trailing zeros trimmed
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


class _Value:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__`` and, in constructor order,
    in ``__match_args__``; its ``__init__`` sets each once through the slot
    descriptor. As with a frozen dataclass, equality holds only within one
    class and compares ``_key`` (the field tuple unless overridden), the hash
    agrees with it, and repr shows the fields. Copies and unpickling rebuild
    through the constructor, because no field can be set on an existing object.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    _key = _fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GreyNumber(_Value):
    """A number known only to lie in the closed interval [lower, upper].

    Arithmetic follows closed-interval rules: the result interval contains
    x op y for every x in the first operand and y in the second. Plain
    numbers mix freely with grey numbers in arithmetic; a number k is
    treated as the white number [k, k].
    """

    __slots__ = __match_args__ = ("lower", "upper")
    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        try:
            lo, hi = float(lower), float(upper)
        except OverflowError:  # an int or fraction beyond the float range
            raise IntervalError(
                "interval endpoints must be finite, got an endpoint too large for a float"
            ) from None
        if not -math.inf < lo <= hi < math.inf:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise IntervalError(f"interval endpoints must be finite, got [{lower}, {upper}]")
            raise IntervalError(f"lower bound exceeds upper bound: [{lo}, {hi}]")
        _set_lower(self, lo)
        _set_upper(self, hi)

    @property
    def is_white(self) -> bool:
        """True when the interval is degenerate (a fully determined value)."""
        return self.lower == self.upper

    @property
    def midpoint(self) -> float:
        return _half_sum(self.lower, self.upper)

    def whiten(self, t: float = 0.5) -> float:
        """Representative real value (1-t)*lower + t*upper, rounded once.

        t must lie in [0, 1]; t=0 gives the lower endpoint, t=1 the upper.
        The default t=1/2 (the midpoint) is the choice when nothing is known
        about the distribution inside the interval. The value is computed
        exactly, so it lies in [lower, upper] and is monotone in t.
        """
        lower, d_lower = self.lower.as_integer_ratio()
        upper, d_upper = self.upper.as_integer_ratio()
        return _whiten(lower * d_upper, upper * d_lower, d_lower * d_upper, t)

    def __contains__(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def __add__(self, other: GreyNumber | float) -> GreyNumber:
        other = _as_grey(other)
        if other is None:
            return NotImplemented
        return GreyNumber(self.lower + other.lower, self.upper + other.upper)

    __radd__ = __add__

    def __sub__(self, other: GreyNumber | float) -> GreyNumber:
        other = _as_grey(other)
        if other is None:
            return NotImplemented
        return GreyNumber(self.lower - other.upper, self.upper - other.lower)

    def __rsub__(self, other: float) -> GreyNumber:
        other = _as_grey(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: GreyNumber | float) -> GreyNumber:
        other = _as_grey(other)
        if other is None:
            return NotImplemented
        products = (
            self.lower * other.lower,
            self.lower * other.upper,
            self.upper * other.lower,
            self.upper * other.upper,
        )
        return GreyNumber(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: GreyNumber | float) -> GreyNumber:
        other = _as_grey(other)
        if other is None:
            return NotImplemented
        if other.lower <= 0.0 <= other.upper:
            raise ZeroDivisorError(f"divisor interval {other} contains zero")
        quotients = (
            self.lower / other.lower,
            self.lower / other.upper,
            self.upper / other.lower,
            self.upper / other.upper,
        )
        return GreyNumber(min(quotients), max(quotients))

    def __rtruediv__(self, other: float) -> GreyNumber:
        other = _as_grey(other)
        if other is None:
            return NotImplemented
        return other / self

    def __str__(self) -> str:
        return f"[{_fmt(self.lower)}, {_fmt(self.upper)}]"


# Bound slot setters: __setattr__ refuses every assignment, and calling the
# slot descriptor directly is cheaper than object.__setattr__.
_set_lower = GreyNumber.lower.__set__
_set_upper = GreyNumber.upper.__set__


def _as_grey(value: object) -> GreyNumber | None:
    if isinstance(value, GreyNumber):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return GreyNumber(value, value)
    return None
