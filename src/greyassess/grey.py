"""Grey numbers: closed real intervals with interval arithmetic and whitening.

A grey number is an indeterminate quantity known only to lie within a closed
interval [lower, upper]. When the endpoints coincide it is a white number,
i.e. an ordinary fully determined real. All values here are immutable and
every operation is pure, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class IntervalError(ValueError):
    """Malformed interval: reversed bounds or non-finite endpoints."""


class ZeroDivisorError(ZeroDivisionError):
    """Division by an interval that contains zero."""


def _half_sum(x: float, y: float) -> float:
    """(x + y) / 2 for finite x and y, halving first only where the sum overflows."""
    mid = (x + y) / 2
    return mid if math.isfinite(mid) else x / 2 + y / 2


def _fmt(x: float) -> str:
    # up to 4 decimal places, trailing zeros trimmed
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


@dataclass(frozen=True)
class GreyNumber:
    """A number known only to lie in the closed interval [lower, upper].

    Arithmetic follows closed-interval rules: the result interval contains
    x op y for every x in the first operand and y in the second. Plain
    numbers mix freely with grey numbers in arithmetic; a number k is
    treated as the white number [k, k].
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lower), float(self.upper)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalError(
                f"interval endpoints must be finite, got [{self.lower}, {self.upper}]"
            )
        if lo > hi:
            raise IntervalError(f"lower bound exceeds upper bound: [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def is_white(self) -> bool:
        """True when the interval is degenerate (a fully determined value)."""
        return self.lower == self.upper

    @property
    def midpoint(self) -> float:
        return _half_sum(self.lower, self.upper)

    def whiten(self, t: float = 0.5) -> float:
        """Representative real value (1-t)*lower + t*upper.

        t must lie in [0, 1]; t=0 gives the lower endpoint, t=1 the upper.
        The default t=1/2 (the midpoint) is the choice when nothing is known
        about the distribution inside the interval. The result is clamped
        into [lower, upper], which rounding can otherwise leave by one ulp.
        """
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"whitening parameter must be in [0, 1], got {t}")
        return min(max((1.0 - t) * self.lower + t * self.upper, self.lower), self.upper)

    def scale(self, k: float) -> GreyNumber:
        """Multiply by a positive real scalar: k*[a, b] = [k*a, k*b].

        Only positive k is defined; for general scaling multiply by the
        white number ``GreyNumber(k, k)`` instead.
        """
        if not k > 0:
            raise ValueError(f"scalar factor must be positive, got {k}")
        return GreyNumber(k * self.lower, k * self.upper)

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


def white(x: float) -> GreyNumber:
    """The white number [x, x]."""
    return GreyNumber(x, x)


def _as_grey(value: object) -> GreyNumber | None:
    if isinstance(value, GreyNumber):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return GreyNumber(value, value)
    return None
