"""Triangular fuzzy number counterpart of the grey-number assessment.

Each grade interval [a, b] maps to the triangular fuzzy number
(a, (a+b)/2, b). Averaging those componentwise and defuzzifying with
(a+c)/2 gives the same representative value as whitening the mean grey
number at t=1/2; ``check_equivalence`` verifies that identity through two
independent computation paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assessment import GradeDistribution, _endpoint_sums, _graded_count
from .grey import _half_sum, _whiten
from .scale import GradeScale

#: The two assessment routes must agree within this tolerance, relative to
#: the larger of 1 and the grey-number route's value.
EQUIVALENCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Finite triple (a, b, c): support [a, c] with peak membership at b."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a, b, c = float(self.a), float(self.b), float(self.c)
        if not (math.isfinite(a) and math.isfinite(c)):
            raise ValueError(f"components must be finite, got ({self.a}, {self.b}, {self.c})")
        if not a <= b <= c:
            raise ValueError(f"components must satisfy a <= b <= c, got ({a}, {b}, {c})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class EquivalenceCheck:
    """Agreement report between the grey-number and fuzzy-number routes."""

    gn_value: float  # exact mean grey number whitened at t=1/2, rounded once
    tfn_value: float  # defuzzified mean fuzzy number, (a+c)/2
    peak: float  # mean fuzzy number's peak component
    difference: float
    passed: bool


def tfn_mean(dist: GradeDistribution, scale: GradeScale) -> TriangularFuzzyNumber:
    """Componentwise count-weighted average of the grade fuzzy numbers.

    Computed with plain scalar arithmetic, independently of the grey-number
    operations, so the two assessment routes can cross-check each other.
    """
    n = _graded_count(dist, scale)
    sum_a = sum_b = sum_c = 0.0
    for label, gn in scale.entries:
        count = dist.count(label)
        if count:
            sum_a += count * gn.lower
            sum_b += count * gn.midpoint
            sum_c += count * gn.upper
    return TriangularFuzzyNumber(sum_a / n, sum_b / n, sum_c / n)


def defuzzify(tfn: TriangularFuzzyNumber) -> float:
    """Representative real value (a + c) / 2.

    This equals the peak b only for symmetric triples; the two are reported
    separately by :func:`check_equivalence`.
    """
    return _half_sum(tfn.a, tfn.c)


def check_equivalence(dist: GradeDistribution, scale: GradeScale) -> EquivalenceCheck:
    """Compare the exact mean whitened at t=1/2 against defuzzify(tfn_mean)."""
    gn_value = _whiten(*_endpoint_sums(dist, scale), 0.5)
    mean_tfn = tfn_mean(dist, scale)
    tfn_value = defuzzify(mean_tfn)
    difference = abs(gn_value - tfn_value)
    return EquivalenceCheck(
        gn_value=gn_value,
        tfn_value=tfn_value,
        peak=mean_tfn.b,
        difference=difference,
        passed=difference <= EQUIVALENCE_TOLERANCE * max(1.0, abs(gn_value)),
    )
