"""Group assessment: grade distributions to mean grey numbers and reports.

The mean performance of a group of n graded objects is the count-weighted
average of the per-grade intervals, itself a grey number. Whitening that
mean yields a single representative score, which classifies back to a
linguistic grade. Raw numeric score sheets are supported by first
classifying every score into a grade distribution.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import chain, groupby, repeat
from operator import attrgetter, mul, neg
from typing import Iterable, Mapping, Sequence

from .grey import GreyNumber, _Value, _whiten
from .scale import GradeScale, OutOfDomainError, UnknownGradeError


class GradeDistribution(_Value):
    """Per-grade object counts for one assessed group.

    Labels absent from the mapping count as zero. An all-zero distribution
    is constructible but cannot be assessed.
    """

    __match_args__ = ("counts",)
    __slots__ = ("counts", "n")
    counts: Mapping[str, int]
    #: The number of graded objects, derived from ``counts``.
    n: int

    def __init__(self, counts: Mapping[str, int]) -> None:
        checked: dict[str, int] = {}
        n = 0
        for label, count in counts.items():
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"count for grade {label!r} must be an integer, got {count!r}")
            if count < 0:
                raise ValueError(f"count for grade {label!r} is negative: {count}")
            key = str(label)
            if key in checked:
                raise ValueError(f"grade {key!r} is given more than once")
            checked[key] = count
            n += count
        _set_counts(self, checked)
        _set_n(self, n)

    def __hash__(self) -> int:
        # agrees with __eq__, which compares the counts dicts
        return hash(frozenset(self.counts.items()))

    def count(self, label: str) -> int:
        return self.counts.get(label, 0)


class ScoreSheet(_Value):
    """Raw numeric scores grouped per subject, in first-appearance order.

    Each subject's scores are held as one ``array('d')`` of C doubles.
    """

    __slots__ = __match_args__ = ("subjects",)
    subjects: tuple[tuple[str, array[float]], ...]

    def __init__(self, subjects: Iterable[tuple[str, Iterable[float]]]) -> None:
        normalized = tuple(
            (str(subject), array("d", map(float, scores))) for subject, scores in subjects
        )
        if not normalized:
            raise ValueError("score sheet has no subjects")
        for subject, scores in normalized:
            if not scores:
                raise ValueError(f"subject {subject!r} has no scores")
        _set_subjects(self, normalized)

    def __hash__(self) -> int:
        # agrees with __eq__, which compares the arrays by value
        return hash(tuple((subject, tuple(scores)) for subject, scores in self.subjects))


class AssessmentReport(_Value):
    """Assessment outcome for one group: mean grey number, whitened value,
    assigned grade, and the distribution it came from."""

    __slots__ = __match_args__ = (
        "group_id", "n", "mean_gn", "whitened", "grade", "distribution", "t", "scale"
    )
    group_id: str
    n: int
    mean_gn: GreyNumber
    whitened: float
    grade: str
    distribution: GradeDistribution
    t: float
    scale: GradeScale

    def __init__(
        self, group_id: str, n: int, mean_gn: GreyNumber, whitened: float, grade: str,
        distribution: GradeDistribution, t: float, scale: GradeScale,
    ) -> None:
        _set_group_id(self, group_id)
        _set_report_n(self, n)
        _set_mean_gn(self, mean_gn)
        _set_whitened(self, whitened)
        _set_grade(self, grade)
        _set_distribution(self, distribution)
        _set_t(self, t)
        _set_scale(self, scale)

    def to_dict(self) -> dict:
        """Full-precision JSON-serializable form."""
        return {
            "group": self.group_id,
            "n": self.n,
            "mean_gn": {"lower": self.mean_gn.lower, "upper": self.mean_gn.upper},
            "whitened": self.whitened,
            "grade": self.grade,
            "t": self.t,
            "distribution": {label: self.distribution.count(label) for label in self.scale.labels},
        }


# bound slot setters, as for GreyNumber
_set_counts = GradeDistribution.counts.__set__
_set_n = GradeDistribution.n.__set__
_set_subjects = ScoreSheet.subjects.__set__
_set_group_id = AssessmentReport.group_id.__set__
_set_report_n = AssessmentReport.n.__set__
_set_mean_gn = AssessmentReport.mean_gn.__set__
_set_whitened = AssessmentReport.whitened.__set__
_set_grade = AssessmentReport.grade.__set__
_set_distribution = AssessmentReport.distribution.__set__
_set_t = AssessmentReport.t.__set__
_set_scale = AssessmentReport.scale.__set__


def mean_gn(dist: GradeDistribution, scale: GradeScale) -> GreyNumber:
    """Count-weighted mean grey number sum(count_g * interval_g) / n.

    Each endpoint is the exact mean rounded once, so it does not depend on
    the mapping order of the distribution, and a single-grade group
    reproduces its interval.
    """
    lower, upper, den = _endpoint_sums(dist, scale)
    return GreyNumber(lower / den, upper / den)


def assess(
    dist: GradeDistribution,
    scale: GradeScale,
    t: float = 0.5,
    group_id: str = "group",
) -> AssessmentReport:
    """Assess one group: mean grey number, whitened value, linguistic grade.

    The whitened value is the exact mean whitened at t, rounded once.
    """
    lower, upper, den = _endpoint_sums(dist, scale)
    mean = GreyNumber(lower / den, upper / den)
    whitened = _whiten(lower, upper, den, t)
    grade = scale.classify(whitened)
    return AssessmentReport(group_id, dist.n, mean, whitened, grade, dist, t, scale)


def scores_to_distribution(sheet: ScoreSheet, scale: GradeScale) -> GradeDistribution:
    """Pool every subject's scores and classify each into a grade count."""
    return _tally(sheet.subjects, scale)


def _tally(pairs: Iterable[tuple[str, Iterable[float]]], scale: GradeScale) -> GradeDistribution:
    """Classify every score of the ``(subject, scores)`` pairs into one
    distribution, zero-filled in scale order. An out-of-domain score raises
    naming its subject."""
    counts: Counter[str] = Counter()
    for subject, scores in pairs:
        try:
            counts.update(map(scale.classify, scores))
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"subject {subject!r}: {exc}") from None
    return GradeDistribution({label: counts[label] for label in scale.labels})


def raw_mean(sheet: ScoreSheet) -> float:
    """Arithmetic mean of all pooled scores, the exact mean rounded once;
    ValueError if their sum does not fit a float."""
    from fractions import Fraction

    def rest(parts: list[float]) -> float:
        # the exact sum of the scores less ``parts``, rounded once
        return math.fsum(chain(chain.from_iterable(s for _, s in sheet.subjects), map(neg, parts)))

    try:
        parts = [rest([])]
    except OverflowError:
        parts = [math.inf]
    if not math.isfinite(parts[0]):
        raise ValueError("sum of the scores is too large for a float")
    parts.append(rest(parts))
    n = sum(len(scores) for _, scores in sheet.subjects)
    # the exact sum lies within half an ulp of parts[1] from sum(parts)
    mean = sum(map(Fraction, parts)) / n
    slack = Fraction(math.ulp(parts[1])) / (2 * n)
    if float(mean - slack) != float(mean + slack):
        # a rounding midpoint is too near: sum the residuals until one is 0
        while parts[-1]:
            parts.append(rest(parts))
        mean = sum(map(Fraction, parts)) / n
    return float(mean)


def compare_groups(reports: Sequence[AssessmentReport]) -> list[list[AssessmentReport]]:
    """Rank reports by whitened value, best first.

    Returns tie groups: each inner list holds the reports with one whitened
    value, in input order. All reports must share the same scale and
    whitening parameter.
    """
    if not reports:
        return []
    head = reports[0]
    for report in reports[1:]:
        if report.scale != head.scale or report.t != head.t:
            raise ValueError(
                "cannot compare reports produced under different scales "
                "or whitening parameters"
            )
    whitened = attrgetter("whitened")
    ordered = sorted(reports, key=whitened, reverse=True)
    return [list(tied) for _, tied in groupby(ordered, whitened)]


def _endpoint_sums(dist: GradeDistribution, scale: GradeScale) -> tuple[int, int, int]:
    """The exact mean as integers: sum count*lower and sum count*upper over
    the scale's endpoint numerators, and n times their denominator."""
    n = _graded_count(dist, scale)
    counts = list(map(dist.counts.get, scale.labels, repeat(0)))
    return (
        sum(map(mul, counts, scale.lower_nums)),
        sum(map(mul, counts, scale.upper_nums)),
        n * scale.denominator,
    )


def _graded_count(dist: GradeDistribution, scale: GradeScale) -> int:
    unknown = dist.counts.keys() - scale.labels
    if unknown:
        raise UnknownGradeError(
            f"distribution uses grades not in the scale: {', '.join(sorted(unknown))}"
        )
    n = dist.n
    if n == 0:
        raise ValueError("empty distribution: no graded objects")
    try:
        float(n)
    except OverflowError:
        raise ValueError("total count of the distribution is too large for a float") from None
    return n
