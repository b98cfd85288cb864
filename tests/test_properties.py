"""Properties of the assessment over generated valid scales and distributions.

Scales have 2-5 grades, integer domain bounds, inner bounds in steps of 1,
1/4, 1/10 or 1/100, and point grades, all optionally scaled by a power of
ten; groups hold up to 10**6 objects.
"""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from greyassess import (
    EQUIVALENCE_TOLERANCE,
    GradeDistribution,
    GradeScale,
    GreyNumber,
    ScoreSheet,
    assess,
    check_equivalence,
    mean_gn,
    parse_scale_text,
    raw_mean,
    scores_to_distribution,
)

examples = settings(max_examples=50, deadline=None)


@st.composite
def scales(draw, denominators=(1, 4, 10, 100), exponents=st.just(0)):
    """A valid scale, highest grade first, its bounds multiples of 1/denominator
    times 10**exponent."""
    k = draw(st.integers(2, 5))
    den = draw(st.sampled_from(denominators))
    low = draw(st.integers(-100, 100))
    high = low + draw(st.integers(2 * k, 1000))
    inner = sorted(draw(st.lists(
        st.integers(low * den + 1, high * den - 1), min_size=2 * k - 2, max_size=2 * k - 2, unique=True
    )))
    bounds = [low * den, *inner, high * den]
    points = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    power = float(f"1e{draw(exponents)}")
    entries = []
    for i in range(k):
        lo, hi = bounds[2 * i], bounds[2 * i + 1]
        if points[i]:
            lo, hi = (hi, hi) if i == k - 1 else (lo, lo)
        entries.append((f"G{i}", GreyNumber(lo / den * power, hi / den * power)))
    scale = GradeScale(tuple(reversed(entries)), low * power, high * power)
    assert scale.validate() == []
    return scale


@st.composite
def groups(draw, denominators=(1, 4, 10, 100), exponents=st.just(0)):
    """A scale and a non-empty distribution over it of at most 10**6 objects."""
    scale = draw(scales(denominators, exponents))
    most = 10**6 // len(scale.labels)
    counts = draw(st.lists(
        st.one_of(st.integers(0, 10), st.integers(0, most)),
        min_size=len(scale.labels), max_size=len(scale.labels),
    ))
    assume(any(counts))
    return scale, GradeDistribution(dict(zip(scale.labels, counts)))


unit = st.floats(0.0, 1.0)


@examples
@given(groups(), unit)
def test_whitened_value_lies_in_mean_and_domain(group, t):
    scale, dist = group
    report = assess(dist, scale, t)
    assert report.mean_gn.lower <= report.whitened <= report.mean_gn.upper
    assert scale.domain_min <= report.whitened <= scale.domain_max


@examples
@given(groups(), unit, unit)
def test_grade_non_decreasing_in_t(group, t1, t2):
    scale, dist = group
    t1, t2 = min(t1, t2), max(t1, t2)
    rank = scale.labels.index  # 0 is the highest grade
    assert rank(assess(dist, scale, t2).grade) <= rank(assess(dist, scale, t1).grade)


@examples
@given(groups(exponents=st.integers(-8, 297)))
def test_tfn_route_agrees(group):
    # the tolerance is relative: on a domain of 1e300 an absolute 1e-9 is
    # far below one ulp of the value
    scale, dist = group
    check = check_equivalence(dist, scale)
    assert check.difference <= EQUIVALENCE_TOLERANCE * max(1.0, abs(check.gn_value))
    assert check.passed


@examples
@given(scales(denominators=(1, 4)), st.data())
def test_single_grade_mean_is_its_interval(scale, data):
    label, interval = data.draw(st.sampled_from(scale.entries))
    n = data.draw(st.one_of(st.integers(1, 10), st.integers(1, 10**6)))
    assert mean_gn(GradeDistribution({label: n}), scale) == interval


@st.composite
def graded_scores(draw):
    """A scale and 1-20 scores, each inside the interval of a grade."""
    scale = draw(scales())
    scores = []
    for _ in range(draw(st.integers(1, 20))):
        _, interval = draw(st.sampled_from(scale.entries))
        fraction = draw(unit)
        scores.append(min(interval.lower + fraction * (interval.upper - interval.lower), interval.upper))
    return scale, scores


@examples
@given(graded_scores())
@example((parse_scale_text("A 85.3 100\nB 0 85.2\n"), [85.3] * 10))
def test_raw_mean_inside_mean_when_every_score_lies_in_its_grade(case):
    scale, scores = case
    sheet = ScoreSheet((("all", scores),))
    mean = mean_gn(scores_to_distribution(sheet, scale), scale)
    assert mean.lower <= raw_mean(sheet) <= mean.upper


@examples
@given(st.lists(
    st.one_of(
        st.integers(0, 10**4).map(lambda cents: cents / 100),
        st.sampled_from([85.3, 64.55, 0.1, 1e-8]),
        st.floats(-1e300, 1e300),
    ),
    min_size=1, max_size=40,
))
@example([85.3] * 10)
# the exact mean lies just below a rounding midpoint that the two fsum
# passes cannot tell it from, so this takes the exact fallback
@example([5 * 2.0**52, 2.5, -(2.0**-67)])
def test_raw_mean_is_the_exact_mean_rounded_once(scores):
    sheet = ScoreSheet(tuple((f"s{i}", (score,)) for i, score in enumerate(scores)))
    assert raw_mean(sheet) == float(sum(map(Fraction, scores)) / len(scores))


def test_gap_scores_leave_the_raw_mean_outside_the_mean(scale):
    # 84.5 lies between B [75, 84] and A [85, 100] and classifies as B
    sheet = ScoreSheet((("all", (84.5, 84.5)),))
    report = assess(scores_to_distribution(sheet, scale), scale)
    assert report.grade == "B"
    assert report.mean_gn == GreyNumber(75, 84)
    assert raw_mean(sheet) == 84.5
    assert raw_mean(sheet) not in report.mean_gn


def test_single_grade_with_decimal_lower_bound_keeps_its_grade():
    # the float product 13 * 85.3 rounds; the exact sum does not
    scale = parse_scale_text("A 85.3 100\nB 75.3 85.2\nC 0 75.2\n")
    assert assess(GradeDistribution({"A": 13}), scale, 0.0).grade == "A"


def test_mean_of_decimal_domain_minimum_stays_in_domain():
    # the float product 43 * 0.1 rounds; the exact sum does not
    scale = parse_scale_text("domain 0.1 100\nA 50.1 100\nF 0.1 50\n")
    report = assess(GradeDistribution({"F": 43}), scale, 0.0)
    assert report.whitened == 0.1


def test_whitening_is_non_decreasing_between_adjacent_t():
    # in floats 1 - t rounds, so (1-t)*lower + t*upper gave 72.0 at t and
    # one ulp below 72 at the next t: across a grade bound at 72
    mean = GreyNumber(64.55, 90.26)
    t = 0.28977051730844
    assert mean.whiten(math.nextafter(t, 1.0)) >= mean.whiten(t)
