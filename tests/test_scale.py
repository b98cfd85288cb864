import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from greyassess import (
    GradeScale,
    GreyNumber,
    OutOfDomainError,
    ScaleFormatError,
    default_scale,
    parse_scale_text,
    read_scale_file,
    validate_scale,
)

from conftest import strict_scale

DEFAULT_INTERVALS = {"A": (85, 100), "B": (75, 84), "C": (60, 74), "D": (50, 59), "F": (0, 49)}
STRICT_INTERVALS = {"A": (90, 100), "B": (80, 89), "C": (70, 79), "D": (60, 69), "F": (0, 59)}


class TestBuiltinScales:
    @pytest.mark.parametrize("label,bounds", DEFAULT_INTERVALS.items())
    def test_default_intervals(self, label, bounds):
        assert dict(default_scale().entries)[label] == GreyNumber(*bounds)

    @pytest.mark.parametrize("label,bounds", STRICT_INTERVALS.items())
    def test_strict_intervals(self, label, bounds):
        assert dict(strict_scale().entries)[label] == GreyNumber(*bounds)

    def test_five_grades(self):
        assert len(default_scale().entries) == 5
        assert default_scale().labels == ("A", "B", "C", "D", "F")

    def test_replace_rederives_labels(self):
        entries = (("X", GreyNumber(50, 100)), ("Y", GreyNumber(0, 49)))
        scale = dataclasses.replace(default_scale(), entries=entries)
        assert scale.labels == ("X", "Y")
        assert (scale.lower_nums, scale.upper_nums, scale.denominator) == ((50, 0), (100, 49), 1)
        assert scale == GradeScale(entries)

    def test_endpoints_over_one_power_of_two(self):
        scale = parse_scale_text("A 85.3 100\nB 0.25 85.2\n")
        den = scale.denominator
        assert den & (den - 1) == 0
        for (_, gn), lower, upper in zip(scale.entries, scale.lower_nums, scale.upper_nums):
            assert (lower / den, upper / den) == (gn.lower, gn.upper)
        # the least such denominator: some numerator is odd
        assert den == 1 or any(num % 2 for num in scale.lower_nums + scale.upper_nums)
        assert "lower_nums" not in repr(scale)

    def test_builtin_scales_are_valid(self):
        assert validate_scale(default_scale()) == []
        assert validate_scale(strict_scale()) == []



class TestClassify:
    @pytest.mark.parametrize(
        "score,label",
        [(85, "A"), (84, "B"), (75, "B"), (74, "C"), (60, "C"), (59, "D"), (50, "D"), (49, "F")],
    )
    def test_boundary_scores(self, score, label, scale):
        assert scale.classify(score) == label

    def test_gap_value_joins_lower_grade(self, scale):
        # 84.5 sits between B [75,84] and A [85,100]; partition by lower
        # bounds assigns it to B
        assert scale.classify(84.5) == "B"
        assert scale.classify(59.5) == "D"

    def test_domain_endpoints(self, scale):
        assert scale.classify(0) == "F"
        assert scale.classify(100) == "A"

    @pytest.mark.parametrize("score", [-0.5, 100.5, -1, 101])
    def test_out_of_domain(self, score, scale):
        with pytest.raises(OutOfDomainError):
            scale.classify(score)

    @pytest.mark.parametrize("make_scale", [default_scale, strict_scale])
    def test_midpoints_classify_to_own_grade(self, make_scale):
        scale = make_scale()
        for label, gn in scale.entries:
            assert scale.classify(gn.midpoint) == label

    @pytest.mark.parametrize("make_scale", [default_scale, strict_scale])
    def test_roundtrip_whiten_then_classify(self, make_scale):
        scale = make_scale()
        for label, gn in scale.entries:
            assert scale.classify(gn.whiten(0.5)) == label

    def test_integer_scores_match_closed_membership(self, scale):
        for score in range(0, 101):
            member = [label for label, gn in scale.entries if score in gn]
            assert len(member) == 1
            assert scale.classify(score) == member[0]

    @given(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_monotone(self, s1, s2):
        scale = default_scale()
        s1, s2 = min(s1, s2), max(s1, s2)
        order = scale.labels
        # higher score classifies to an equal-or-higher grade
        assert order.index(scale.classify(s1)) >= order.index(scale.classify(s2))

    @given(st.data())
    def test_matches_linear_scan(self, data):
        scale = data.draw(_unvalidated_scales())
        edges = [x for _, gn in scale.entries for x in (gn.lower, gn.upper)]
        edges = sorted({*edges, scale.domain_min, scale.domain_max} - {math.inf, -math.inf})
        near = [math.nextafter(x, to) for x in edges for to in (-math.inf, x, math.inf)]
        gaps = [a / 2 + b / 2 for a, b in zip(edges, edges[1:])]
        special = [0.0, -0.0, math.nan, math.inf, -math.inf]
        scores = st.sampled_from(near + gaps + special) | st.floats()
        for score in data.draw(st.lists(scores, min_size=1, max_size=20)):
            assert _classified(scale.classify, score) == _classified(
                lambda s: _linear_classify(scale, s), score
            )


def _linear_classify(scale, score):
    """The linear scan that classified scores before the bisect, kept as the reference."""
    if not scale.domain_min <= score <= scale.domain_max:
        raise OutOfDomainError(
            f"score {score} outside domain [{scale.domain_min:g}, {scale.domain_max:g}]"
        )
    for label, gn in scale.entries:
        if score >= gn.lower:
            return label
    return scale.entries[-1][0]


def _classified(classify, score):
    try:
        return "grade", classify(score)
    except OutOfDomainError as exc:
        return "error", str(exc)


_bounds = st.sampled_from(
    [-5.0, -0.0, 0.0, 5e-324, 49.0, 50.0, 74.5, 75.0, 84.0, 85.0, 100.0]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _unvalidated_scales(draw):
    """Scales in any order, overlapping, gapped or with repeated labels, over
    any domain, ``0 inf`` among them."""
    entry = st.tuples(st.sampled_from("ABC"), _bounds, _bounds)
    entries = draw(st.lists(entry, min_size=1, max_size=6))
    domains = st.sampled_from([(0.0, 100.0), (0.0, math.inf), (-math.inf, math.inf)])
    domain = draw(domains | st.tuples(_bounds, _bounds))
    intervals = tuple((label, GreyNumber(min(a, b), max(a, b))) for label, a, b in entries)
    return GradeScale(intervals, *domain)


def _scale(entries, lo=0, hi=100):
    return GradeScale(tuple((l, GreyNumber(a, b)) for l, a, b in entries), lo, hi)


class TestValidate:
    def test_overlap_reported_with_labels(self):
        violations = _scale([("A", 85, 100), ("B", 80, 90), ("F", 0, 79)]).validate()
        assert any("overlap" in v and "'A'" in v and "'B'" in v for v in violations)

    def test_coverage_violation_at_bottom(self):
        violations = _scale([("P", 50, 100), ("Q", 10, 49)]).validate()
        assert any("domain minimum" in v for v in violations)

    def test_coverage_violation_at_top(self):
        violations = _scale([("P", 50, 90), ("Q", 0, 49)]).validate()
        assert any("domain maximum" in v for v in violations)

    def test_duplicate_label(self):
        violations = _scale([("A", 50, 100), ("A", 0, 49)]).validate()
        assert any("duplicate" in v for v in violations)

    def test_empty_label(self):
        violations = _scale([("", 50, 100), ("B", 0, 49)]).validate()
        assert any("empty grade label" in v for v in violations)

    def test_single_grade_rejected(self):
        violations = _scale([("A", 0, 100)]).validate()
        assert any("at least 2" in v for v in violations)

    def test_interval_outside_domain(self):
        violations = _scale([("A", 50, 120), ("F", 0, 49)]).validate()
        assert any("leaves the score domain" in v for v in violations)

    def test_ascending_order_reported(self):
        violations = _scale([("F", 0, 49), ("A", 50, 100)]).validate()
        assert any("descending" in v for v in violations)

    def test_two_grade_scale_ok(self):
        assert _scale([("pass", 50, 100), ("fail", 0, 49)]).validate() == []


SCALE_TEXT = """\
A 85 100
B 75 84
C 60 74
D 50 59
F 0 49
"""


class TestScaleFiles:
    def test_parse_default_format(self):
        assert parse_scale_text(SCALE_TEXT) == default_scale()

    def test_comments_and_blank_lines(self):
        text = "# comment\n\n" + SCALE_TEXT + "\n# trailing\n"
        assert parse_scale_text(text) == default_scale()

    def test_domain_line(self):
        scale = parse_scale_text("domain 0 20\nhigh 10 20\nlow 0 9\n")
        assert (scale.domain_min, scale.domain_max) == (0.0, 20.0)
        assert scale.validate() == []

    def test_format_roundtrip_nondefault_domain(self):
        scale = parse_scale_text("domain 0.5 20\nhigh 10.25 20\nlow 0.5 9\n")
        assert scale == GradeScale(
            (("high", GreyNumber(10.25, 20)), ("low", GreyNumber(0.5, 9))), 0.5, 20
        )

    def test_format_roundtrip_infinite_domain(self, tmp_path):
        # a non-finite domain end parses, from text and from a file
        text = "domain 0 inf\nA 50 100\nB 0 49\n"
        scale = parse_scale_text(text)
        assert (scale.domain_min, scale.domain_max) == (0.0, math.inf)
        path = tmp_path / "scale.txt"
        path.write_text(text, encoding="utf-8")
        assert read_scale_file(path) == scale

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "scale.txt"
        path.write_text("A 90 100\nB 80 89\nC 70 79\nD 60 69\nF 0 59\n", encoding="utf-8")
        assert read_scale_file(path) == strict_scale()

    def test_byte_order_mark_stripped(self, tmp_path):
        path = tmp_path / "scale.txt"
        path.write_bytes(b"\xef\xbb\xbfA 90 100\nB 80 89\nC 70 79\nD 60 69\nF 0 59\n")
        assert read_scale_file(path) == strict_scale()

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "scale.txt"
        path.write_bytes(b"\xef\xbb\xbf# grades\n\nA 85 100 \xff\nF 0 84\n")
        with pytest.raises(ScaleFormatError) as exc_info:
            read_scale_file(path)
        assert str(exc_info.value) == (
            f"{path}: line 3: not valid UTF-8 at byte 0xff (invalid start byte)"
        )

    def test_wrong_field_count(self):
        with pytest.raises(ScaleFormatError, match="line 2"):
            parse_scale_text("A 85 100\nB 75\n")

    def test_non_numeric_bound(self):
        with pytest.raises(ScaleFormatError, match="line 1"):
            parse_scale_text("A eighty 100\n")

    def test_reversed_bounds(self):
        with pytest.raises(ScaleFormatError, match="line 1"):
            parse_scale_text("A 100 85\n")

    def test_domain_after_entries(self):
        with pytest.raises(ScaleFormatError, match="domain line"):
            parse_scale_text("A 50 100\ndomain 0 100\n")

    def test_domain_line_needs_two_bounds(self):
        with pytest.raises(ScaleFormatError, match="line 1: expected 'domain <min> <max>'"):
            parse_scale_text("domain 0\nA 50 100\nF 0 49\n")

    def test_empty_file(self):
        with pytest.raises(ScaleFormatError, match="no grade entries"):
            parse_scale_text("# nothing here\n")
