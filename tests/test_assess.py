import copy
import dataclasses
import json
import math
import pickle
import random
from array import array
from fractions import Fraction

import pytest

from greyassess import (
    GradeDistribution,
    GradeScale,
    GreyNumber,
    OutOfDomainError,
    ScoreSheet,
    UnknownGradeError,
    assess,
    compare_groups,
    default_scale,
    mean_gn,
    raw_mean,
    scores_to_distribution,
)
from greyassess.assessment import _tally

from conftest import (
    G1_LOWER,
    G1_UPPER,
    G2_LOWER,
    G2_UPPER,
    PLAYERS_LOWER,
    PLAYERS_RAW_MEAN,
    PLAYERS_UPPER,
    PLAYERS_WHITENED,
    random_distribution,
    sheet_values,
    strict_scale,
)


class TestGradeDistribution:
    def test_total(self, g1_dist):
        assert g1_dist.n == 60

    def test_missing_labels_count_zero(self):
        assert GradeDistribution({"A": 3}).count("F") == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            GradeDistribution({"A": -3})

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError):
            GradeDistribution({"A": 2.5})

    def test_labels_equal_as_str_rejected(self):
        # the counts dict keys labels by str, so n would count both and the counts only one
        with pytest.raises(ValueError, match="grade '1' is given more than once"):
            GradeDistribution({1: 2, "1": 3})

    def test_equal_distributions_hash_equal(self):
        forward = GradeDistribution({"A": 1, "B": 2})
        backward = GradeDistribution({"B": 2, "A": 1})
        assert forward == backward and hash(forward) == hash(backward)
        assert len({forward, backward, GradeDistribution({"A": 1})}) == 2

    def test_total_is_derived_from_the_counts(self):
        dist = GradeDistribution({"A": 1, "B": 2})
        (field,) = (f for f in dataclasses.fields(dist) if f.name == "n")
        assert not (field.init or field.repr or field.compare)
        assert repr(dist) == "GradeDistribution(counts={'A': 1, 'B': 2})"
        assert dataclasses.replace(dist, counts={"A": 4}).n == 4
        assert GradeDistribution({}).n == 0


class TestScoreSheet:
    def test_pooling_keeps_subject_order(self):
        sheet = ScoreSheet((("s1", (10, 20)), ("s2", (30,))))
        assert sheet_values(sheet) == [("s1", [10.0, 20.0]), ("s2", [30.0])]

    def test_empty_sheet_rejected(self):
        for subjects in ((), iter(())):
            with pytest.raises(ValueError, match="^score sheet has no subjects$"):
                ScoreSheet(subjects)

    def test_subject_without_scores_rejected(self):
        with pytest.raises(ValueError):
            ScoreSheet((("s1", ()),))
        with pytest.raises(ValueError, match="^subject 's2' has no scores$"):
            ScoreSheet((("s1", [50]), ("s2", array("d"))))

    def test_list_tuple_and_array_give_equal_sheets(self):
        values = [87.5, -0.0, 100.0, 87.5]
        sheets = [
            ScoreSheet((("s1", make(values)), ("s2", make(values[:1]))))
            for make in (list, tuple, lambda v: array("d", v))
        ]
        for sheet in sheets:
            assert sheet == sheets[0] and hash(sheet) == hash(sheets[0])
            assert sheet_values(sheet) == [("s1", values), ("s2", values[:1])]
        other = ScoreSheet((("s1", values[:-1]), ("s2", values[:1])))
        assert len({*sheets, other}) == 2 and other != sheets[0]

    def test_scores_convert_as_float_converts_them(self):
        raw = ["87.5", 1, True, Fraction(1, 4), " 9_0 "]
        sheet = ScoreSheet((("s1", raw),))
        assert sheet_values(sheet) == [("s1", [87.5, 1.0, 1.0, 0.25, 90.0])]

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ("abc", ValueError, "could not convert string to float: 'abc'"),
            (10**400, OverflowError, "int too large to convert to float"),
        ],
    )
    def test_non_numbers_raise_what_float_raises(self, bad, error, message):
        for convert in (float, lambda x: ScoreSheet((("s1", [50, x]),))):
            with pytest.raises(error) as exc_info:
                convert(bad)
            assert type(exc_info.value) is error and str(exc_info.value) == message

    def test_extreme_doubles_come_back_bit_for_bit(self):
        values = [-0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1]
        (_, scores), = ScoreSheet((("s1", values),)).subjects
        assert [x.hex() for x in scores] == [x.hex() for x in values]
        assert math.copysign(1.0, scores[0]) == -1.0

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy]
        + [
            lambda obj, protocol=protocol: pickle.loads(pickle.dumps(obj, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
        ids=["copy", "deepcopy"] + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_copy_and_pickle_round_trip(self, round_trip):
        sheet = ScoreSheet((("s1", (10, 20.5)), ("s2", ("-0",))))
        again = round_trip(sheet)
        assert type(again) is ScoreSheet
        assert again == sheet and hash(again) == hash(sheet)
        assert sheet_values(again) == [("s1", [10.0, 20.5]), ("s2", [-0.0])]
        assert math.copysign(1.0, again.subjects[1][1][0]) == -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.subjects = ()


class TestMeanGn:
    def test_example_one_group_one(self, g1_dist, scale):
        mean = mean_gn(g1_dist, scale)
        assert mean.lower == pytest.approx(G1_LOWER, abs=1e-9)
        assert mean.upper == pytest.approx(G1_UPPER, abs=1e-9)

    def test_example_one_group_two(self, g2_dist, scale):
        mean = mean_gn(g2_dist, scale)
        assert mean.lower == pytest.approx(G2_LOWER, abs=1e-9)
        assert mean.upper == pytest.approx(G2_UPPER, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 5, 49])
    def test_single_grade_identity(self, n, scale):
        mean = mean_gn(GradeDistribution({"C": n}), scale)
        assert mean.lower == pytest.approx(60.0, abs=1e-12)
        assert mean.upper == pytest.approx(74.0, abs=1e-12)

    def test_empty_distribution_rejected(self, scale):
        with pytest.raises(ValueError, match="empty distribution"):
            mean_gn(GradeDistribution({"A": 0}), scale)

    def test_unknown_label_rejected(self, scale):
        with pytest.raises(UnknownGradeError):
            mean_gn(GradeDistribution({"A": 1, "Z": 2}), scale)

    def test_order_independent(self, scale):
        forward = GradeDistribution({"A": 2, "B": 3, "F": 1})
        backward = GradeDistribution({"F": 1, "B": 3, "A": 2})
        assert mean_gn(forward, scale) == mean_gn(backward, scale)

    @pytest.mark.parametrize("make_scale", [default_scale, strict_scale])
    def test_single_grade_group_reproduces_interval_exactly(self, make_scale):
        scale = make_scale()
        for label, gn in scale.entries:
            for n in range(1, 201):
                assert mean_gn(GradeDistribution({label: n}), scale) == gn, (label, n)

    def test_total_count_too_large_for_a_float(self, scale):
        # each count converts to a float, their sum does not
        dist = GradeDistribution({"A": 10**308, "B": 10**308})
        with pytest.raises(ValueError, match="too large for a float"):
            mean_gn(dist, scale)

    def test_zero_counts_ignored(self, scale):
        with_zero = GradeDistribution({"A": 2, "B": 0})
        without = GradeDistribution({"A": 2})
        assert mean_gn(with_zero, scale) == mean_gn(without, scale)

    @pytest.mark.parametrize("counts", [{"A": 2}, {"A": 1, "F": 1}])
    def test_overflowed_endpoint_sum_rejected(self, counts):
        # the float endpoint sums overflow; the exact integer sums give the
        # finite mean, [1e308, 1.7e308] and [5e307, 1.3e308]
        huge = GradeScale(
            (("A", GreyNumber(1e308, 1.7e308)), ("F", GreyNumber(0, 9e307))), 0, 1.7e308
        )
        assert huge.validate() == []
        dist = GradeDistribution(counts)
        pairs = [(dist.count(label), gn) for label, gn in huge.entries]
        lower = sum(c * Fraction(gn.lower) for c, gn in pairs) / dist.n
        upper = sum(c * Fraction(gn.upper) for c, gn in pairs) / dist.n
        assert mean_gn(dist, huge) == GreyNumber(float(lower), float(upper))

    def test_endpoints_stay_in_domain(self, scale):
        rng = random.Random(3)
        for _ in range(200):
            dist = random_distribution(rng, scale.labels)
            mean = mean_gn(dist, scale)
            assert 0.0 - 1e-9 <= mean.lower <= mean.upper <= 100.0 + 1e-9

    def test_matches_scalar_weighted_average(self, scale):
        # independent oracle: plain count-weighted average per endpoint
        rng = random.Random(5)
        for _ in range(200):
            dist = random_distribution(rng, scale.labels)
            mean = mean_gn(dist, scale)
            lo = sum(dist.count(l) * gn.lower for l, gn in scale.entries) / dist.n
            hi = sum(dist.count(l) * gn.upper for l, gn in scale.entries) / dist.n
            assert mean.lower == pytest.approx(lo, abs=1e-9)
            assert mean.upper == pytest.approx(hi, abs=1e-9)


class TestAssess:
    def test_group_one_report(self, g1_dist, scale):
        report = assess(g1_dist, scale, group_id="G1")
        assert report.whitened == pytest.approx(70.875, abs=1e-9)
        assert report.grade == "C"
        assert report.n == 60
        assert report.t == 0.5

    def test_group_two_report(self, g2_dist, scale):
        report = assess(g2_dist, scale, group_id="G2")
        assert report.whitened == pytest.approx((G2_LOWER + G2_UPPER) / 2, abs=1e-9)
        assert report.whitened == pytest.approx(72.7059, abs=5e-5)
        assert report.grade == "C"

    def test_all_excellent(self, scale):
        report = assess(GradeDistribution({"A": 7}), scale)
        assert report.whitened == pytest.approx(92.5, abs=1e-9)
        assert report.grade == "A"

    def test_ninety_one_excellent_whiten_to_the_top_at_t_one(self, scale):
        report = assess(GradeDistribution({"A": 91}), scale, t=1)
        assert report.whitened == 100.0
        assert report.grade == "A"

    def test_hundred_and_three_excellent_stay_excellent_at_t_zero(self, scale):
        report = assess(GradeDistribution({"A": 103}), scale, t=0)
        assert report.whitened == 85.0
        assert report.grade == "A"

    def test_partial_distribution_reports_every_label(self, scale):
        dist = GradeDistribution({"A": 7})
        report = assess(dist, scale)
        assert report.distribution is dist
        assert report.to_dict()["distribution"] == {"A": 7, "B": 0, "C": 0, "D": 0, "F": 0}

    def test_report_is_self_consistent(self, scale):
        rng = random.Random(9)
        for _ in range(50):
            dist = random_distribution(rng, scale.labels)
            t = rng.uniform(0, 1)
            report = assess(dist, scale, t)
            pairs = [(dist.count(label), gn) for label, gn in scale.entries]
            lower = sum(c * Fraction(gn.lower) for c, gn in pairs) / dist.n
            upper = sum(c * Fraction(gn.upper) for c, gn in pairs) / dist.n
            assert report.mean_gn == GreyNumber(float(lower), float(upper))
            assert report.whitened == float(lower + Fraction(t) * (upper - lower))
            assert report.grade == scale.classify(report.whitened)
            assert set(report.distribution.counts) == set(scale.labels)

    def test_to_dict_schema(self, g1_dist, scale):
        entry = assess(g1_dist, scale, group_id="G1").to_dict()
        assert set(entry) == {"group", "n", "mean_gn", "whitened", "grade", "t", "distribution"}
        assert set(entry["mean_gn"]) == {"lower", "upper"}
        assert entry["distribution"] == {"A": 20, "B": 15, "C": 7, "D": 10, "F": 8}

    def test_json_round_trip_keeps_full_precision(self, g1_dist, scale):
        entry = assess(g1_dist, scale, group_id="G1").to_dict()
        assert json.loads(json.dumps(entry)) == entry

    def test_mixing_monotonicity(self, scale):
        # promoting one object to a strictly higher grade raises the
        # whitened value, for any t strictly inside (0, 1)
        rng = random.Random(13)
        labels = scale.labels
        for _ in range(100):
            dist = random_distribution(rng, labels)
            source = rng.choice([l for l in labels if dist.count(l) > 0])
            higher = [l for l in labels if labels.index(l) < labels.index(source)]
            if not higher:
                continue
            target = rng.choice(higher)
            moved = dict(dist.counts)
            moved[source] -= 1
            moved[target] += 1
            t = rng.uniform(0.01, 0.99)
            before = mean_gn(dist, scale).whiten(t)
            after = mean_gn(GradeDistribution(moved), scale).whiten(t)
            assert after > before

    def test_midpoint_oracle_small_groups(self, scale):
        # brute force: mean of per-object interval midpoints
        rng = random.Random(17)
        for _ in range(200):
            while True:
                dist = GradeDistribution({l: rng.randint(0, 3) for l in scale.labels})
                if 1 <= dist.n <= 10:
                    break
            midpoints = [
                gn.midpoint for label, gn in scale.entries for _ in range(dist.count(label))
            ]
            expected = sum(midpoints) / len(midpoints)
            assert mean_gn(dist, scale).whiten(0.5) == pytest.approx(expected, abs=1e-9)


class TestScoresToDistribution:
    def test_example_two_distribution(self, players_sheet, scale):
        dist = scores_to_distribution(players_sheet, scale)
        assert dist.counts == {"A": 14, "B": 4, "C": 1, "D": 4, "F": 7}

    def test_single_perfect_score(self, scale):
        dist = scores_to_distribution(ScoreSheet((("s", (100,)),)), scale)
        assert dist.counts == {"A": 1, "B": 0, "C": 0, "D": 0, "F": 0}

    def test_example_two_assessment(self, players_sheet, scale):
        dist = scores_to_distribution(players_sheet, scale)
        report = assess(dist, scale)
        assert report.mean_gn.lower == pytest.approx(PLAYERS_LOWER, abs=1e-9)
        assert report.mean_gn.upper == pytest.approx(PLAYERS_UPPER, abs=1e-9)
        assert report.whitened == pytest.approx(PLAYERS_WHITENED, abs=1e-9)
        assert report.grade == "C"

    def test_out_of_domain_names_subject(self, scale):
        sheet = ScoreSheet((("p9", (50, 101)),))
        with pytest.raises(OutOfDomainError, match="p9"):
            scores_to_distribution(sheet, scale)

    def test_first_out_of_domain_score_in_input_order_is_named(self, scale):
        # built directly, so that no loader checks the domain first
        sheet = ScoreSheet((("p1", (50, 60)), ("p2", (70, 120, -5)), ("p3", (-1,))))
        message = "subject 'p2': score 120.0 outside domain [0, 100]"
        with pytest.raises(OutOfDomainError) as pooled:
            scores_to_distribution(sheet, scale)
        with pytest.raises(OutOfDomainError) as per_subject:
            [_tally([pair], scale) for pair in sheet.subjects]
        assert str(pooled.value) == str(per_subject.value) == message


class TestRawMean:
    def test_example_two(self, players_sheet):
        assert raw_mean(players_sheet) == pytest.approx(PLAYERS_RAW_MEAN, abs=1e-12)
        assert raw_mean(players_sheet) == pytest.approx(72.0667, abs=5e-5)

    def test_single_score(self):
        assert raw_mean(ScoreSheet((("s", (50,)),))) == 50.0

    def test_two_extremes(self):
        assert raw_mean(ScoreSheet((("s", (0, 100)),))) == 50.0

    def test_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="sum of the scores is too large for a float"):
            raw_mean(ScoreSheet((("s", (0.95e308, 0.95e308)),)))

    def test_bracketed_by_whitening_extremes(self, scale):
        # integer scores: the raw mean lies in the mean grey number
        rng = random.Random(23)
        for _ in range(100):
            scores = tuple(rng.randint(0, 100) for _ in range(rng.randint(1, 40)))
            sheet = ScoreSheet((("s", scores),))
            mean = mean_gn(scores_to_distribution(sheet, scale), scale)
            value = raw_mean(sheet)
            assert mean.whiten(0.0) - 1e-9 <= value <= mean.whiten(1.0) + 1e-9


class TestCompareGroups:
    def test_example_one_ranking(self, g1_dist, g2_dist, scale):
        r1 = assess(g1_dist, scale, group_id="G1")
        r2 = assess(g2_dist, scale, group_id="G2")
        groups = compare_groups([r1, r2])
        assert [[r.group_id for r in g] for g in groups] == [["G2"], ["G1"]]

    def test_identical_distributions_tie(self, g1_dist, scale):
        r1 = assess(g1_dist, scale, group_id="x")
        r2 = assess(g1_dist, scale, group_id="y")
        groups = compare_groups([r1, r2])
        assert len(groups) == 1 and len(groups[0]) == 2

    def test_single_report(self, g1_dist, scale):
        report = assess(g1_dist, scale, group_id="only")
        assert compare_groups([report]) == [[report]]

    def test_no_reports(self):
        assert compare_groups([]) == []

    def test_mixed_scales_rejected(self, g1_dist):
        r1 = assess(g1_dist, default_scale(), group_id="x")
        r2 = assess(g1_dist, strict_scale(), group_id="y")
        with pytest.raises(ValueError, match="different scales"):
            compare_groups([r1, r2])

    def test_mixed_t_rejected(self, g1_dist, scale):
        r1 = assess(g1_dist, scale, t=0.5)
        r2 = assess(g1_dist, scale, t=0.4)
        with pytest.raises(ValueError):
            compare_groups([r1, r2])

    def test_ties_are_equal_whitened_values(self, g1_dist, scale):
        # one ulp apart is no tie; equal values tie in input order
        report = assess(g1_dist, scale)
        below = math.nextafter(report.whitened, 0.0)
        reports = [
            dataclasses.replace(report, group_id=str(i), whitened=w)
            for i, w in enumerate([below, report.whitened, below, report.whitened])
        ]
        groups = compare_groups(reports)
        assert [[r.group_id for r in g] for g in groups] == [["1", "3"], ["0", "2"]]
