"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
from contextlib import contextmanager

import pytest

from greyassess import (
    GnSyntaxError,
    assess,
    calc,
    compare_groups,
    default_scale,
    defuzzify,
    eval_expression,
    format_expression,
    load_counts_csv,
    load_scores_csv,
    mean_gn,
    parse_expression,
    raw_mean,
    scores_to_distribution,
    tfn_mean,
)

from conftest import random_distribution, random_expression, random_interval


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {description}")
        raise
    print(f"criterion {num} PASS: {description}")


def test_criterion_1_example_one_reproduction(counts_csv):
    with criterion(1, "worked example 1: group means, whitened values, grades, ranking"):
        scale = default_scale()
        groups = load_counts_csv(counts_csv, scale)
        reports = {g: assess(dist, scale, 0.5, group_id=g) for g, dist in groups.items()}

        m1 = reports["G1"].mean_gn
        assert m1.lower == pytest.approx(62.4167, abs=0.005)
        assert m1.upper == pytest.approx(79.3333, abs=0.005)
        assert reports["G1"].whitened == pytest.approx(70.88, abs=0.005)

        m2 = reports["G2"].mean_gn
        assert m2.lower == pytest.approx(65.8824, abs=0.005)
        assert m2.upper == pytest.approx(79.5294, abs=0.005)
        assert reports["G2"].whitened == pytest.approx(72.71, abs=0.005)

        assert reports["G1"].grade == "C"
        assert reports["G2"].grade == "C"

        ranking = compare_groups(list(reports.values()))
        assert [[r.group_id for r in g] for g in ranking] == [["G2"], ["G1"]]


def test_criterion_2_example_two_reproduction(scores_csv):
    with criterion(2, "worked example 2: distribution, mean, whitened value, raw mean"):
        scale = default_scale()
        sheet = load_scores_csv(scores_csv, scale)
        dist = scores_to_distribution(sheet, scale)
        assert dist.counts == {"A": 14, "B": 4, "C": 1, "D": 4, "F": 7}

        report = assess(dist, scale, 0.5)
        assert report.mean_gn.lower == pytest.approx(58.3333, abs=0.005)
        assert report.mean_gn.upper == pytest.approx(79.6333, abs=0.005)
        assert report.whitened == pytest.approx(68.98, abs=0.005)
        assert report.grade == "C"
        assert raw_mean(sheet) == pytest.approx(72.0667, abs=0.005)


def test_criterion_3_extreme_case_bracketing(scores_csv):
    with criterion(3, "extreme scores bracket the mean grey number and average to w(M)"):
        scale = default_scale()
        sheet = load_scores_csv(scores_csv, scale)
        pooled = [score for _, scores in sheet.subjects for score in scores]

        maxed = [dict(scale.entries)[scale.classify(s)].upper for s in pooled]
        minned = [dict(scale.entries)[scale.classify(s)].lower for s in pooled]
        high = sum(maxed) / len(maxed)
        low = sum(minned) / len(minned)
        assert high == pytest.approx(79.6333, abs=0.005)
        assert low == pytest.approx(58.3333, abs=0.005)

        whitened = mean_gn(scores_to_distribution(sheet, scale), scale).whiten(0.5)
        assert whitened == pytest.approx((high + low) / 2, abs=1e-9)


def test_criterion_4_tfn_equivalence(counts_csv, scores_csv):
    with criterion(4, "grey and fuzzy routes agree within 1e-9 on named and random data"):
        scale = default_scale()
        named = list(load_counts_csv(counts_csv, scale).values())
        named.append(scores_to_distribution(load_scores_csv(scores_csv, scale), scale))
        rng = random.Random(20230811)
        distributions = named + [random_distribution(rng, scale.labels) for _ in range(100)]
        for dist in distributions:
            gn_value = mean_gn(dist, scale).whiten(0.5)
            tfn_value = defuzzify(tfn_mean(dist, scale))
            assert abs(gn_value - tfn_value) <= 1e-9


def test_criterion_5_inclusion_property():
    with criterion(5, "sampled x op y always lies inside the result interval"):
        rng = random.Random(20230811)

        def sample(gn):
            return min(max(rng.uniform(gn.lower, gn.upper), gn.lower), gn.upper)

        for _ in range(1000):
            a = random_interval(rng)
            b = random_interval(rng)
            d = random_interval(rng)
            while d.lower <= 0.0 <= d.upper:
                d = random_interval(rng)
            added, subbed, mulled, dived = a + b, a - b, a * b, a / d
            for _ in range(100):
                x, y, z = sample(a), sample(b), sample(d)
                assert x + y in added
                assert x - y in subbed
                assert x * y in mulled
                assert x / z in dived


def test_criterion_6_whitening_properties():
    with criterion(6, "whitening hits the endpoints exactly and is monotone in t"):
        rng = random.Random(20230811)
        for _ in range(100):
            gn = random_interval(rng)
            assert gn.whiten(0.0) == gn.lower
            assert gn.whiten(1.0) == gn.upper
            previous = None
            for k in range(101):
                w = gn.whiten(k / 100)
                if previous is not None:
                    assert w >= previous
                previous = w


def test_criterion_7_classification_suite():
    with criterion(7, "midpoints and boundary scores classify per the default scale"):
        scale = default_scale()
        for label, gn in scale.entries:
            assert scale.classify(gn.midpoint) == label
        boundary = [(85, "A"), (84, "B"), (75, "B"), (74, "C"), (60, "C"),
                    (59, "D"), (50, "D"), (49, "F")]
        for score, label in boundary:
            assert scale.classify(score) == label


def test_criterion_8_parser_differential():
    with criterion(8, "parser path matches direct tree evaluation; malformed input errors carry positions"):
        rng = random.Random(20230811)
        for _ in range(500):
            tree = random_expression(rng)
            text = format_expression(tree)
            assert parse_expression(text) == tree
            assert calc(text) == eval_expression(tree)

        malformed = ["", "1 +", "(1", "[1 2]", "[1,2", "1 ) 2", "foo", "* 3",
                     "[5,3]", "1 + + 2", "[,1]", "[1,2] @ [3,4]"]
        for text in malformed:
            with pytest.raises(GnSyntaxError) as exc_info:
                parse_expression(text)
            assert isinstance(exc_info.value.position, int)
            assert 0 <= exc_info.value.position <= len(text)
