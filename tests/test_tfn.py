import math
import random

import pytest

from greyassess import (
    GradeDistribution,
    GradeScale,
    GreyNumber,
    TriangularFuzzyNumber,
    check_equivalence,
    defuzzify,
    mean_gn,
    tfn_mean,
)

from conftest import G1_LOWER, G1_TFN_PEAK, G1_UPPER, random_distribution


class TestTriangularFuzzyNumber:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(2, 1, 3)
        with pytest.raises(ValueError):
            TriangularFuzzyNumber(1, 3, 2)

    def test_degenerate_allowed(self):
        tfn = TriangularFuzzyNumber(4, 4, 4)
        assert (tfn.a, tfn.b, tfn.c) == (4.0, 4.0, 4.0)

    @pytest.mark.parametrize("components", [
        (1, 2, math.inf), (-math.inf, 0, 1), (-math.inf, 0, math.inf), (math.nan, 1, 2),
    ])
    def test_non_finite_components_rejected(self, components):
        with pytest.raises(ValueError, match="components must be finite"):
            TriangularFuzzyNumber(*components)


class TestTfnMean:
    def test_single_grade_identity(self, scale):
        mean = tfn_mean(GradeDistribution({"B": 12}), scale)
        assert (mean.a, mean.b, mean.c) == pytest.approx((75, 79.5, 84), abs=1e-12)

    def test_example_one_group_one(self, g1_dist, scale):
        mean = tfn_mean(g1_dist, scale)
        assert mean.a == pytest.approx(G1_LOWER, abs=1e-9)
        assert mean.b == pytest.approx(G1_TFN_PEAK, abs=1e-9)
        assert mean.c == pytest.approx(G1_UPPER, abs=1e-9)

    def test_example_two_peak_matches_whitened(self, scale):
        # distribution from the five players' 30 pooled scores
        dist = GradeDistribution({"A": 14, "B": 4, "C": 1, "D": 4, "F": 7})
        mean = tfn_mean(dist, scale)
        assert mean.b == pytest.approx(2069.5 / 30, abs=1e-9)
        assert mean.b == pytest.approx(mean_gn(dist, scale).whiten(0.5), abs=1e-9)

    def test_empty_distribution(self, scale):
        with pytest.raises(ValueError):
            tfn_mean(GradeDistribution({}), scale)

    def test_total_count_too_large_for_a_float(self, scale):
        with pytest.raises(ValueError, match="too large for a float"):
            tfn_mean(GradeDistribution({"A": 10**308, "B": 10**308}), scale)

    def test_overflowed_component_sum_rejected(self):
        # a valid scale whose endpoint sums leave the float range
        huge = GradeScale(
            (("A", GreyNumber(5e307, 1.3e308)), ("F", GreyNumber(0, 4e307))),
            domain_min=0, domain_max=1.3e308,
        )
        assert huge.validate() == []
        with pytest.raises(ValueError, match="components must be finite"):
            tfn_mean(GradeDistribution({"A": 2}), huge)

    def test_component_ordering_preserved(self, scale):
        rng = random.Random(29)
        for _ in range(200):
            mean = tfn_mean(random_distribution(rng, scale.labels), scale)
            assert mean.a <= mean.b <= mean.c

    def test_midpoint_relation_preserved(self, scale):
        # grade triples have b = (a+c)/2; weighted averaging keeps that
        rng = random.Random(31)
        for _ in range(200):
            mean = tfn_mean(random_distribution(rng, scale.labels), scale)
            assert mean.b == pytest.approx((mean.a + mean.c) / 2, abs=1e-9)


class TestDefuzzify:
    def test_grade_a_triple(self):
        assert defuzzify(TriangularFuzzyNumber(85, 92.5, 100)) == 92.5

    def test_degenerate(self):
        assert defuzzify(TriangularFuzzyNumber(3, 3, 3)) == 3.0

    def test_example_one_value(self, g1_dist, scale):
        assert defuzzify(tfn_mean(g1_dist, scale)) == pytest.approx(70.875, abs=1e-9)

    def test_asymmetric_triple_ignores_peak(self):
        assert defuzzify(TriangularFuzzyNumber(0, 1, 10)) == 5.0

    @pytest.mark.parametrize(
        "a, c, value",
        [(1e308, 1.7e308, 1.35e308), (-1.7e308, -1e308, -1.35e308), (-1.7e308, 1.7e308, 0.0)],
    )
    def test_ends_of_the_float_range(self, a, c, value):
        assert defuzzify(TriangularFuzzyNumber(a, a, c)) == value


class TestEquivalence:
    def test_example_one_groups(self, g1_dist, g2_dist, scale):
        for dist in (g1_dist, g2_dist):
            check = check_equivalence(dist, scale)
            assert check.passed
            assert check.difference <= 1e-9

    def test_single_grade(self, scale):
        assert check_equivalence(GradeDistribution({"D": 4}), scale).passed

    def test_hundred_random_distributions(self, scale):
        rng = random.Random(37)
        for _ in range(100):
            check = check_equivalence(random_distribution(rng, scale.labels), scale)
            assert check.passed, check

    @pytest.mark.parametrize(
        "entries, domain, label, value",
        [
            ((("A", 1e308, 1.7e308), ("B", 0.0, 0.9e308)), (0.0, 1.7e308), "A", 1.35e308),
            ((("A", -0.9e308, 0.0), ("B", -1.7e308, -1e308)), (-1.7e308, 0.0), "B", -1.35e308),
        ],
    )
    def test_passes_near_the_largest_float(self, entries, domain, label, value):
        scale = GradeScale(tuple((name, GreyNumber(lo, hi)) for name, lo, hi in entries), *domain)
        check = check_equivalence(GradeDistribution({label: 1}), scale)
        assert check.passed
        assert check.gn_value == check.tfn_value == check.peak == value

    def test_reports_both_routes(self, g1_dist, scale):
        check = check_equivalence(g1_dist, scale)
        assert check.gn_value == pytest.approx(70.875, abs=1e-9)
        assert check.tfn_value == pytest.approx(70.875, abs=1e-9)
        assert check.peak == pytest.approx(70.875, abs=1e-9)
