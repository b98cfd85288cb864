import math
import operator
import random
import sys

import pytest
from hypothesis import given, strategies as st

from greyassess import GreyNumber, IntervalError, ZeroDivisorError

from conftest import random_interval


def clamp(x, lo, hi):
    return min(max(x, lo), hi)


finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
any_float = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    x, y = draw(finite), draw(finite)
    return GreyNumber(min(x, y), max(x, y))


@st.composite
def nonzero_intervals(draw):
    # divisors bounded away from zero; quotients of tinier magnitudes
    # overflow double precision and are rejected as unrepresentable
    low = draw(st.floats(min_value=0.001, max_value=100, allow_nan=False))
    width = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
    if draw(st.booleans()):
        return GreyNumber(-(low + width), -low)
    return GreyNumber(low, low + width)


class TestConstruction:
    def test_make(self):
        gn = GreyNumber(3, 5)
        assert (gn.lower, gn.upper) == (3.0, 5.0)

    def test_degenerate_is_white(self):
        gn = GreyNumber(4, 4)
        assert gn.is_white
        assert GreyNumber(0, 0).is_white
        assert not GreyNumber(4, 4.0001).is_white

    def test_reversed_bounds_rejected(self):
        with pytest.raises(IntervalError):
            GreyNumber(5, 3)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(IntervalError):
            GreyNumber(bad, 5)
        with pytest.raises(IntervalError):
            GreyNumber(0, bad)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GreyNumber(10**400, 1),
            lambda: GreyNumber(1, 10**400),
            lambda: GreyNumber(-(10**400), 1),
            lambda: GreyNumber(1, 2) * 10**400,
            lambda: 10**5000 + GreyNumber(1, 2),
        ],
        ids=["lower", "upper", "negative-lower", "times-int", "int-too-long-to-print"],
    )
    def test_integer_beyond_the_float_range_rejected(self, build):
        with pytest.raises(IntervalError, match="^interval endpoints must be finite, "):
            build()


class TestArithmetic:
    def test_add(self):
        assert GreyNumber(1, 2) + GreyNumber(3, 4) == GreyNumber(4, 6)
        assert GreyNumber(0, 0) + GreyNumber(-2, 7) == GreyNumber(-2, 7)
        assert GreyNumber(-1, 2) + GreyNumber(-3, 5) == GreyNumber(-4, 7)

    def test_sub(self):
        assert GreyNumber(4, 6) - GreyNumber(1, 2) == GreyNumber(2, 5)
        assert GreyNumber(-2, 7) - GreyNumber(0, 0) == GreyNumber(-2, 7)
        # interval self-subtraction does not collapse to zero
        assert GreyNumber(1, 2) - GreyNumber(1, 2) == GreyNumber(-1, 1)

    def test_mul(self):
        assert GreyNumber(1, 2) * GreyNumber(3, 4) == GreyNumber(3, 8)
        assert GreyNumber(-1, 2) * GreyNumber(3, 4) == GreyNumber(-4, 8)
        assert GreyNumber(1, 1) * GreyNumber(-2, 7) == GreyNumber(-2, 7)

    def test_div(self):
        assert GreyNumber(1, 2) / GreyNumber(4, 5) == GreyNumber(0.2, 0.5)
        assert GreyNumber(-2, 7) / GreyNumber(1, 1) == GreyNumber(-2, 7)

    @pytest.mark.parametrize("divisor", [(-1, 1), (0, 1), (-1, 0), (0, 0)])
    def test_div_by_zero_containing_interval(self, divisor):
        with pytest.raises(ZeroDivisorError):
            GreyNumber(1, 2) / GreyNumber(*divisor)

    def test_numbers_coerce_to_white(self):
        gn = GreyNumber(3, 5)
        assert 2 * gn == GreyNumber(6, 10)
        assert gn + 1 == GreyNumber(4, 6)
        assert 10 - gn == GreyNumber(5, 7)
        assert gn / 2 == GreyNumber(1.5, 2.5)
        assert 10 / GreyNumber(2, 5) == GreyNumber(2, 5)
        # negative factors flip via white-number multiplication
        assert -1 * gn == GreyNumber(-5, -3)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_non_numbers_do_not_coerce(self, op):
        with pytest.raises(TypeError):
            op(GreyNumber(1, 2), "x")
        with pytest.raises(TypeError):
            op("x", GreyNumber(1, 2))


class TestWhiten:
    def test_example_one_midpoint(self):
        assert GreyNumber(62.42, 79.33).whiten(0.5) == pytest.approx(70.875, abs=1e-9)

    def test_endpoints_exact(self):
        gn = GreyNumber(-3.25, 17.5)
        assert gn.whiten(0.0) == gn.lower
        assert gn.whiten(1.0) == gn.upper

    def test_white_number_any_t(self):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert GreyNumber(4, 4).whiten(t) == pytest.approx(4.0, abs=1e-12)

    def test_point_interval_whitens_to_itself(self):
        # (1 - 0.1) * 84 + 0.1 * 84 rounds to 84.00000000000001
        assert GreyNumber(84, 84).whiten(0.1) == 84.0

    def test_default_is_midpoint(self):
        assert GreyNumber(1, 3).whiten() == 2.0

    @pytest.mark.parametrize("t", [-0.1, 1.1, 2])
    def test_t_out_of_range(self, t):
        with pytest.raises(ValueError):
            GreyNumber(1, 3).whiten(t)

    @given(intervals(), unit)
    def test_bounded_by_endpoints(self, gn, t):
        tol = 1e-9 * max(1.0, abs(gn.lower), abs(gn.upper))
        w = gn.whiten(t)
        assert gn.lower - tol <= w <= gn.upper + tol

    @given(intervals(), unit, unit)
    def test_monotone_in_t(self, gn, t1, t2):
        t1, t2 = min(t1, t2), max(t1, t2)
        tol = 1e-9 * max(1.0, abs(gn.lower), abs(gn.upper))
        assert gn.whiten(t1) <= gn.whiten(t2) + tol


class TestMidpoint:
    @pytest.mark.parametrize(
        "lower, upper, mid",
        [
            (1e308, 1.7e308, 1.35e308),
            (-1.7e308, -1e308, -1.35e308),
            (-1.7e308, 1.7e308, 0.0),
            (sys.float_info.max, sys.float_info.max, sys.float_info.max),
            (-sys.float_info.max, -sys.float_info.max, -sys.float_info.max),
        ],
    )
    def test_ends_of_the_float_range(self, lower, upper, mid):
        assert GreyNumber(lower, upper).midpoint == mid

    @given(any_float, any_float)
    def test_half_sum_where_it_is_finite_and_inside_the_interval(self, x, y):
        gn = GreyNumber(min(x, y), max(x, y))
        if math.isfinite(gn.lower + gn.upper):
            assert gn.midpoint == (gn.lower + gn.upper) / 2
        assert gn.lower <= gn.midpoint <= gn.upper


class TestProperties:
    @given(intervals(), intervals())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(intervals(), intervals())
    def test_results_are_valid_intervals(self, a, b):
        for result in (a + b, a - b, a * b):
            assert result.lower <= result.upper

    @given(intervals(), nonzero_intervals())
    def test_div_result_is_valid_interval(self, a, b):
        result = a / b
        assert result.lower <= result.upper

    @given(intervals(), intervals(), unit, unit)
    def test_inclusion_add_sub_mul(self, a, b, u, v):
        x = clamp(a.lower + u * (a.upper - a.lower), a.lower, a.upper)
        y = clamp(b.lower + v * (b.upper - b.lower), b.lower, b.upper)
        assert x + y in (a + b)
        assert x - y in (a - b)
        assert x * y in (a * b)

    @given(intervals(), nonzero_intervals(), unit, unit)
    def test_inclusion_div(self, a, b, u, v):
        x = clamp(a.lower + u * (a.upper - a.lower), a.lower, a.upper)
        y = clamp(b.lower + v * (b.upper - b.lower), b.lower, b.upper)
        assert x / y in (a / b)

    def test_deterministic(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = random_interval(rng), random_interval(rng)
            first = (a + b, a - b, a * b, a.whiten(0.25))
            second = (a + b, a - b, a * b, a.whiten(0.25))
            assert first == second


class TestRendering:
    def test_integers_render_bare(self):
        assert str(GreyNumber(3, 5)) == "[3, 5]"

    def test_four_decimal_places(self):
        assert str(GreyNumber(62.416666666, 79.333333333)) == "[62.4167, 79.3333]"

    def test_trailing_zeros_trimmed(self):
        assert str(GreyNumber(0.5, 2.25)) == "[0.5, 2.25]"
        assert str(GreyNumber(-0.00004, 1)) == "[0, 1]"

    def test_containment_operator(self):
        gn = GreyNumber(1, 2)
        assert 1.5 in gn
        assert 1 in gn and 2 in gn
        assert 2.1 not in gn
