import random

import pytest

from greyassess import (
    BinaryOp,
    GnSyntaxError,
    GreyNumber,
    Literal,
    ZeroDivisorError,
    calc,
    eval_expression,
    format_expression,
    parse_expression,
)

from conftest import random_expression


def lit(lo, hi=None):
    return Literal(GreyNumber(lo, lo if hi is None else hi))


class TestParse:
    def test_simple_addition(self):
        assert parse_expression("[1,2] + [3,4]") == BinaryOp("+", lit(1, 2), lit(3, 4))

    def test_number_is_white_literal(self):
        assert parse_expression("7") == lit(7)
        assert parse_expression("2.5") == lit(2.5)

    def test_scalar_times_parenthesized_sum(self):
        tree = parse_expression("2 * ([85,100] + [75,84])")
        assert tree == BinaryOp("*", lit(2), BinaryOp("+", lit(85, 100), lit(75, 84)))

    def test_precedence(self):
        assert parse_expression("1 + 2 * 3") == BinaryOp("+", lit(1), BinaryOp("*", lit(2), lit(3)))

    def test_left_associativity(self):
        assert parse_expression("8 - 3 - 2") == BinaryOp("-", BinaryOp("-", lit(8), lit(3)), lit(2))

    def test_negative_numbers_in_intervals(self):
        assert parse_expression("[-1, 1]") == lit(-1, 1)
        assert parse_expression("[-3.5, -1.5]") == lit(-3.5, -1.5)

    def test_minus_stays_binary_after_operand(self):
        assert parse_expression("2-3") == BinaryOp("-", lit(2), lit(3))
        assert parse_expression("[1,2]-1") == BinaryOp("-", lit(1, 2), lit(1))

    def test_whitespace_insignificant(self):
        assert parse_expression(" [ 1 , 2 ]+[3,4] ") == parse_expression("[1,2] + [3,4]")

    def test_invalid_interval_literal(self):
        with pytest.raises(GnSyntaxError) as exc_info:
            parse_expression("[5,3]")
        assert exc_info.value.position == 0

    @pytest.mark.parametrize(
        "text",
        ["", "1 +", "(1", "[1 2]", "[1,2", "1 ) 2", "foo", "* 3", "[1,2] [3,4]", "1 + + 2", "[,1]"],
    )
    def test_malformed_inputs_raise_positioned_errors(self, text):
        with pytest.raises(GnSyntaxError) as exc_info:
            parse_expression(text)
        assert isinstance(exc_info.value.position, int)
        assert 0 <= exc_info.value.position <= len(text)
        assert "offset" in str(exc_info.value)

    def test_error_position_points_at_fault(self):
        with pytest.raises(GnSyntaxError) as exc_info:
            parse_expression("[1,2] @ [3,4]")
        assert exc_info.value.position == 6

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected a number, an interval or '(' (at offset 0)"),
            ("   ", "expected a number, an interval or '(' (at offset 3)"),
            ("1 +", "expected a number, an interval or '(' (at offset 3)"),
            ("(1", "expected ')' (at offset 2)"),
            ("((1)", "expected ')' (at offset 4)"),
            ("(1 [2,3])", "expected ')' (at offset 3)"),
            ("[1 2]", "expected ',' (at offset 3)"),
            ("[1,2", "expected ']' (at offset 4)"),
            ("[1, 2, 3]", "expected ']' (at offset 5)"),
            ("[,1]", "expected a number (at offset 1)"),
            ("[1,]", "expected a number (at offset 3)"),
            ("[- 3, 4]", "expected a number (at offset 1)"),
            ("[[1,2]", "expected a number (at offset 1)"),
            ("[1[2,3]", "expected ',' (at offset 2)"),
            ("1 ) 2", "unexpected ')' after expression (at offset 2)"),
            ("1[ 3, 1]", "unexpected '[' after expression (at offset 1)"),
            ("[1,2] [3,4]", "unexpected '[' after expression (at offset 6)"),
            ("[1,2]3", "unexpected '3' after expression (at offset 5)"),
            (".5.5", "unexpected '.5' after expression (at offset 2)"),
            ("1 , 2", "unexpected ',' after expression (at offset 2)"),
            ("1e", "unexpected character 'e' (at offset 1)"),
            ("foo", "unexpected character 'f' (at offset 0)"),
            ("-[1,2]", "expected a number, an interval or '(' (at offset 0)"),
            ("[5,3]", "invalid interval literal: lower bound exceeds upper bound: [5.0, 3.0] (at offset 0)"),
            (
                "[1e999, 2]",
                "invalid interval literal: interval endpoints must be finite, got [inf, 2.0] (at offset 0)",
            ),
        ],
    )
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(GnSyntaxError) as exc_info:
            parse_expression(text)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("text, position", [("1+-\u00b2", 3), ("1+-.", 3), ("1 - -.x", 5), ("-.", 1)])
    def test_minus_before_a_non_number_is_syntax_error(self, text, position):
        # a '-' followed by a digit-like character or '.' that starts no number
        with pytest.raises(GnSyntaxError) as exc_info:
            parse_expression(text)
        assert str(exc_info.value) == f"unexpected character {text[position]!r} (at offset {position})"


class TestEval:
    def test_addition(self):
        assert calc("[1,2] + [3,4]") == GreyNumber(4, 6)

    def test_self_subtraction(self):
        assert calc("([1,2] - [1,2])") == GreyNumber(-1, 1)

    def test_division(self):
        assert calc("[1,2] / [4,5]") == GreyNumber(0.2, 0.5)

    def test_precedence_and_associativity(self):
        assert calc("1 + 2 * 3") == GreyNumber(7, 7)
        assert calc("8 - 3 - 2") == GreyNumber(3, 3)
        assert calc("12 / 2 / 3") == GreyNumber(2, 2)

    def test_white_number_scaling(self):
        assert calc("2 * ([85,100] + [75,84])") == GreyNumber(320, 368)

    def test_division_error_names_subexpression(self):
        with pytest.raises(ZeroDivisorError, match=r"\[-1\.0, 1\.0\]"):
            calc("[1,2] / [-1,1]")

    def test_nested_division_error(self):
        with pytest.raises(ZeroDivisorError):
            calc("1 + 2 / ([1,1] - [1,1])")


class TestRoundTrip:
    def test_pretty_print_reparses_identically(self):
        rng = random.Random(41)
        for _ in range(300):
            tree = random_expression(rng)
            assert parse_expression(format_expression(tree)) == tree

    def test_differential_eval(self):
        # parser path vs direct tree construction
        rng = random.Random(43)
        for _ in range(300):
            tree = random_expression(rng)
            via_text = calc(format_expression(tree))
            assert via_text == eval_expression(tree)

    def test_example_round_trip(self):
        tree = parse_expression("2 * ([85,100] + [75,84])")
        assert parse_expression(format_expression(tree)) == tree

    def test_deep_tree_round_trip(self):
        # 5000 levels, nesting alternately on the left and on the right;
        # compared as text because the generated __eq__ recurses
        tree = lit(0.5)
        for k in range(5000):
            leaf = lit(k % 7, k % 7 + 1.25)
            tree = BinaryOp("+", tree, leaf) if k % 2 else BinaryOp("-", leaf, tree)
        text = format_expression(tree)
        assert format_expression(parse_expression(text)) == text
        assert calc(text) == eval_expression(tree)
