import random
from dataclasses import dataclass

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

    @pytest.mark.parametrize(
        "text, position", [("1 + 1e400", 4), ("-1e400", 0), ("[0, 1] * 2e308", 9)]
    )
    def test_overflowing_number_literal_is_positioned(self, text, position):
        with pytest.raises(GnSyntaxError) as exc_info:
            parse_expression(text)
        assert exc_info.value.position == position
        assert str(exc_info.value).startswith("invalid number literal: ")
        assert str(exc_info.value).endswith(f" (at offset {position})")

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


def _deep_tree(depth, innermost=0.5):
    tree = lit(innermost)
    for k in range(depth):
        leaf = lit(k % 7, k % 7 + 1.25)
        tree = BinaryOp("+", tree, leaf) if k % 2 else BinaryOp("-", leaf, tree)
    return tree


class TestTreeIdentity:
    def test_deep_trees_compare_hash_and_print(self):
        tree = _deep_tree(5000)
        same = parse_expression(format_expression(tree))
        assert same == tree
        assert hash(same) == hash(tree)
        assert repr(same) == repr(tree)
        assert repr(tree).startswith("BinaryOp(op='+', left=BinaryOp(op='-', left=Literal(")
        assert _deep_tree(5000, innermost=0.25) != tree
        assert BinaryOp("-", tree.left, tree.right) != tree
        assert _deep_tree(4999) != tree

    def test_long_sum_compares_and_hashes(self):
        text = " + ".join(["[1, 2]"] * 3000)
        assert parse_expression(text) == parse_expression(text)
        assert hash(parse_expression(text)) == hash(parse_expression(text))

    def test_small_tree_repr_is_pinned(self):
        assert repr(parse_expression("2 * ([85,100] - -0.5) / 3")) == (
            "BinaryOp(op='/', left=BinaryOp(op='*', "
            "left=Literal(value=GreyNumber(lower=2.0, upper=2.0)), "
            "right=BinaryOp(op='-', left=Literal(value=GreyNumber(lower=85.0, upper=100.0)), "
            "right=Literal(value=GreyNumber(lower=-0.5, upper=-0.5)))), "
            "right=Literal(value=GreyNumber(lower=3.0, upper=3.0)))"
        )

    def test_literals_compare_as_floats(self):
        assert parse_expression("-0.0 + [1, 2]") == parse_expression("0 + [1, 2]")
        assert hash(parse_expression("-0.0 + [1, 2]")) == hash(parse_expression("0 + [1, 2]"))

    @pytest.mark.parametrize("left, right", [
        ("1 + 2", "1 - 2"),
        ("(1 + 2) + 3", "1 + (2 + 3)"),
        ("1 + 2", "1"),
        ("1 + 2", "1 + [2, 3]"),
        ("1 + 2", "3 + 2"),
    ])
    def test_different_trees_are_unequal(self, left, right):
        assert parse_expression(left) != parse_expression(right)
        assert parse_expression(right) != parse_expression(left)
        assert hash(parse_expression(left)) != hash(parse_expression(right))


@dataclass(frozen=True)
class ReferenceOp:
    """The recursive equality, hash and repr ``BinaryOp`` stands in for."""

    op: str
    left: object
    right: object


def _reference(tree):
    if isinstance(tree, Literal):
        return tree
    return ReferenceOp(tree.op, _reference(tree.left), _reference(tree.right))


def _changed_once(tree, rng):
    """``tree`` with one operator or one literal changed."""
    nodes = []
    pending = [tree]
    while pending:
        node = pending.pop()
        nodes.append(node)
        if isinstance(node, BinaryOp):
            pending += (node.left, node.right)
    target = rng.choice(nodes)

    def rebuild(node):
        if node is target:
            if isinstance(node, Literal):
                gn = node.value
                return lit(gn.lower, gn.upper + rng.choice((0.5, 1.0)))
            return BinaryOp(rng.choice([op for op in "+-*/" if op != node.op]), node.left, node.right)
        if isinstance(node, Literal):
            return node
        return BinaryOp(node.op, rebuild(node.left), rebuild(node.right))

    return rebuild(tree)


class TestAgainstRecursiveReference:
    def _pairs(self):
        rng = random.Random(47)
        for _ in range(400):
            tree = random_expression(rng)
            yield tree, random_expression(rng)
            yield tree, parse_expression(format_expression(tree))
            yield tree, _changed_once(tree, rng)
            yield _changed_once(tree, rng), tree

    def test_equality_matches_reference(self):
        for left, right in self._pairs():
            expected = _reference(left) == _reference(right)
            assert (left == right) is expected
            assert (left != right) is not expected

    def test_equal_trees_hash_equal(self):
        equal = 0
        for left, right in self._pairs():
            if left == right:
                equal += 1
                assert hash(left) == hash(right)
        assert equal >= 400

    def test_repr_matches_reference(self):
        rng = random.Random(53)
        for _ in range(300):
            tree = random_expression(rng)
            assert repr(tree) == repr(_reference(tree)).replace("ReferenceOp(", "BinaryOp(")
