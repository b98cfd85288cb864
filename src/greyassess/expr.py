"""Grey-number expression calculator: tokenizer, parser, evaluator.

Grammar (whitespace insignificant, operators left-associative, '*' and '/'
bind tighter than '+' and '-'):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := interval | number | '(' expr ')'
    interval := '[' number ',' number ']'

A bare number x denotes the white number [x, x]. A '-' directly followed by
a digit starts a negative number literal when it cannot be a binary minus
(start of input, or right after an operator, '(', '[' or ',').

Parsing, evaluation and formatting keep their work on explicit stacks, and
parse trees compare, hash and print without recursion, so nesting depth and
expression length are limited only by memory.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Union

from .grey import GreyNumber, IntervalError, ZeroDivisorError, _Value


class GnSyntaxError(ValueError):
    """Unparseable expression text; ``position`` is the offset of the fault."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class Literal(_Value):
    """A grey-number operand of an expression."""

    __slots__ = __match_args__ = ("value",)
    value: GreyNumber

    def __init__(self, value: GreyNumber) -> None:
        _set_value(self, value)


class BinaryOp(_Value):
    """``left op right``.

    Equality, hash and repr mean what they do for every value class: a tree
    equals only a tree of the same shape with equal operators and literals,
    and prints as ``BinaryOp(op='+', left=..., right=...)``. ``_key`` and
    ``__repr__`` walk the tree without recursion, so that a tree of any depth
    has all three.
    """

    __slots__ = __match_args__ = ("op", "left", "right")
    op: str  # one of + - * /
    left: GnExpression
    right: GnExpression

    def __init__(self, op: str, left: GnExpression, right: GnExpression) -> None:
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)

    def _key(self) -> tuple:
        # a post-order sequence of operators and literals decodes to exactly one tree
        return tuple(node.op if isinstance(node, BinaryOp) else node for node in _postorder(self))

    def __repr__(self) -> str:
        return _write(self, repr, lambda op: (f"BinaryOp(op={op!r}, left=", ", right=", ")"))


GnExpression = Union[Literal, BinaryOp]
# bound slot setters, as for GreyNumber
_set_value = Literal.value.__set__
_set_op = BinaryOp.op.__set__
_set_left = BinaryOp.left.__set__
_set_right = BinaryOp.right.__set__


_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# One token per match, with the whitespace after it. Groups: 1 a whole
# well-formed interval literal (2 and 3 its endpoints), 4 a number with an
# adjacent '-', 5 an operator or bracket, 6 any other character. Group 1 is
# exactly the token sequence '[' number ',' number ']', because \s is
# str.isspace and a number can only end where the next character cannot
# continue it.
_TOKEN = re.compile(
    rf"(?:(\[\s*(-?{_NUMBER})\s*,\s*(-?{_NUMBER})\s*\])|(-?{_NUMBER})|([-+*/()\[\],])|(\S))\s*"
)
_SIGN_CONTEXT = {None, "+", "-", "*", "/", "(", "[", ","}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tokenize(text: str) -> list[tuple]:
    """``(kind, text, position)`` tuples, ending with an ``"end"`` token.

    Kinds are "number", "interval", "end" and the operator and bracket
    characters. An interval token's text is its pair of endpoint texts; a
    '[' that does not start a well-formed literal is a token of its own.
    """
    tokens: list[tuple] = []
    append = tokens.append
    kind = None
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        position = match.start()
        if group == 1:
            kind = "interval"
            append((kind, (match[2], match[3]), position))
        elif group == 4:
            number = match[4]
            if number[0] == "-" and kind not in _SIGN_CONTEXT:
                append(("-", "-", position))
                number = number[1:]
                position += 1
            kind = "number"
            append((kind, number, position))
        elif group == 5:
            kind = match[5]
            append((kind, kind, position))
        else:
            raise GnSyntaxError(f"unexpected character {match[6]!r}", position)
    append(("end", "", len(text)))
    return tokens


def _bracket_error(tokens: list[tuple], i: int) -> GnSyntaxError:
    """The error for the '[' token at ``tokens[i]``: the first token out of place after it.

    The tokenizer joins every well-formed literal into one "interval" token,
    so a '[' token opens none, and at the latest the "end" token is out of place.
    """
    for offset, (kind, what) in enumerate(
        (("number", "a number"), (",", "','"), ("number", "a number"), ("]", "']'")), start=1
    ):
        token = tokens[i + offset]
        if token[0] != kind:
            return GnSyntaxError(f"expected {what}", token[2])


def parse_expression(text: str) -> GnExpression:
    """Parse expression text into a tree of literals and binary operations."""
    tokens = _tokenize(text)
    operands: list[GnExpression] = []
    operators: list[str] = []  # pending binary operators and '(' marks
    depth = 0  # '(' marks on the operator stack
    i = 0
    while True:
        # An operand: any opening parentheses, then a literal.
        kind, value, position = tokens[i]
        while kind == "(":
            operators.append(kind)
            depth += 1
            i += 1
            kind, value, position = tokens[i]
        i += 1
        if kind == "number" or kind == "interval":
            lower, upper = value if kind == "interval" else (value, value)
            try:
                operands.append(Literal(GreyNumber(float(lower), float(upper))))
            except IntervalError as exc:
                raise GnSyntaxError(f"invalid {kind} literal: {exc}", position) from None
        elif kind == "[":
            raise _bracket_error(tokens, i - 1)
        else:
            raise GnSyntaxError("expected a number, an interval or '('", position)

        # Then any closing parentheses, and a binary operator or the end.
        while True:
            kind, value, position = tokens[i]
            i += 1
            precedence = _PRECEDENCE.get(kind)
            if precedence is None:
                if depth and kind != ")":
                    raise GnSyntaxError("expected ')'", position)
                if not depth and kind != "end":
                    shown = "[" if kind == "interval" else value
                    raise GnSyntaxError(f"unexpected {shown!r} after expression", position)
                precedence = 0  # reduce down to the '(' mark or the bottom
            while operators and _PRECEDENCE.get(operators[-1], -1) >= precedence:
                right = operands.pop()
                operands[-1] = BinaryOp(operators.pop(), operands[-1], right)
            if precedence:
                operators.append(kind)
                break
            if not depth:
                return operands[0]
            operators.pop()
            depth -= 1


def eval_expression(expression: GnExpression) -> GreyNumber:
    """Evaluate a parse tree bottom-up with grey-number arithmetic.

    Operands are evaluated left before right, so of several failing
    operations the first in that post-order is reported.
    """
    values: list[GreyNumber] = []
    for node in _postorder(expression):
        if isinstance(node, Literal):
            values.append(node.value)
            continue
        right = values.pop()
        left = values[-1]
        if node.op == "+":
            values[-1] = left + right
        elif node.op == "-":
            values[-1] = left - right
        elif node.op == "*":
            values[-1] = left * right
        else:
            try:
                values[-1] = left / right
            except ZeroDivisorError:
                raise ZeroDivisorError(
                    f"division by interval containing zero in {format_expression(node)}"
                ) from None
    return values[0]


def _postorder(expression: GnExpression) -> Iterator[GnExpression]:
    """Every node of the tree after its operands, the left operand first."""
    pending: list[tuple[GnExpression, bool]] = [(expression, False)]
    while pending:
        node, operands_done = pending.pop()
        if operands_done or isinstance(node, Literal):
            yield node
        else:
            pending += ((node, True), (node.right, False), (node.left, False))


def calc(text: str) -> GreyNumber:
    """Parse and evaluate in one step."""
    return eval_expression(parse_expression(text))


def format_expression(expression: GnExpression) -> str:
    """Render a tree back to parseable text (parse round-trips exactly).

    White-number literals print as bare numbers, other intervals as
    ``[lower, upper]``; binary operations are fully parenthesized.
    """
    return _write(expression, _literal_text, lambda op: ("(", f" {op} ", ")"))


def _literal_text(literal: Literal) -> str:
    gn = literal.value
    return repr(gn.lower) if gn.is_white else f"[{gn.lower!r}, {gn.upper!r}]"


def _write(
    expression: GnExpression,
    literal: Callable[[Literal], str],
    operator: Callable[[str], tuple[str, str, str]],
) -> str:
    """In-order text of a tree: ``literal`` renders a literal, and ``operator``
    gives the texts before, between and after a binary operation's operands.

    Pieces are collected in text order and joined once: joining texts
    bottom-up would copy a deep tree's text once per level.
    """
    parts: list[str] = []
    pending: list[GnExpression | str] = [expression]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, BinaryOp):
            before, between, after = operator(item.op)
            pending += (after, item.right, between, item.left, before)
        else:
            parts.append(literal(item))
    return "".join(parts)
