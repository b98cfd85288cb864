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

Parsing, evaluation and formatting keep their work on explicit stacks, so
nesting depth and expression length are limited only by memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .grey import GreyNumber, IntervalError, ZeroDivisorError


class GnSyntaxError(ValueError):
    """Unparseable expression text; ``position`` is the offset of the fault."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class Literal:
    value: GreyNumber


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * /
    left: GnExpression
    right: GnExpression


GnExpression = Union[Literal, BinaryOp]


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


def _split_interval(tokens: list[tuple], i: int) -> tuple[tuple[str, str], int]:
    """Endpoint texts of the literal the '[' token at ``tokens[i]`` opens, and the index after it.

    The tokenizer already joined every well-formed literal into one token,
    so this finds the first token out of place and reports it.
    """
    for offset, (kind, what) in enumerate(
        (("number", "a number"), (",", "','"), ("number", "a number"), ("]", "']'")), start=1
    ):
        token = tokens[i + offset]
        if token[0] != kind:
            raise GnSyntaxError(f"expected {what}", token[2])
    return (tokens[i + 1][1], tokens[i + 3][1]), i + 5


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
        if kind == "number":
            number = float(value)
            operands.append(Literal(GreyNumber(number, number)))
        else:
            if kind == "[":
                value, i = _split_interval(tokens, i - 1)
            elif kind != "interval":
                raise GnSyntaxError("expected a number, an interval or '('", position)
            try:
                operands.append(Literal(GreyNumber(float(value[0]), float(value[1]))))
            except IntervalError as exc:
                raise GnSyntaxError(f"invalid interval literal: {exc}", position) from None

        # Then any closing parentheses, and a binary operator or the end.
        while True:
            kind, value, position = tokens[i]
            i += 1
            precedence = _PRECEDENCE.get(kind)
            if precedence is not None:
                while operators and _PRECEDENCE.get(operators[-1], 0) >= precedence:
                    right = operands.pop()
                    operands[-1] = BinaryOp(operators.pop(), operands[-1], right)
                operators.append(kind)
                break
            if kind == ")" and depth:
                while (op := operators.pop()) != "(":
                    right = operands.pop()
                    operands[-1] = BinaryOp(op, operands[-1], right)
                depth -= 1
            elif depth:
                raise GnSyntaxError("expected ')'", position)
            elif kind == "end":
                while operators:
                    right = operands.pop()
                    operands[-1] = BinaryOp(operators.pop(), operands[-1], right)
                return operands[0]
            else:
                shown = "[" if kind == "interval" else value
                raise GnSyntaxError(f"unexpected {shown!r} after expression", position)


def eval_expression(expression: GnExpression) -> GreyNumber:
    """Evaluate a parse tree bottom-up with grey-number arithmetic.

    Operands are evaluated left before right, so of several failing
    operations the first in that post-order is reported.
    """
    values: list[GreyNumber] = []
    pending: list[tuple[GnExpression, bool]] = [(expression, False)]
    while pending:
        node, operands_ready = pending.pop()
        if operands_ready:
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
        elif isinstance(node, Literal):
            values.append(node.value)
        else:
            pending += ((node, True), (node.right, False), (node.left, False))
    return values[0]


def calc(text: str) -> GreyNumber:
    """Parse and evaluate in one step."""
    return eval_expression(parse_expression(text))


def format_expression(expression: GnExpression) -> str:
    """Render a tree back to parseable text (parse round-trips exactly).

    White-number literals print as bare numbers, other intervals as
    ``[lower, upper]``; binary operations are fully parenthesized.
    """
    parts: list[str] = []
    pending: list[GnExpression | str] = [expression]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Literal):
            gn = item.value
            parts.append(repr(gn.lower) if gn.is_white else f"[{gn.lower!r}, {gn.upper!r}]")
        else:
            pending += (")", item.right, f" {item.op} ", item.left, "(")
    return "".join(parts)
