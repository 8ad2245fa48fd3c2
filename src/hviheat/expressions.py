"""Tiny arithmetic expressions over (x, y) for configuration files.

The grammar covers exactly what the run configurations need: numeric
literals, the coordinates ``x`` and ``y``, the four arithmetic operators,
right-associative ``**``, unary sign, parentheses, and ``exp(...)``.  As in
Python, ``**`` binds tighter than a sign on its left, so ``-x**2`` is
``-(x**2)``, and its exponent may carry a sign (``2**-1``).  The
compiled callable broadcasts over numpy arrays.  No ``eval`` involved.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/]))"
)


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def compile_expression(text: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Parse ``text`` into a vectorized callable ``f(x, y)``."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None, len(text))

    def advance():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def expect_op(op: str):
        kind, value, pos = advance()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)

    def parse_expr():
        node = parse_term()
        while True:
            kind, value, _ = peek()
            if kind == "op" and value in "+-":
                advance()
                rhs = parse_term()
                if value == "+":
                    node = (lambda a, b: (lambda x, y: a(x, y) + b(x, y)))(node, rhs)
                else:
                    node = (lambda a, b: (lambda x, y: a(x, y) - b(x, y)))(node, rhs)
            else:
                return node

    def parse_term():
        node = parse_unary()
        while True:
            kind, value, pos = peek()
            if kind == "op" and value in "*/":
                advance()
                rhs = parse_unary()
                if value == "*":
                    node = (lambda a, b: (lambda x, y: a(x, y) * b(x, y)))(node, rhs)
                else:
                    node = (lambda a, b: (lambda x, y: a(x, y) / b(x, y)))(node, rhs)
            else:
                return node

    def parse_unary():
        kind, value, _ = peek()
        if kind == "op" and value in "+-":
            advance()
            inner = parse_unary()
            if value == "-":
                return (lambda a: (lambda x, y: -a(x, y)))(inner)
            return inner
        return parse_power()

    def parse_power():  # binds tighter than a sign on its left, as in Python
        base = parse_atom()
        kind, value, _ = peek()
        if kind == "op" and value == "**":
            advance()
            exponent = parse_unary()  # right associative, and may carry a sign
            return (lambda a, b: (lambda x, y: a(x, y) ** b(x, y)))(base, exponent)
        return base

    def parse_atom():
        kind, value, pos = advance()
        if kind == "num":
            const = float(value)
            # callers broadcast scalars themselves; x*0 keeps the shape honest
            return lambda x, y: const + 0.0 * x
        if kind == "name":
            if value == "x":
                return lambda x, y: x
            if value == "y":
                return lambda x, y: y
            if value == "exp":
                expect_op("(")
                inner = parse_expr()
                expect_op(")")
                return (lambda a: (lambda x, y: np.exp(a(x, y))))(inner)
            raise ExpressionError(
                f"unknown name {value!r}; only x, y, and exp(...) are available", pos
            )
        if kind == "op" and value == "(":
            inner = parse_expr()
            expect_op(")")
            return inner
        raise ExpressionError(f"unexpected token {value!r}", pos)

    if not tokens:
        raise ExpressionError("empty expression", 0)
    fn = parse_expr()
    if idx != len(tokens):
        raise ExpressionError(f"trailing input {tokens[idx][1]!r}", tokens[idx][2])

    def evaluate(x, y):
        out = fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.asarray(out, dtype=float)

    evaluate.text = text  # type: ignore[attr-defined]
    return evaluate
