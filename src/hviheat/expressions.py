"""Arithmetic expressions over (x, y) for configuration files, in Python's syntax.

``ast.parse`` reads the text, and the tree may hold only decimal numbers,
``x``, ``y``, ``+ - * / **``, unary signs and ``exp`` of one argument, at
most ``MAX_DEPTH`` levels deep; anything else is an ``ExpressionError`` with
its position.  The compiled callable broadcasts over numpy arrays.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from typing import Callable

import numpy as np

__all__ = ["ExpressionError", "compile_expression", "MAX_DEPTH"]

MAX_DEPTH = 200  # levels of the tree: a sum of 200 terms, or 199 signs before an operand
_OUTSIDE = re.compile(r"[^0-9A-Za-z_.+\-*/(), \t]")
_DECIMAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_GRAMMAR = "decimal numbers, x, y, + - * / **, signs and exp(...) of one argument"
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def compile_expression(text: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Parse ``text`` into a vectorized callable ``f(x, y)``."""
    outside = _OUTSIDE.search(text)
    if outside:
        raise ExpressionError(f"unexpected character {outside.group()!r}", outside.start())
    body = text.lstrip()  # Python reads leading blanks as an indent
    shift = len(text) - len(body)
    if not body:
        raise ExpressionError("empty expression", 0)
    try:
        with warnings.catch_warnings():  # a warning such as "1if" becomes the SyntaxError
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(body, mode="eval")
        fn = _compile(tree.body, body, shift, 1)
    except SyntaxError as exc:  # no offset: Python met the fault at the end of the text
        at = shift + exc.offset - 1 if exc.offset else len(text)
        truncated = not exc.offset and exc.msg == "invalid syntax"
        raise ExpressionError("incomplete expression" if truncated else exc.msg, at) from None
    except (RecursionError, MemoryError):  # Python's parser gave up long before MAX_DEPTH
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH}", 0) from None

    def evaluate(x, y):
        return np.asarray(fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float)

    evaluate.text = text  # type: ignore[attr-defined]
    return evaluate


def _compile(node: ast.expr, body: str, shift: int, depth: int):
    """The callable of ``node``; it evaluates the children first, left to right."""
    pos = shift + node.col_offset
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH}", pos)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a = _compile(node.left, body, shift, depth + 1)
        b = _compile(node.right, body, shift, depth + 1)
        return lambda x, y: op(a(x, y), b(x, y))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        a = _compile(node.operand, body, shift, depth + 1)
        return a if isinstance(node.op, ast.UAdd) else (lambda x, y: -a(x, y))
    call = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exp"
    if call and len(node.args) == 1 and not node.keywords:
        a = _compile(node.args[0], body, shift, depth + 1)
        return lambda x, y: np.exp(a(x, y))
    if isinstance(node, ast.Name) and node.id in ("x", "y"):
        return (lambda x, y: x) if node.id == "x" else (lambda x, y: y)
    source = ast.get_source_segment(body, node)
    if not (isinstance(node, ast.Constant) and _DECIMAL.fullmatch(source)):
        raise ExpressionError(f"{source!r} is not allowed; use {_GRAMMAR}", pos)
    const = float(source)
    # callers broadcast scalars themselves; x*0 keeps the shape honest
    return lambda x, y: const + 0.0 * x
