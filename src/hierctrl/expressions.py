"""Tiny arithmetic expression language for coefficient and data fields.

Variables x, y, t; operators + - * / ^ (right-associative power binds
tighter than unary minus, which binds tighter than * /); functions sin,
cos, exp, tanh, abs; numeric literals.  That is Python's expression
grammar with ^ for **, so CPython's parser reads the text, and one walk
over its tree admits only these forms.  Evaluation broadcasts over numpy
arrays.  Parse errors carry the character offset and the tokens expected
there.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "abs": np.abs,
}

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: np.divide,
           ast.Pow: np.power}
# `**`, and every character the language lacks: what is left is ASCII, so
# CPython's columns are character offsets
_FOREIGN = re.compile(r"\*\*|[^\sA-Za-z0-9_.+\-*/^()]")
# a number's leading zeros (007 is 7), which CPython rejects; not an exponent's
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![\d.][eE][+-])0+(?=\d)")
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_OPERAND = ("number", "identifier", "(", "-")
# deepest tree admitted: its evaluation then stays far inside Python's recursion limit
_MAX_DEPTH = 500


@dataclass(frozen=True)
class Expression:
    """A parsed expression: a tree of BinOp (+ - * / **), UnaryOp (-), Call
    (of a FUNCTIONS name, one argument), Name and float Constant nodes, and
    the names it reads as variables."""

    tree: ast.expr
    names: frozenset

    def evaluate(self, env):
        """Its value with env's variables (numpy arrays broadcast).  Division
        by zero and overflow give inf or nan without a warning, judged where
        the values land; an unbound variable is a ValueError."""
        with np.errstate(all="ignore"):
            return _evaluate(self.tree, env)

    def variables(self):
        """Its variables; a function's name in a call is not one."""
        return self.names


def _evaluate(node, env):
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return -_evaluate(node.operand, env)
    if isinstance(node, ast.Call):
        return FUNCTIONS[node.func.id](_evaluate(node.args[0], env))
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ValueError(f"unbound variable {node.id!r} in expression")
        return env[node.id]
    return node.value


def parse_expr(text):
    """Parse text into an Expression.

    CPython's parser reads the text with every whitespace character (the
    newline of a configparser continuation line too) as a blank, a
    number's leading zeros as blanks and ^ as **.  A walk over the tree
    then admits only the language's forms; a constant must be written as
    the language's number and is kept as its float.  Raises ParseError with
    an offset into text: CPython's message and offset for a syntax error,
    the walk's for a form outside the language.
    """
    foreign = _FOREIGN.search(text)
    if foreign:
        raise ParseError(f"unexpected {foreign.group()!r}", foreign.end() - 1, _OPERAND)
    flat = _LEADING_ZEROS.sub(lambda zeros: " " * len(zeros.group()), re.sub(r"\s", " ", text))
    start = len(flat) - len(flat.lstrip())
    pieces = ["**" if c == "^" else c for c in flat[start:]]
    source = "".join(pieces)
    # origin[i]: the offset in text of source[i] (of its end, for i = len(source))
    origin = [start + i for i, piece in enumerate(pieces) for _ in piece] + [len(text)]
    names = set()

    def admit(node, depth=0):
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH}", origin[node.col_offset], _OPERAND)
        segment = source[node.col_offset:node.end_col_offset]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            admit(node.left, depth + 1)
            admit(node.right, depth + 1)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            admit(node.operand, depth + 1)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 1:
            if node.func.id not in FUNCTIONS:
                raise ParseError(f"unknown function {node.func.id!r}", origin[node.col_offset], sorted(FUNCTIONS))
            admit(node.args[0], depth + 1)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
            node.value = float(segment)
        else:
            raise ParseError(f"{segment!r} is not in the expression language", origin[node.col_offset], _OPERAND)

    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        offset = origin[min(max((exc.offset or 1) - 1, 0), len(source))]
        raise ParseError(exc.msg, offset, (")",) if "never closed" in exc.msg else _OPERAND) from None
    except (RecursionError, MemoryError):  # CPython's parser overflows its stack with a MemoryError
        raise ParseError(f"expression nested deeper than {_MAX_DEPTH}", 0, _OPERAND) from None
    admit(tree)
    return Expression(tree, frozenset(names))
