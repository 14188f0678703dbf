"""Tiny arithmetic expression language for coefficient and data fields.

Variables x, y, t; operators + - * / ^ (right-associative power binds
tighter than unary minus, which binds tighter than * /); functions sin,
cos, exp, tanh, abs; numeric literals.  Evaluation broadcasts over numpy
arrays.  Parse errors carry the byte offset and the token set expected
there.
"""

from __future__ import annotations

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

@dataclass(frozen=True)
class Num:
    value: float

    def evaluate(self, env):
        return self.value

    def variables(self):
        return set()


@dataclass(frozen=True)
class Var:
    name: str

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ValueError(f"unbound variable {self.name!r} in expression") from None

    def variables(self):
        return {self.name}


@dataclass(frozen=True)
class Neg:
    operand: object

    def evaluate(self, env):
        return -self.operand.evaluate(env)

    def variables(self):
        return self.operand.variables()


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return a / b
        with np.errstate(invalid="ignore"):
            return np.power(a, b)

    def variables(self):
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Call:
    func: str
    arg: object

    def evaluate(self, env):
        return FUNCTIONS[self.func](self.arg.evaluate(env))

    def variables(self):
        return self.arg.variables()


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._run()

    def _run(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        while k < n and text[k].isdigit():
                            k += 1
                        j = k
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i, expected=("number", "identifier", "operator"))
        self.tokens.append(("end", "", n))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _Tokenizer(text).tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], expected=(kind,))
        return self.advance()

    def parse(self):
        node = self.expression()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2], expected=("end",))
        return node

    def expression(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        kind, value, offset = tok
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset, expected=tuple(sorted(FUNCTIONS)))
                self.advance()
                arg = self.expression()
                self.expect(")")
                return Call(value, arg)
            return Var(value)
        if kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")")
            return node
        raise ParseError(
            f"expected an operand, found {value!r}" if value else "expected an operand, found end of input",
            offset,
            expected=("number", "identifier", "(", "-"),
        )


def parse_expr(text):
    """Parse an expression; raises ParseError with offset and expectations."""
    return _Parser(text).parse()
