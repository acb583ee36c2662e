"""Small total math-expression language for right-hand sides and exact solutions.

Grammar (precedence low to high, ^ right-associative):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

so "-x^2" means -(x^2) and "2^3^2" means 2^(3^2).  Implicit multiplication
is rejected.  Every failure mode is a positioned ExpressionError: arbitrary
input either parses or reports where it went wrong, never crashes.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["ExpressionError", "Expr", "parse_expression", "format_expr", "to_callable"]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
# numpy rounds these exactly like Python floats do; a zero divisor is checked first.
_IEEE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

NUMBER = "number"
IDENT = "identifier"
OP = "operator"
LPAREN = "lparen"
RPAREN = "rparen"

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ExpressionError(ValueError):
    """Lexical, syntax or evaluation failure, carrying an input position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Bin, Call]


def tokenize(text: str) -> list[Token]:
    """Longest-match lexing; whitespace skipped; only ASCII operators accepted."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUMBER_RE.match(text, i)
            if m is None or m.group() == ".":
                raise ExpressionError(f"malformed number at offset {i}", i)
            tokens.append(Token(NUMBER, m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m is not None:
            tokens.append(Token(IDENT, m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^":
            tokens.append(Token(OP, c, i))
        elif c == "(":
            tokens.append(Token(LPAREN, c, i))
        elif c == ")":
            tokens.append(Token(RPAREN, c, i))
        else:
            raise ExpressionError(f"unexpected character {c!r} at offset {i}", i)
        i += 1
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of input; expression is incomplete")
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of input; expected {what}")
        if tok.kind != kind:
            raise ExpressionError(
                f"expected {what} at offset {tok.pos}, found {tok.text!r}", tok.pos
            )
        return self.advance()

    # Binary precedence;  unary minus sits between '*' and '^'.
    _BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
    _UNARY_PREC = 3

    def parse_expr(self, min_prec: int = 1) -> Expr:
        left = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != OP:
                return left
            prec = self._BIN_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self.advance()
            # '^' is right-associative: its right operand may match the same
            # precedence; the left-associative ops require strictly higher.
            next_min = prec if tok.text == "^" else prec + 1
            right = self.parse_expr(next_min)
            left = Bin(tok.text, left, right)

    def parse_prefix(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of input; expected a value")
        if tok.kind == OP and tok.text == "-":
            self.advance()
            return Neg(self.parse_expr(self._UNARY_PREC))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == NUMBER:
            return Num(float(tok.text))
        if tok.kind == LPAREN:
            inner = self.parse_expr()
            self.expect(RPAREN, "')'")
            return inner
        if tok.kind == IDENT:
            nxt = self.peek()
            if nxt is not None and nxt.kind == LPAREN:
                if tok.text not in FUNCTIONS:
                    raise ExpressionError(
                        f"unknown function {tok.text!r} at offset {tok.pos}", tok.pos
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect(RPAREN, "')'")
                return Call(tok.text, arg)
            if tok.text == "x":
                return Var()
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text])
            raise ExpressionError(f"unknown name {tok.text!r} at offset {tok.pos}", tok.pos)
        raise ExpressionError(
            f"expected a value at offset {tok.pos}, found {tok.text!r}", tok.pos
        )


def parse_expression(text: str) -> Expr:
    """Parse text into a tree; every token must be consumed."""
    tokens = tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    parser = _Parser(tokens)
    tree = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionError(
            f"trailing input at offset {trailing.pos}: {trailing.text!r}", trailing.pos
        )
    return tree


def _eval(expr: Expr, x: np.ndarray) -> np.ndarray:
    """Evaluate each node once over the whole array, as a scalar walk would per point.

    Calls and '^' go elementwise through math, since numpy's own exp, power, tan
    and log differ in the last bit; a point raises exactly where the walk would.
    """
    if isinstance(expr, Num):
        return np.full_like(x, expr.value)
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Neg):
        return -_eval(expr.operand, x)
    if isinstance(expr, Call):
        fn, what, args = FUNCTIONS[expr.name], "domain error", [_eval(expr.arg, x)]
    elif isinstance(expr, Bin):
        a, b = _eval(expr.left, x), _eval(expr.right, x)
        if expr.op == "/" and np.any(b == 0.0):
            at = x[b == 0.0].item(0)
            raise ExpressionError(f"division by zero in {format_expr(expr)!r} at x={at!r}")
        if expr.op in _IEEE_OPS:
            return _IEEE_OPS[expr.op](a, b)
        fn, what, args = math.pow, "invalid power", [a, b]
    else:
        raise TypeError(f"not an expression node: {expr!r}")

    def checked(at, *point):
        try:
            return fn(*point)
        except (ValueError, OverflowError) as exc:
            raise ExpressionError(f"{what} in {format_expr(expr)!r} at x={at!r}: {exc}")

    return np.asarray(np.frompyfunc(checked, len(args) + 1, 1)(x, *args), dtype=float)


def _prec(expr: Expr) -> int:
    if isinstance(expr, Bin):
        return _Parser._BIN_PREC[expr.op]
    if isinstance(expr, Neg):
        return _Parser._UNARY_PREC
    return 9


def format_expr(expr: Expr) -> str:
    """Render with minimal parentheses; reparsing yields an identical tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Neg):
        inner = format_expr(expr.operand)
        if _prec(expr.operand) < _Parser._UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.name}({format_expr(expr.arg)})"
    if isinstance(expr, Bin):
        lhs, rhs = format_expr(expr.left), format_expr(expr.right)
        p = _prec(expr)
        # Left operand needs parens when looser; for '^' also when equal,
        # since bare a^b^c would regroup to the right.
        if _prec(expr.left) < p or (expr.op == "^" and _prec(expr.left) == p):
            lhs = f"({lhs})"
        # Right operand of left-associative ops needs parens when not tighter.
        if expr.op == "^":
            if _prec(expr.right) < p:
                rhs = f"({rhs})"
        elif _prec(expr.right) <= p:
            rhs = f"({rhs})"
        return f"{lhs} {expr.op} {rhs}"
    raise TypeError(f"not an expression node: {expr!r}")


def to_callable(expr: Expr):
    """Wrap a tree as a float->float function that also maps over arrays."""

    def f(x):
        x = np.array(x, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(_eval(expr, x))
        bad = ~np.isfinite(out)
        if bad.any():
            raise ExpressionError(f"non-finite result {out[bad].item(0)!r} at x={x[bad].item(0)!r}")
        return float(out) if x.ndim == 0 else out

    return f
