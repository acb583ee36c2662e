"""Small total math-expression language for right-hand sides and exact solutions.

Grammar (precedence low to high, ^ right-associative):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

so "-x^2" means -(x^2) and "2^3^2" means 2^(3^2).  Implicit multiplication
is rejected.  Lexing is one regular expression, run over the whole input
before parsing starts, so a lexical error anywhere is the one reported.

Every failure mode is a positioned ExpressionError: arbitrary input either
parses or reports where it went wrong, never crashes.  That includes depth:
each parenthesis, call, unary minus and operator operand opens one level of
nesting, and the tree's depth counts its operator nodes, so a sum of k + 1
terms is k deep.  Past _MAX_DEPTH = 250 of either, parsing stops with
"expression nested deeper than 250 levels at offset N", where N is the
token that went one level too deep.  Within the bound no parse, evaluation
or formatting of the tree can exhaust Python's recursion limit.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

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
# Binary precedence;  unary minus sits between '*' and '^'.
_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_MAX_DEPTH = 250

# Each group name is a token kind; the first alternative that matches wins.
# \d is Unicode's decimal digits and \s is str.isspace; `bad` takes any other
# single character, and reports other str.isdigit ones such as '²' as numbers.
_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<identifier>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<operator>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\))
      | (?P<space>\s+) | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


class ExpressionError(ValueError):
    """Lexical, syntax or evaluation failure, carrying an input position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class Token(NamedTuple):
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
    for m in _TOKEN_RE.finditer(text):
        kind, c, i = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            what = "malformed number" if c.isdigit() or c == "." else f"unexpected character {c!r}"
            raise ExpressionError(f"{what} at offset {i}", i)
        if kind != "space":
            tokens.append(Token(kind, c, i))
    return tokens


def parse_expression(text: str) -> Expr:
    """Parse text into a tree; every token must be consumed."""
    tokens = tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    end = len(tokens)

    def too_deep(tok: Token) -> ExpressionError:
        return ExpressionError(
            f"expression nested deeper than {_MAX_DEPTH} levels at offset {tok.pos}", tok.pos
        )

    def climb(i: int, min_prec: int, depth: int) -> tuple[Expr, int, int]:
        """(tree, its depth, next index) for tokens[i:], taking operators of min_prec or more.

        `depth` counts the levels open around this call, so the recursion
        stops at _MAX_DEPTH frames.
        """
        if depth > _MAX_DEPTH:
            raise too_deep(tokens[i - 1])
        if i == end:
            raise ExpressionError("unexpected end of input; expected a value")
        tok = tokens[i]
        call = tok.kind == "identifier" and i + 1 < end and tokens[i + 1].kind == "lparen"
        if call and tok.text not in FUNCTIONS:
            raise ExpressionError(f"unknown function {tok.text!r} at offset {tok.pos}", tok.pos)
        if tok.text == "-":
            operand, height, i = climb(i + 1, _UNARY_PREC, depth + 1)
            left, height = Neg(operand), height + 1
        elif tok.kind == "lparen" or call:
            left, height, i = climb(i + 1 + call, 1, depth + 1)
            if i == end:
                raise ExpressionError("unexpected end of input; expected ')'")
            if tokens[i].kind != "rparen":
                raise ExpressionError(
                    f"expected ')' at offset {tokens[i].pos}, found {tokens[i].text!r}", tokens[i].pos
                )
            i += 1
            if call:
                left, height = Call(tok.text, left), height + 1
        elif tok.kind == "number":
            left, height, i = Num(float(tok.text)), 0, i + 1
        elif tok.text == "x":
            left, height, i = Var(), 0, i + 1
        elif tok.text in CONSTANTS:
            left, height, i = Num(CONSTANTS[tok.text]), 0, i + 1
        elif tok.kind == "identifier":
            raise ExpressionError(f"unknown name {tok.text!r} at offset {tok.pos}", tok.pos)
        else:
            raise ExpressionError(f"expected a value at offset {tok.pos}, found {tok.text!r}", tok.pos)
        while True:
            if height > _MAX_DEPTH:
                raise too_deep(tok)
            prec = _BIN_PREC.get(tokens[i].text, 0) if i < end else 0
            if prec < min_prec:
                return left, height, i
            # '^' is right-associative: its right operand may match the same
            # precedence; the left-associative ops require strictly higher.
            tok = tokens[i]
            right, right_height, i = climb(i + 1, prec + (tok.text != "^"), depth + 1)
            left, height = Bin(tok.text, left, right), max(height, right_height) + 1

    tree, _, i = climb(0, 1, 0)
    if i < end:
        tok = tokens[i]
        raise ExpressionError(f"trailing input at offset {tok.pos}: {tok.text!r}", tok.pos)
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
        return _BIN_PREC[expr.op]
    if isinstance(expr, Neg):
        return _UNARY_PREC
    return 9


def format_expr(expr: Expr) -> str:
    """Render with minimal parentheses; reparsing yields an identical tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return "x"
    if isinstance(expr, Neg):
        inner = format_expr(expr.operand)
        if _prec(expr.operand) < _UNARY_PREC:
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
