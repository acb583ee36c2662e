"""Expression front-end: lexing, precedence, evaluation, robustness."""

import math
import random
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagsob import ExpressionError, format_expr, parse_expression, to_callable
from lagsob import expressions
from lagsob.expressions import FUNCTIONS, Bin, Call, Neg, Num, Var, tokenize

RHS_EXP_DECAY = "exp(-x)*(3*cos(x) - 2*(-1 + x)*sin(x))"
U_EXP_DECAY = "x*cos(x)*exp(-x)"
RHS_RATIONAL = "10*((7 + x*(-3 + x*(3 + x)))*cos(x) - 2*(-1 + x + 2*x^2)*sin(x))/(x + 1)^5"
U_RATIONAL = "10*x*cos(x)/(x + 1)^3"


def at_point(text, x):
    return to_callable(parse_expression(text))(x)


def rhs_exp_decay(x):
    return math.exp(-x) * (3 * math.cos(x) - 2 * (-1 + x) * math.sin(x))


def u_exp_decay(x):
    return x * math.cos(x) * math.exp(-x)


def rhs_rational(x):
    return (
        10
        * ((7 + x * (-3 + x * (3 + x))) * math.cos(x) - 2 * (-1 + x + 2 * x**2) * math.sin(x))
        / (x + 1) ** 5
    )


def u_rational(x):
    return 10 * x * math.cos(x) / (x + 1) ** 3


def reference_eval(expr, x):
    """The scalar tree walk, one point at a time; non-finite results raise."""
    value = _reference_walk(expr, float(x))
    if not math.isfinite(value):
        raise ExpressionError(f"non-finite result {value!r} at x={x!r}")
    return value


def _reference_walk(expr, x):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Neg):
        return -_reference_walk(expr.operand, x)
    if isinstance(expr, Bin):
        a = _reference_walk(expr.left, x)
        b = _reference_walk(expr.right, x)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if b == 0.0:
                raise ExpressionError(f"division by zero in {format_expr(expr)!r} at x={x!r}")
            return a / b
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise ExpressionError(f"invalid power in {format_expr(expr)!r} at x={x!r}: {exc}")
    if isinstance(expr, Call):
        arg = _reference_walk(expr.arg, x)
        if expr.name == "ln" and arg <= 0.0:
            raise ExpressionError(f"ln of non-positive value in {format_expr(expr)!r} at x={x!r}")
        if expr.name == "sqrt" and arg < 0.0:
            raise ExpressionError(f"sqrt of negative value in {format_expr(expr)!r} at x={x!r}")
        try:
            return FUNCTIONS[expr.name](arg)
        except (ValueError, OverflowError) as exc:
            raise ExpressionError(f"domain error in {format_expr(expr)!r} at x={x!r}: {exc}")
    raise TypeError(f"not an expression node: {expr!r}")


def reference_or_error(expr, x):
    try:
        return reference_eval(expr, x)
    except ExpressionError:
        return None


class TestTokenize:
    def test_single_identifier(self):
        toks = tokenize("x")
        assert len(toks) == 1 and toks[0].kind == "identifier" and toks[0].text == "x"

    def test_mixed_stream(self):
        kinds = [t.kind for t in tokenize("3*cos(x)")]
        assert kinds == ["number", "operator", "identifier", "lparen", "identifier", "rparen"]

    def test_positions_are_input_slices(self):
        src = "  1.5e-3 + sin( x )"
        toks = tokenize(src)
        assert [t.pos for t in toks] == sorted(t.pos for t in toks)
        for t in toks:
            assert src[t.pos : t.pos + len(t.text)] == t.text

    def test_unicode_minus_rejected_with_offset(self):
        with pytest.raises(ExpressionError) as exc:
            tokenize("1e−3")
        assert exc.value.position == 2

    @pytest.mark.parametrize(
        "text, pos, what",
        [
            ("\u0663*x", 0, "malformed number"),  # Arabic-Indic three
            ("x + \uff13", 4, "malformed number"),  # fullwidth three
            ("2\xa0*x", 1, "unexpected character"),  # no-break space
            ("2*x\u2003+1", 3, "unexpected character"),  # em space
        ],
    )
    def test_non_ascii_digits_and_spaces_rejected_with_offset(self, text, pos, what):
        with pytest.raises(ExpressionError, match=f"{what}.* at offset {pos}$") as exc:
            parse_expression(text)
        assert exc.value.position == pos

    def test_number_forms(self):
        for text, value in [("2", 2.0), ("2.5", 2.5), (".5", 0.5), ("1e-3", 1e-3), ("2.5E+2", 250.0)]:
            assert at_point(text, 0.0) == value


class TestParse:
    def test_precedence_chain(self):
        assert at_point("2+3*4^2", 0.0) == 50.0

    def test_power_is_right_associative(self):
        assert at_point("2^3^2", 0.0) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert at_point("-x^2", 3.0) == -9.0
        assert at_point("(-x)^2", 3.0) == 9.0
        assert at_point("2^-2", 0.0) == 0.25

    def test_unary_minus_binds_above_multiplication(self):
        assert at_point("-2*3", 0.0) == -6.0
        assert at_point("2--3", 0.0) == 5.0

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("2x")
        with pytest.raises(ExpressionError):
            parse_expression("2 x")

    def test_error_positions(self):
        with pytest.raises(ExpressionError) as exc:
            parse_expression("1 + * 2")
        assert exc.value.position == 4
        with pytest.raises(ExpressionError):
            parse_expression("(1 + 2")
        with pytest.raises(ExpressionError):
            parse_expression("1 + 2)")
        with pytest.raises(ExpressionError):
            parse_expression("")
        with pytest.raises(ExpressionError):
            parse_expression("foo(3)")
        with pytest.raises(ExpressionError):
            parse_expression("y + 1")
        with pytest.raises(ExpressionError):
            parse_expression("sin(x, 1)")

    def test_reference_formulas_parse(self):
        assert at_point(RHS_EXP_DECAY, 0.0) == pytest.approx(3.0)
        assert at_point(U_RATIONAL, 1.0) == pytest.approx(
            10 * math.cos(1.0) / 8.0
        )


class TestEvaluate:
    def test_basic(self):
        assert at_point("x^2", 3.0) == 9.0
        assert abs(at_point("sin(pi)", 0.0)) <= 1e-15
        assert at_point("e", 0.0) == math.e

    def test_domain_errors(self):
        with pytest.raises(ExpressionError):
            at_point("1/x", 0.0)
        with pytest.raises(ExpressionError):
            at_point("ln(x)", -1.0)
        with pytest.raises(ExpressionError):
            at_point("sqrt(x)", -4.0)
        with pytest.raises(ExpressionError):
            at_point("exp(x)", 1e4)
        with pytest.raises(ExpressionError):
            at_point("(-1)^0.5", 0.0)

    def test_error_message_carries_point(self):
        with pytest.raises(ExpressionError, match="x=0.0"):
            at_point("1/x", 0.0)

    @pytest.mark.parametrize(
        "text,ref",
        [
            (RHS_EXP_DECAY, rhs_exp_decay),
            (U_EXP_DECAY, u_exp_decay),
            (RHS_RATIONAL, rhs_rational),
            (U_RATIONAL, u_rational),
        ],
    )
    def test_agrees_with_hand_coded(self, text, ref):
        expr = parse_expression(text)
        rng = np.random.default_rng(123)
        for x in rng.uniform(0.0, 40.0, 100):
            got = to_callable(expr)(float(x))
            want = ref(float(x))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_to_callable_maps_arrays(self):
        f = to_callable(parse_expression("x^2 + 1"))
        assert f(3.0) == 10.0
        assert np.allclose(f(np.array([0.0, 1.0, 2.0])), [1.0, 2.0, 5.0])


# 0, negative x and x = 700 (where exp is near the top of the double range).
GRID = np.array([-700.0, -3.5, -1.0, -0.0, 0.0, 1e-300, 0.25, 1.0, 2.0, 3.75, 40.0, 700.0])

_leaves = st.one_of(
    st.just(Var()),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, math.pi, 1e-3, 1e300]).map(Num),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False).map(Num),
)
TREES = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), kids),
    ),
    max_leaves=10,
)


class TestArrayEvaluation:
    """One pass per node over the array against the scalar reference walk."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tree=TREES)
    def test_matches_scalar_reference_walk(self, tree):
        ref = [reference_or_error(tree, x) for x in GRID]
        if any(r is None for r in ref):
            with pytest.raises(ExpressionError):
                to_callable(tree)(GRID)
        else:
            got = to_callable(tree)(GRID)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        for x, r in zip(GRID, ref):
            if r is None:
                with pytest.raises(ExpressionError):
                    to_callable(tree)(x)
            else:
                assert to_callable(tree)(x) == r

    def test_arrays_take_no_per_point_path(self, monkeypatch):
        # Every node is evaluated on the whole array, never point by point.
        seen = []
        original = expressions._eval

        def whole_array(expr, x):
            seen.append(x.shape)
            return original(expr, x)

        monkeypatch.setattr(expressions, "_eval", whole_array)
        tree = parse_expression(RHS_RATIONAL)
        x = np.linspace(0.0, 40.0, 101)
        assert np.array_equal(to_callable(tree)(x), [reference_eval(tree, v) for v in x])
        assert seen and set(seen) == {x.shape}

    def test_shapes_and_scalars(self):
        f = to_callable(parse_expression("x*exp(-x)"))
        x = np.linspace(0.0, 5.0, 6).reshape(2, 3)
        got = f(x)
        assert got.shape == (2, 3) and got is not x
        assert type(f(1.5)) is float and type(f(np.float64(1.5))) is float
        assert f(np.array(1.5)) == reference_eval(parse_expression("x*exp(-x)"), 1.5)
        assert f(np.array([])).shape == (0,)
        # No point, so nothing raises, not even a constant division by zero.
        assert to_callable(parse_expression("1/0"))(np.array([])).shape == (0,)
        ident = to_callable(parse_expression("x"))
        x = np.array([1.0, 2.0])
        assert ident(x) is not x

    def test_errors_name_subexpression_and_first_failing_point(self):
        cases = [
            ("1/(x - 2)", "division by zero in '1.0 / (x - 2.0)' at x=2.0"),
            ("ln(x)", "domain error in 'ln(x)' at x=0.0"),
            ("sqrt(x - 3)", "domain error in 'sqrt(x - 3.0)' at x=2.0"),
            ("(x - 3)^0.5", "invalid power in '(x - 3.0) ^ 0.5' at x=2.0"),
            ("exp(1/(x + 0.001))", "domain error in 'exp(1.0 / (x + 0.001))' at x=0.0"),
            ("exp(400/(x + 1))*exp(400/(x + 1))", "non-finite result inf at x=0.0"),
        ]
        x = np.array([3.5, 3.0, 2.0, 1.0, 0.0])
        for text, message in cases:
            with pytest.raises(ExpressionError, match=re.escape(message)):
                to_callable(parse_expression(text))(x)


# The trees parse_expression can return: its numbers are finite and non-negative.
PARSED_TREES = st.recursive(
    st.one_of(st.just(Var()), st.floats(min_value=0.0, allow_infinity=False).map(Num)),
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(Bin, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), kids),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    CORPUS = [
        "1",
        "x",
        "pi",
        "-x",
        "--x",
        "1 + 2",
        "1 - 2 - 3",
        "2 - -3",
        "2*3 + 4",
        "2*(3 + 4)",
        "x/2/3",
        "x/(2/3)",
        "x^2",
        "2^3^2",
        "(2^3)^2",
        "-x^2",
        "(-x)^2",
        "2^-2",
        "-(x + 1)",
        "sin(x)",
        "cos(x)*sin(x)",
        "exp(-x)",
        "sqrt(x + 1)",
        "abs(-x)",
        "tan(x/4)",
        "ln(x + 2)",
        "1.5e-3*x",
        ".5 + x",
        "x*(1 - x/2)",
        "3*cos(x) - 2*(-1 + x)*sin(x)",
        RHS_EXP_DECAY,
        U_EXP_DECAY,
        RHS_RATIONAL,
        U_RATIONAL,
        "x + x*x + x*x*x",
        "x - (x - (x - 1))",
        "1/(1 + x)^2",
        "exp(x)/(1 + exp(x))",
        "sin(cos(tan(x)))",
        "x^(1/3)",
        "2^x",
        "x^x",
        "-1",
        "-(2*x)^3",
        "abs(x)^0.5",
        "(x + 1)*(x + 2)*(x + 3)",
        "x/2*3",
        "-x/2",
        "1 - -x^2",
        "sqrt(abs(x - 1))",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_pretty_print_reparses_identically(self, text):
        tree = parse_expression(text)
        assert parse_expression(format_expr(tree)) == tree

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(tree=PARSED_TREES)
    def test_formatted_tree_reparses_identically(self, tree):
        assert parse_expression(format_expr(tree)) == tree


class TestFuzz:
    def test_arbitrary_input_never_crashes(self):
        rng = random.Random(31415)
        alphabet = string.ascii_lowercase + string.digits + "+-*/^()., eE\t−²"
        for _ in range(20000):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
            try:
                tree = parse_expression(s)
            except ExpressionError:
                continue
            try:
                to_callable(tree)(1.7)
            except ExpressionError:
                continue


# Each shape at k levels: k parentheses, minus signs, powers, calls or plus signs.
DEEP = {
    "parentheses": lambda k: "(" * k + "x" + ")" * k,
    "unary-minus": lambda k: "-" * k + "x",
    "power": lambda k: "^".join(["x"] * (k + 1)),
    "calls": lambda k: "sin(" * k + "x" + ")" * k,
    "sum": lambda k: "+".join(["x"] * (k + 1)),
}


class TestDepthBound:
    BOUND = expressions._MAX_DEPTH

    @pytest.mark.parametrize("shape", DEEP)
    def test_at_the_bound_everything_works(self, shape):
        tree = parse_expression(DEEP[shape](self.BOUND))
        assert parse_expression(format_expr(tree)) == tree
        x = np.array([0.25, 0.5])
        assert np.array_equal(to_callable(tree)(x), [reference_eval(tree, v) for v in x])

    @pytest.mark.parametrize(
        "shape, offset",
        [("parentheses", 250), ("unary-minus", 250), ("power", 501), ("calls", 1003), ("sum", 501)],
    )
    def test_one_level_deeper_is_positioned(self, shape, offset):
        # The offset is the token that opens the 251st level: the last '(' or
        # '-', the 251st operator, or the 251st call's '('.
        with pytest.raises(ExpressionError) as exc:
            parse_expression(DEEP[shape](self.BOUND + 1))
        assert exc.value.position == offset
        assert str(exc.value) == f"expression nested deeper than 250 levels at offset {offset}"

    def test_levels_add_up_across_shapes(self):
        # Parentheses around a sum at the bound add no tree depth; a minus
        # sign in front of it does, and is the offending token.
        at_bound = DEEP["sum"](self.BOUND)
        assert parse_expression(f"({at_bound})") == parse_expression(at_bound)
        with pytest.raises(ExpressionError) as exc:
            parse_expression(f"1 - -({at_bound})")
        assert exc.value.position == 4
        half = self.BOUND // 2
        parse_expression("(" * half + "-" * half + "x" + ")" * half)
        with pytest.raises(ExpressionError):
            parse_expression("(" * half + "-" * (half + 1) + "x" + ")" * half)

    @pytest.mark.parametrize(
        "text", ["(" * 400 + "x" + ")" * 400, "-" * 1000 + "x", "+".join(["x"] * 1000)],
        ids=["400-parentheses", "1000-minus-signs", "1000-term-sum"],
    )
    def test_far_too_deep_input_is_an_expression_error(self, text):
        with pytest.raises(ExpressionError, match="nested deeper than 250 levels"):
            parse_expression(text)

    def test_lexical_error_beyond_the_bound_still_wins(self):
        with pytest.raises(ExpressionError, match="unexpected character") as exc:
            parse_expression("(" * 400 + "x" + ")" * 400 + "−1")
        assert exc.value.position == 801
