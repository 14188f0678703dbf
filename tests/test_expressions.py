import numpy as np
import pytest

from hierctrl.errors import ParseError
from hierctrl.expressions import parse_expr


def test_polynomial_at_half():
    assert parse_expr("2*x*(1-x)").evaluate({"x": 0.5}) == 0.5


def test_sine_of_pi_t():
    assert parse_expr("sin(3.141592653589793*t)").evaluate({"t": 0.5}) == pytest.approx(1.0, abs=1e-12)


def test_parse_error_offset_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_expr("x +* 2")
    assert err.value.offset == 3
    assert "number" in err.value.expected


def test_power_right_associative():
    assert parse_expr("2^3^2").evaluate({}) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert parse_expr("-2^2").evaluate({}) == -4.0
    assert parse_expr("2^-1").evaluate({}) == 0.5


def test_precedence_mul_over_add():
    assert parse_expr("1+2*3").evaluate({}) == 7.0
    assert parse_expr("(1+2)*3").evaluate({}) == 9.0


def test_functions():
    assert parse_expr("exp(0)").evaluate({}) == 1.0
    assert parse_expr("tanh(0)").evaluate({}) == 0.0
    assert parse_expr("abs(-3)").evaluate({}) == 3.0
    assert parse_expr("cos(0)").evaluate({}) == 1.0


def test_unknown_function_rejected():
    with pytest.raises(ParseError) as err:
        parse_expr("foo(2)")
    assert err.value.offset == 0


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_expr("1 + 2 )")


def test_unclosed_paren():
    with pytest.raises(ParseError) as err:
        parse_expr("sin(x")
    assert err.value.expected == (")",)


def test_empty_input():
    with pytest.raises(ParseError):
        parse_expr("")


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_expr("x & y")
    assert err.value.offset == 2


def test_unbound_variable_raises_value_error():
    ast = parse_expr("x + q")
    with pytest.raises(ValueError):
        ast.evaluate({"x": 1.0})


def test_scientific_notation():
    assert parse_expr("1e-3 + 2.5E2").evaluate({}) == pytest.approx(250.001)


def test_vectorized_evaluation():
    out = parse_expr("x^2 + t").evaluate({"x": np.array([1.0, 2.0]), "t": 1.0})
    assert np.allclose(out, [2.0, 5.0])


def test_variables_collection():
    assert parse_expr("x*sin(t)+y").variables() == {"x", "t", "y"}


ENV = {"x": 2.0, "y": 3.0, "sin": 0.25}


@pytest.mark.parametrize("text, variables, value", [
    ("007*x", {"x"}, 14.0),
    (" x", {"x"}, 2.0),
    ("1 +\n 2", set(), 3.0),
    ("1.", set(), 1.0),
    (".5", set(), 0.5),
    ("1.e3", set(), 1000.0),
    ("1E+3", set(), 1000.0),
    ("00.5", set(), 0.5),
    ("1e007", set(), 1e7),
    ("1e-007", set(), 1e-7),
    ("--x", {"x"}, 2.0),
    ("-(x)^2", {"x"}, -4.0),
    ("x^-y^2", {"x", "y"}, 2.0 ** -9),
    ("2^-1", set(), 0.5),
    ("sin (x)", {"x"}, np.sin(2.0)),
    ("((x))", {"x"}, 2.0),
    ("x\t*\ty", {"x", "y"}, 6.0),
    ("sin", {"sin"}, 0.25),
    ("sin + sin(x)", {"sin", "x"}, 0.25 + np.sin(2.0)),
    ("exp(x/y) - 1/3", {"x", "y"}, np.exp(2.0 / 3.0) - 1.0 / 3.0),
])
def test_accepted_language(text, variables, value):
    """Each input parses to these variables and evaluates, bit for bit, to
    this value at x = 2, y = 3 (and the variable sin = 0.25)."""
    expr = parse_expr(text)
    assert expr.variables() == variables
    assert expr.evaluate(ENV) == value


@pytest.mark.parametrize("text", [
    "x**2", "+x", "1j", "0x10", "1_0", "1e", "x.real", "x//2", "x y", "2x", "1.2.3", "exp(x)(y)",
    "sin(x, y)", "x < y", '"a"', "", "x)+(y", "1 #\n+ 2", "x \\\n+ 2",
])
def test_rejected_language(text):
    """Each input is a ParseError at an offset inside the text."""
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert 0 <= err.value.offset <= len(text)


@pytest.mark.parametrize("text", [
    "(" * 300 + "x" + ")" * 300, "+".join(["x"] * 600), "-" * 3000 + "x", "^".join(["x"] * 3000),
], ids=["300 parentheses", "600 terms", "3000 minus signs", "3000 powers"])
def test_deep_nesting_is_a_parse_error(text):
    """Nesting too deep to parse, or deeper than the walk admits, is a
    ParseError, not a RecursionError or a MemoryError."""
    with pytest.raises(ParseError):
        parse_expr(text)
