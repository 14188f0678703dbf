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
