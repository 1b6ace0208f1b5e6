import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from legclair.expr import (
    Add,
    Call,
    EvalDomainError,
    Mul,
    ParseError,
    Pow,
    Var,
    eval_dual2,
    evaluate,
    parse,
    to_source,
)


def count_nodes(node, cls):
    n = 1 if isinstance(node, cls) else 0
    for name in ("arg", "left", "right", "base"):
        child = getattr(node, name, None)
        if child is not None and not isinstance(child, float):
            n += count_nodes(child, cls)
    return n


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def test_parse_power_over_sum_structure():
    e = parse("0.5*(v1+v2)^2", ["v1", "v2"])
    assert count_nodes(e.root, Pow) == 1
    assert isinstance(e.root, Mul)
    pow_node = e.root.right
    assert isinstance(pow_node, Pow)
    assert isinstance(pow_node.base, Add)
    assert pow_node.exponent == 2.0


def test_parse_function_times_variable():
    e = parse("sin(q1)*v1", ["q1", "v1"])
    assert isinstance(e.root, Mul)
    assert e.root.left == Call("sin", Var(0, "q1"))
    assert e.root.right == Var(1, "v1")


def test_parse_unknown_identifier_has_column():
    with pytest.raises(ParseError) as err:
        parse("v3", ["v1", "v2"])
    assert err.value.column == 1
    assert "v3" in str(err.value)


def test_parse_unknown_identifier_mid_expression():
    with pytest.raises(ParseError) as err:
        parse("v1 + bogus", ["v1"])
    assert err.value.column == 6


def test_parse_abs_rejected():
    with pytest.raises(ParseError, match="abs"):
        parse("abs(v1)", ["v1"])


def test_parse_arity_mismatch():
    with pytest.raises(ParseError, match="exactly one argument"):
        parse("sin(q1, q2)", ["q1", "q2"])


def test_parse_function_without_parens():
    with pytest.raises(ParseError, match="must be called"):
        parse("sin + 1", ["v1"])


def test_parse_variable_exponent_rejected():
    with pytest.raises(ParseError, match="constant"):
        parse("v1^v2", ["v1", "v2"])


OVERFLOW = "overflow to a non-finite value or derivative"


@pytest.mark.parametrize("source, column, message", [
    ("q1^exp(1000)", 4, f"{OVERFLOW} in 'exp(1000)'"),
    ("0.5*q1^exp(1000)", 8, f"{OVERFLOW} in 'exp(1000)'"),
    ("q1^(10^400)", 4, f"{OVERFLOW} in '10^400'"),
    ("q1^(2^(10^400))", 7, f"{OVERFLOW} in '10^400'"),
    ("q1^(1e308*10)", 4, f"{OVERFLOW} in '1e+308*10'"),
    ("q1^(1/0)", 4, "division by zero in '1/0'"),
    ("q1^ln(0)", 4, "ln of non-positive value 0.0 in 'ln(0)'"),
    ("q1^(0^-1)", 4, "zero raised to a negative power in '0^-1'"),
    ("q1^((-1)^0.5)", 4,
     "non-integer power of non-positive base -1.0 in '-1^0.5'"),
    ("q1^sqrt(-1)", 4, "sqrt of negative value -1.0 in 'sqrt(-1)'"),
])
def test_parse_invalid_constant_exponent_names_column_and_fragment(
        source, column, message):
    with pytest.raises(ParseError) as err:
        parse(source, ["q1"])
    assert err.value.column == column
    assert str(err.value) == (f"invalid constant exponent: {message} "
                              f"(column {column})")


def test_parse_constant_exponent_subexpressions_fold():
    e = parse("v1^(1+1)", ["v1"])
    assert isinstance(e.root, Pow)
    assert e.root.exponent == 2.0


def test_parse_syntax_errors():
    with pytest.raises(ParseError):
        parse("", ["v1"])
    with pytest.raises(ParseError):
        parse("v1 +", ["v1"])
    with pytest.raises(ParseError):
        parse("(v1", ["v1"])
    with pytest.raises(ParseError, match="trailing"):
        parse("v1 v1", ["v1"])
    with pytest.raises(ParseError):
        parse("v1 $ 2", ["v1"])


def test_parse_rejects_bad_variable_tables():
    with pytest.raises(ValueError):
        parse("v1", ["v1", "v1"])
    with pytest.raises(ValueError):
        parse("v1", ["v1", "sin"])


def test_parse_rejects_overflowing_number():
    with pytest.raises(ParseError, match="overflows") as err:
        parse("2*1e999*v1", ["v1"])
    assert err.value.column == 3


def test_parse_numbers_and_constants():
    assert evaluate(parse("1.5e2", []), []) == 150.0
    assert evaluate(parse(".5", []), []) == 0.5
    assert_allclose(evaluate(parse("pi", []), []), math.pi, rtol=0)
    assert_allclose(evaluate(parse("e", []), []), math.e, rtol=0)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_eval_examples():
    assert evaluate(parse("0.5*(v1+v2)^2", ["v1", "v2"]), [1.0, 2.0]) == 4.5
    assert evaluate(parse("q1*v1", ["q1", "v1"]), [0.0, 7.0]) == 0.0
    assert evaluate(parse("exp(0)", []), []) == 1.0


def test_eval_domain_errors_name_the_fragment():
    e = parse("ln(q1 - 2)", ["q1"])
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, [1.0])
    assert "ln(q1-2)" in str(err.value)

    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate(parse("1/(v1-1)", ["v1"]), [1.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(v1)", ["v1"]), [-1.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("v1^-1", ["v1"]), [0.0])
    with pytest.raises(EvalDomainError):
        evaluate(parse("v1^0.5", ["v1"]), [-2.0])


def test_eval_power_rules():
    assert evaluate(parse("v1^3", ["v1"]), [-2.0]) == -8.0
    assert evaluate(parse("v1^-2", ["v1"]), [2.0]) == 0.25
    assert evaluate(parse("v1^0.5", ["v1"]), [4.0]) == 2.0
    assert evaluate(parse("sqrt(v1)", ["v1"]), [0.0]) == 0.0
    assert evaluate(parse("v1^0", ["v1"]), [0.0]) == 1.0


# --------------------------------------------------------------------------
# dual evaluation
# --------------------------------------------------------------------------

def test_dual2_quadratic_form_exact():
    e = parse("0.5*(v1+v2)^2", ["v1", "v2"])
    d = eval_dual2(e, [1.0, 2.0])
    assert d.value == 4.5
    assert np.array_equal(d.grad, [3.0, 3.0])
    assert np.array_equal(d.hess, [[1.0, 1.0], [1.0, 1.0]])


def test_dual2_bilinear_exact():
    d = eval_dual2(parse("v1*v2", ["v1", "v2"]), [5.0, -3.0])
    assert np.array_equal(d.grad, [-3.0, 5.0])
    assert np.array_equal(d.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_dual2_sin_at_zero():
    d = eval_dual2(parse("sin(q1)", ["q1"]), [0.0])
    assert d.value == 0.0
    assert np.array_equal(d.grad, [1.0])
    assert np.array_equal(d.hess, [[0.0]])


def test_dual2_affine_hessian_exactly_zero():
    e = parse("2*q1 - 3*v1 + 0.25*q2 + 7", ["q1", "q2", "v1"])
    d = eval_dual2(e, [0.3, -1.2, 2.2])
    assert np.all(d.hess == 0.0)
    assert np.array_equal(d.grad, [2.0, 0.25, -3.0])


def test_dual2_active_subset_order():
    e = parse("q1*v1 + v2^2", ["q1", "v1", "v2"])
    d = eval_dual2(e, [2.0, 3.0, 4.0], active=[2, 0])
    # slots follow the active list: slot 0 is v2, slot 1 is q1
    assert np.array_equal(d.grad, [8.0, 3.0])
    assert np.array_equal(d.hess, [[2.0, 0.0], [0.0, 0.0]])


def test_dual2_validates_arguments():
    e = parse("v1", ["v1"])
    with pytest.raises(ValueError):
        eval_dual2(e, [1.0, 2.0])
    with pytest.raises(ValueError):
        eval_dual2(e, [1.0], active=[0, 0])
    with pytest.raises(ValueError):
        eval_dual2(e, [1.0], active=[3])


def test_dual2_sqrt_zero_rejected_but_value_allowed():
    e = parse("sqrt(v1)", ["v1"])
    assert evaluate(e, [0.0]) == 0.0
    with pytest.raises(EvalDomainError):
        eval_dual2(e, [0.0])


def test_dual2_hessian_bitwise_symmetric():
    rng = np.random.default_rng(7)
    names = ["q1", "v1", "v2"]
    for _ in range(30):
        src = helpers.random_smooth_source(rng, names)
        e = parse(src, names)
        d = eval_dual2(e, rng.uniform(-1.0, 1.0, size=3))
        assert np.array_equal(d.hess, d.hess.T), src


def test_dual2_linearity():
    rng = np.random.default_rng(11)
    names = ["v1", "v2"]
    for _ in range(20):
        f = helpers.random_polynomial_source(rng, names)
        g = helpers.random_polynomial_source(rng, names)
        a, b = (float(x) for x in rng.uniform(-2, 2, size=2))
        combo = parse(f"{a!r}*({f})+{b!r}*({g})", names)
        x = rng.uniform(-1, 1, size=2)
        df = eval_dual2(parse(f, names), x)
        dg = eval_dual2(parse(g, names), x)
        dc = eval_dual2(combo, x)
        assert_allclose(dc.value, a * df.value + b * dg.value, rtol=1e-12, atol=1e-12)
        assert_allclose(dc.grad, a * df.grad + b * dg.grad, rtol=1e-12, atol=1e-12)
        assert_allclose(dc.hess, a * df.hess + b * dg.hess, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------
# finite-difference oracle
# --------------------------------------------------------------------------

def test_dual2_matches_fd_on_random_polynomials():
    rng = np.random.default_rng(23)
    names = ["q1", "v1", "v2"]
    for _ in range(40):
        e = parse(helpers.random_polynomial_source(rng, names), names)
        for _ in range(5):
            helpers.check_expr_against_fd(e, rng.uniform(-1, 1, size=3))


def test_dual2_matches_fd_on_smooth_expressions():
    rng = np.random.default_rng(29)
    names = ["q1", "q2", "v1"]
    for _ in range(25):
        e = parse(helpers.random_smooth_source(rng, names), names)
        for _ in range(4):
            helpers.check_expr_against_fd(e, rng.uniform(-1, 1, size=3))


# --------------------------------------------------------------------------
# printing round-trips
# --------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "0.5*(v1+v2)^2",
    "a-b-c".replace("a", "q1").replace("b", "q2").replace("c", "v1"),
    "q1-(q2-v1)",
    "q1/(q2*v1)",
    "q1/q2/v1",
    "(q1^2)^3",
    "-q1^2",
    "-(q1^2)",
    "--q1",
    "q1*-q2",
    "sin(q1)^2+cos(q1)^2",
    "exp(0.5*q1)/(2+q2^2)",
    "q1^-2",
    "2^-0.5",
    "1.5e-3*q1",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_fixed_sources(src):
    names = ["q1", "q2", "v1", "v2"]
    e1 = parse(src, names)
    printed = to_source(e1)
    e2 = parse(printed, names)
    assert e1.root == e2.root, f"{src!r} -> {printed!r}"
    assert to_source(e2) == printed  # printing is a fixed point


def test_round_trip_random_trees():
    rng = np.random.default_rng(31)
    names = ["q1", "q2", "v1", "v2"]
    for _ in range(300):
        tree = helpers.random_tree(rng, names, depth=4)
        printed = to_source(tree)
        reparsed = parse(printed, names)
        assert reparsed.root == tree, printed


def test_unary_minus_binds_inside_power():
    # per the grammar, -x^2 is (-x)^2
    e = parse("-1^2", [])
    assert evaluate(e, []) == 1.0
    e = parse("-(1^2)", [])
    assert evaluate(e, []) == -1.0
