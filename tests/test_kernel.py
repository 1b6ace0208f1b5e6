"""The compiled kernels behind eval_dual2/evaluate: oracle, cache, overflow.

The oracle is the forward-mode tree walker in ``oracle.py``.  Where no
operation of the oracle overflows, the kernels must agree with it exactly:
``==`` on value, gradient and Hessian (zero folding may flip the sign of a
zero entry, which ``==`` ignores), and the same domain error at the same
node.  Where the oracle overflows (numpy flags it, or it ends in inf/NaN),
the kernels must raise ``EvalDomainError`` or return finite numbers that
agree with every finite entry the oracle produced.

The stacked kernels behind eval_dual2_many/evaluate_many must reproduce the
scalar kernels row by row, bytes included, or raise the lowest failing
row's error; and both must agree with sympy's symbolic derivatives.
"""

import gc
import hashlib
import math
import re
import weakref

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from legclair import expr
from legclair.expr import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    Expression,
    eval_dual2,
    eval_dual2_many,
    eval_dual2_rows,
    evaluate,
    evaluate_many,
    parse,
    to_source,
    with_variables,
)
from oracle import oracle_eval_dual2, oracle_evaluate

NAMES = ("q1", "q2", "v1", "v2")
EXPONENTS = (0.0, 1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, 0.5, -0.5, 1.5, 2.5)

numbers = st.one_of(
    st.sampled_from((0.0, 1.0, 2.0, 0.5, 3.0, 0.25)),
    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
)
leaves = st.one_of(
    st.builds(Num, numbers),
    st.integers(0, len(NAMES) - 1).map(lambda i: Var(i, NAMES[i])),
)


def _extend(kids):
    return st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(Pow, kids, st.sampled_from(EXPONENTS)),
        *(st.builds(ctor, kids, kids) for ctor in (Add, Sub, Mul, Div)),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)
points = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    min_size=len(NAMES), max_size=len(NAMES),
)
# None, or an ordered subset in any order, passed as a tuple or a list
actives = st.one_of(
    st.none(),
    st.tuples(st.permutations(range(len(NAMES))), st.integers(0, len(NAMES)),
              st.booleans()).map(lambda t: tuple(t[0][:t[1]]) if t[2]
                                 else list(t[0][:t[1]])),
)

PROPERTY = settings(derandomize=True, database=None, max_examples=400,
                    deadline=None)


def _expression(tree):
    return Expression(tree, NAMES, to_source(tree))


def _all_finite(result):
    if isinstance(result, float):
        return math.isfinite(result)
    return (math.isfinite(result.value) and np.all(np.isfinite(result.grad))
            and np.all(np.isfinite(result.hess)))


def _oracle(call):
    """('ok', result), ('domain', error) or ('overflow', None)."""
    with np.errstate(over="raise", divide="raise", invalid="raise",
                     under="ignore"):
        try:
            result = call()
        except EvalDomainError as err:
            return "domain", err
        except (FloatingPointError, OverflowError, ZeroDivisionError,
                ValueError):
            return "overflow", None
    return ("ok", result) if _all_finite(result) else ("overflow", None)


def _plain(message):
    # the tree walker reports numpy scalars, the kernels plain floats
    return re.sub(r"np\.float64\((.*?)\)", r"\1", message)


def _same_where_finite(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    finite = np.isfinite(want)
    return np.array_equal(got[finite], want[finite])


def _check_against_oracle(call, oracle_call):
    kind, want = _oracle(oracle_call)
    try:
        got = call()
    except EvalDomainError as err:
        got = err
    if kind == "ok":
        assert not isinstance(got, EvalDomainError), got
        if isinstance(want, float):
            assert type(got) is float and got == want
        else:
            assert type(got.value) is float and got.value == want.value
            assert got.grad.dtype == want.grad.dtype
            assert got.grad.shape == want.grad.shape
            assert got.hess.shape == want.hess.shape
            assert np.array_equal(got.grad, want.grad)
            assert np.array_equal(got.hess, want.hess)
    elif kind == "domain":
        assert isinstance(got, EvalDomainError), got
        assert got.fragment == want.fragment
        assert str(got) == _plain(str(want))
    elif not isinstance(got, EvalDomainError):
        assert _all_finite(got)
        with np.errstate(all="ignore"):
            try:
                plain = oracle_call()
            except (OverflowError, ZeroDivisionError, ValueError):
                return
        if isinstance(plain, float):
            assert got == plain or not math.isfinite(plain)
        else:
            assert got.value == plain.value or not math.isfinite(plain.value)
            assert _same_where_finite(got.grad, plain.grad)
            assert _same_where_finite(got.hess, plain.hess)


# --------------------------------------------------------------------------
# agreement with the tree walker
# --------------------------------------------------------------------------

# a value kernel tests the divisor first: evaluate raises "division by
# zero" here, eval_dual2 "ln of non-positive value"
LN_OVER_ZERO = (Div(Call("ln", Var(0, "q1")), Var(1, "q2")),
                [-1.0, 0.0, 0.0, 0.0])


@PROPERTY
@given(trees, points, actives)
@example(*LN_OVER_ZERO, None)
def test_eval_dual2_matches_tree_walker(tree, point, active):
    e = _expression(tree)
    _check_against_oracle(lambda: eval_dual2(e, point, active),
                          lambda: oracle_eval_dual2(e, point, active))


@PROPERTY
@given(trees, points)
@example(*LN_OVER_ZERO)
def test_evaluate_matches_tree_walker(tree, point):
    e = _expression(tree)
    _check_against_oracle(lambda: evaluate(e, point),
                          lambda: oracle_evaluate(e, point))


@PROPERTY
@given(trees, st.lists(points, min_size=2, max_size=4), actives)
def test_one_kernel_serves_many_points(tree, pts, active):
    e = _expression(tree)
    for point in pts:
        _check_against_oracle(lambda: eval_dual2(e, point, active),
                              lambda: oracle_eval_dual2(e, point, active))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _dual_bytes(d):
    return (np.float64(d.value).tobytes(), d.grad.shape, d.grad.tobytes(),
            d.hess.shape, d.hess.tobytes())


@PROPERTY
@given(trees, points, actives)
def test_floats_are_the_array_entries_for_every_form_of_point(
        tree, point, active):
    # a scalar kernel's value is a Python float and its gradient and Hessian
    # float arrays, and every form of the point gives the same bits
    e = _expression(tree)
    forms = (np.array(point), tuple(point), [np.float64(x) for x in point])
    try:
        d = eval_dual2(e, point, active)
    except EvalDomainError as err:
        for form in forms:
            with pytest.raises(EvalDomainError) as again:
                eval_dual2(e, form, active)
            assert str(again.value) == str(err)
        return
    m = len(NAMES) if active is None else len(active)
    assert type(d.value) is float
    assert (d.grad.dtype, d.hess.dtype) == (np.float64, np.float64)
    assert (d.grad.shape, d.hess.shape) == ((m,), (m, m))
    for form in forms:
        assert _dual_bytes(eval_dual2(e, form, active)) == _dual_bytes(d)


def test_no_active_slot_gives_empty_derivatives():
    d = eval_dual2(parse("q1*v1^2", ["q1", "v1"]), [2.0, 3.0], ())
    assert type(d.value) is float and d.value == 18.0
    assert (d.grad.shape, d.hess.shape) == ((0,), (0, 0))


signed_zero_points = st.lists(
    st.one_of(st.sampled_from((0.0, -0.0)),
              st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)),
    min_size=len(NAMES), max_size=len(NAMES),
)


@PROPERTY
@given(trees, signed_zero_points, actives)
def test_derivative_entries_do_not_depend_on_the_active_set(
        tree, point, active):
    # every entry is computed from its own slots alone, so a subset of the
    # active variables gets the full kernel's entries bit for bit (the EL
    # flow records Phi = dL/dv2 - Psi as 0.0 on this)
    e = _expression(tree)
    try:
        full = eval_dual2(e, point)
    except EvalDomainError:
        return
    slots = list(range(len(NAMES)) if active is None else active)
    d = eval_dual2(e, point, active)
    assert _bits(d.value) == _bits(full.value)
    assert d.grad.tobytes() == full.grad[slots].tobytes()
    assert d.hess.tobytes() == full.hess[np.ix_(slots, slots)].tobytes()


@PROPERTY
@given(trees)
def test_to_source_parse_round_trip(tree):
    printed = to_source(tree)
    reparsed = parse(printed, NAMES)
    assert reparsed.root == tree, printed
    assert to_source(reparsed) == printed


# --------------------------------------------------------------------------
# the kernel cache
# --------------------------------------------------------------------------

SOURCE = "0.5*(v1+v2)^2 - 0.5*q1^2*v1 + q2*v2"
POINT = [0.3, -0.7, 1.0, 2.0]


def test_cache_leaves_equality_hash_and_repr_unchanged():
    e, twin = parse(SOURCE, NAMES), parse(SOURCE, NAMES)
    text, code = repr(e), hash(e)
    eval_dual2(e, POINT)
    eval_dual2(e, POINT, [2, 3])
    evaluate(e, POINT)
    assert e._kernels and not twin._kernels
    assert e == twin
    assert hash(e) == code == hash(twin)
    assert repr(e) == text == repr(twin)
    assert "_kernels" not in repr(e)


def test_reparse_and_with_variables_compile_their_own_kernels():
    e = parse(SOURCE, NAMES)
    eval_dual2(e, POINT)
    again = parse(SOURCE, NAMES)
    assert not again._kernels
    d = eval_dual2(again, POINT)
    key = tuple(range(len(NAMES)))
    assert again._kernels[key] is not e._kernels[key]
    assert np.array_equal(d.hess, eval_dual2(e, POINT).hess)

    # lift onto a wider table: q1 -> slot 1, v1 -> slot 3
    small = parse("q1*v1^2", ["q1", "v1"])
    eval_dual2(small, [2.0, 3.0])
    lifted = with_variables(small, ["x", "q1", "y", "v1"], {0: 1, 1: 3})
    assert not lifted._kernels
    d = eval_dual2(lifted, [9.0, 2.0, 9.0, 3.0], [3, 1])
    assert d.value == 18.0
    assert np.array_equal(d.grad, [12.0, 9.0])
    assert np.array_equal(d.hess, [[4.0, 6.0], [6.0, 0.0]])


def test_bad_arguments_raise_on_every_call():
    e = parse(SOURCE, NAMES)
    eval_dual2(e, POINT, (0,))
    for call in (lambda x: eval_dual2_many(e, x), lambda x: evaluate_many(e, x)):
        for bad in (POINT, [POINT[:3]], [[POINT]]):
            with pytest.raises(ValueError, match="shape"):
                call(bad)
    with pytest.raises(ValueError, match="out of range"):
        eval_dual2_many(e, [POINT], (4,))
    e = parse(SOURCE, NAMES)
    eval_dual2(e, POINT, (0,))
    for _ in range(3):
        with pytest.raises(ValueError, match="shape"):
            eval_dual2(e, POINT[:3], (0,))
        with pytest.raises(ValueError, match="shape"):
            eval_dual2(e, [POINT])
        with pytest.raises(ValueError, match="shape"):
            evaluate(e, POINT + [1.0])
        for dup in ((1, 1), [2, 0, 2]):
            with pytest.raises(ValueError, match="duplicate active indices"):
                eval_dual2(e, POINT, dup)
        for bad in ((4,), [0, -1], range(3, 6)):
            with pytest.raises(ValueError, match="out of range"):
                eval_dual2(e, POINT, bad)
    assert set(e._kernels) == {(0,)}


def test_failures_leave_no_half_built_cache_entry(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("compile failed")

    e = parse("ln(v1) + v1^400", ["v1"])
    monkeypatch.setattr(expr, "compile", broken, raising=False)
    with pytest.raises(RuntimeError):
        eval_dual2(e, [2.0])
    with pytest.raises(RuntimeError):
        evaluate(e, [2.0])
    assert e._kernels == {}
    monkeypatch.undo()

    # a domain error at run time leaves a whole, working kernel
    with pytest.raises(EvalDomainError, match="ln"):
        eval_dual2(e, [-1.0])
    kernels = dict(e._kernels)
    assert eval_dual2(e, [2.0]).value == math.log(2.0) + 2.0 ** 400
    assert e._kernels == kernels

    # the checked variant is built on the first overflow; a failure there
    # must not stick either
    monkeypatch.setattr(expr, "compile", broken, raising=False)
    with pytest.raises(RuntimeError):
        eval_dual2(e, [1e10])
    monkeypatch.undo()
    with pytest.raises(EvalDomainError, match="v1\\^400"):
        eval_dual2(e, [1e10])
    assert eval_dual2(e, [2.0]).value == math.log(2.0) + 2.0 ** 400


def test_kernels_are_freed_with_the_expression():
    e = parse(SOURCE, NAMES)
    eval_dual2(e, POINT)
    with pytest.raises(EvalDomainError):
        eval_dual2(e, [0.0, 0.0, 1e200, 1e200])  # builds the checked variant
    refs = [weakref.ref(k) for k in e._kernels.values()]
    gc.disable()
    try:
        del e
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# overflow and non-finite results
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "source, x, fragment",
    [
        ("v1^400", 1e10, "v1^400"),
        ("exp(v1)", 1e3, "exp(v1)"),
        ("1 + 2*v1^400", 1e10, "v1^400"),
        ("sin(exp(v1))", 1e3, "exp(v1)"),
        ("v1*v1*v1", 1e200, "v1*v1"),  # multiplication overflows silently
        ("v1^2", 1e200, "v1^2"),  # and so does a square, x*x
        ("v1^2*0", 1e200, "v1^2"),
        ("v1", math.nan, "v1"),
        ("v1 - v1", math.inf, "v1"),
    ],
)
def test_overflow_raises_domain_error_quoting_fragment(source, x, fragment):
    e = parse(source, ["v1"])
    for call in (lambda: evaluate(e, [x]), lambda: eval_dual2(e, [x])):
        for _ in range(2):  # the slow path is compiled once, then reused
            with pytest.raises(EvalDomainError) as err:
                call()
            assert err.value.fragment == fragment
            assert str(err.value) == (f"{expr._NONFINITE} in {fragment!r}")


@pytest.mark.parametrize("source, fragment", [("1/v1^2", "v1^2"),
                                              ("1/(v1*v1)", "v1*v1")])
def test_the_reciprocal_of_an_overflowing_square_is_zero(source, fragment):
    # v1^2 is v1*v1, which gives inf where Python's v1 ** 2 raises
    # OverflowError: 1/inf is a finite value, while the derivatives still
    # overflow at the square
    e = parse(source, ["v1"])
    rows = [[1e200], [2.0]]
    assert evaluate(e, rows[0]) == 0.0
    assert evaluate_many(e, rows).tolist() == [0.0, 0.25]
    with pytest.raises(EvalDomainError) as err:
        eval_dual2(e, rows[0])
    assert (str(err.value), err.value.fragment) == (
        f"{expr._NONFINITE} in {fragment!r}", fragment)
    d, failed = eval_dual2_rows(e, rows)
    assert list(failed) == [0] and str(failed[0]) == str(err.value)
    assert d.value[1] == 0.25


def test_derivative_overflow_raises_where_the_value_is_finite():
    # 1/v1 at 1e-110: the value 1e110 is fine, 2/v1^3 is not
    e = parse("1/v1", ["v1"])
    assert evaluate(e, [1e-110]) == 1e110
    with pytest.raises(EvalDomainError, match="overflow") as err:
        eval_dual2(e, [1e-110])
    assert err.value.fragment == "1/v1"
    # only the Hessian needs 2/v1^3, and nothing differentiates v1 here
    d = eval_dual2(parse("q1/v1", ["q1", "v1"]), [3.0, 1e-110], [0])
    assert d.value == 3.0 / 1e-110
    assert np.array_equal(d.hess, [[0.0]])


def test_finite_sum_overflow_takes_the_slow_path_and_returns():
    # each entry is finite; only their sum, used as the quick test, is not
    d = eval_dual2(parse("1e308*v1 + 1e308*v2", ["v1", "v2"]), [1.0, 0.5])
    assert d.value == 1e308 + 5e307
    assert np.array_equal(d.grad, [1e308, 1e308])


# --------------------------------------------------------------------------
# stacked kernels: every row as the scalar kernel computes it
# --------------------------------------------------------------------------

def _stack(seed, box, count, special):
    rows = np.random.default_rng(seed).uniform(*box, (count, len(NAMES)))
    for row, col, x in special:
        rows[row % count, col] = x
    return rows


# Random points, where numpy's powers other than squares, exp, ln and tan
# would miss the scalar kernel by an ulp somewhere, and a few values that overflow,
# underflow a square or hit a domain boundary.
stacks = st.builds(
    _stack,
    st.integers(0, 2**32 - 1),
    st.sampled_from(((-3.0, 3.0), (0.1, 3.0))),
    st.integers(1, 40),
    st.lists(st.tuples(
        st.integers(0, 39), st.integers(0, len(NAMES) - 1),
        st.sampled_from((0.0, -0.0, 1e3, -800.0, 1e200, 1e-110, math.nan)),
    ), max_size=3),
)


def _outcome(call):
    try:
        return call()
    except EvalDomainError as err:
        return err


def _check_stacked(stacked, rows):
    """``stacked`` (a result or error) against the scalar results ``rows``,
    computed in order up to the first error."""
    if isinstance(rows[-1], EvalDomainError):
        assert isinstance(stacked, EvalDomainError), stacked
        assert (str(stacked), stacked.fragment) == (str(rows[-1]),
                                                    rows[-1].fragment)
        return
    assert not isinstance(stacked, EvalDomainError), stacked
    if isinstance(rows[0], float):
        assert stacked.tobytes() == np.array(rows).tobytes()
        return
    for field in ("value", "grad", "hess"):
        want = np.array([getattr(d, field) for d in rows])
        assert getattr(stacked, field).tobytes() == want.tobytes(), field


def _same_errors(got, want):
    """Two ``{row: error}`` dicts: the same rows, error types and messages."""
    assert sorted(got) == sorted(want)
    for i, err in want.items():
        assert type(got[i]) is type(err) and str(got[i]) == str(err)


def _scalar_rows(call, points):
    rows = []
    for x in points:
        rows.append(_outcome(lambda: call(x)))
        if isinstance(rows[-1], EvalDomainError):
            break
    return rows


@PROPERTY
@given(trees, stacks, actives)
@example(Div(Num(0.0), Var(0, "q1")), np.array([[1e-110, 0.5, 0.5, 0.5]]),
         None)
def test_stacked_kernels_match_scalar_kernels_row_by_row(tree, points, active):
    # bit for bit on every function: squares are x*x on both, and other
    # powers, exp, ln, tan, sin and cos go through the scalar kernel's own
    # Python operations entry by entry
    e = _expression(tree)
    _check_stacked(_outcome(lambda: evaluate_many(e, points)),
                   _scalar_rows(lambda x: evaluate(e, x), points))
    _check_stacked(_outcome(lambda: eval_dual2_many(e, points, active)),
                   _scalar_rows(lambda x: eval_dual2(e, x, active), points))


@settings(PROPERTY, max_examples=200)
@given(trees, stacks)
@example(Div(Var(0, "q1"), Num(3.0)),  # q1 * (1/3) rounds differently
         np.array([[0.261749948792537, 0.5, 0.5, 0.5]]))
@example(Pow(Var(0, "q1"), 1.0), np.array([[-0.0, 0.5, 0.5, 0.5]]))
def test_the_dual_value_has_the_bits_of_evaluate(tree, points):
    # a quotient's value is num / den and a power 1's is its base, so the
    # value of eval_dual2 is evaluate's wherever both succeed, on the
    # scalar kernels and on the stacked ones
    e = _expression(tree)
    duals, failed = eval_dual2_rows(e, points)
    values = _outcome(lambda: evaluate_many(e, points))
    for i, x in enumerate(points):
        want = _outcome(lambda: evaluate(e, x))
        if i in failed or isinstance(want, EvalDomainError):
            continue
        assert _bits(eval_dual2(e, x).value) == _bits(want)
        assert _bits(duals.value[i]) == _bits(want)
        if not isinstance(values, EvalDomainError):
            assert _bits(values[i]) == _bits(want)


@pytest.mark.parametrize("source, x", [("0.0/v1", 1e-110),
                                       ("0*sqrt(v1)", 1e-300)])
def test_stacked_kernels_mark_a_division_by_an_underflowed_power(source, x):
    # the Hessian divides by v1^3 (or v1*sqrt(v1)), which underflows to 0:
    # the scalar kernel raises there, though a factor of 0 drops the term
    e = parse(source, ["v1"])
    with pytest.raises(EvalDomainError) as one:
        eval_dual2(e, [x])
    with pytest.raises(EvalDomainError) as many:
        eval_dual2_many(e, [[0.5], [x]])
    assert str(many.value) == str(one.value)
    assert evaluate_many(e, [[0.5], [x]]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "source, x, fragment",
    [
        ("v1^400", 1e10, "v1^400"),
        ("exp(v1)", 1e3, "exp(v1)"),
        ("v1*v1*v1", 1e200, "v1*v1"),
        ("v1^2", 1e200, "v1^2"),
        ("v1^2*0", 1e200, "v1^2"),
        ("ln(v1)", -1.0, "ln(v1)"),
        ("1/v1", 0.0, "1/v1"),
        ("v1", math.nan, "v1"),
    ],
)
def test_stacked_kernels_raise_the_lowest_failing_row(source, x, fragment):
    e = parse(source, ["v1"])
    rows = [[0.5], [x], [2.0], [x]]
    for call in (evaluate_many, eval_dual2_many):
        with pytest.raises(EvalDomainError) as err:
            call(e, rows)
        assert err.value.fragment == fragment
        with pytest.raises(EvalDomainError) as one:
            (evaluate if call is evaluate_many else eval_dual2)(e, [x])
        assert str(err.value) == str(one.value)
    assert evaluate_many(e, [[0.5], [2.0]]).tolist() == [
        evaluate(e, [0.5]), evaluate(e, [2.0])]
    # every failing row files its own error and is NaN; the others stand
    d, failed = expr.eval_dual2_rows(e, rows)
    assert sorted(failed) == [1, 3] and np.isnan(d.value[[1, 3]]).all()
    assert {str(err) for err in failed.values()} == {str(one.value)}
    for i in (0, 2):
        want = eval_dual2(e, rows[i])
        for field in ("value", "grad", "hess"):
            got = getattr(d, field)[i]
            assert got.tobytes() == np.asarray(getattr(want, field)).tobytes()


_TINY = 2.2250738585072014e-308  # the smallest normal double
# log-uniform magnitudes up to 1e±160, whose squares overflow or turn
# subnormal, with signed zeros and subnormals
square_inputs = st.one_of(
    st.builds(lambda sign, e: sign * 10.0 ** e,
              st.sampled_from((1.0, -1.0)), st.floats(-160.0, 160.0)),
    st.sampled_from((0.0, -0.0)),
    st.floats(-_TINY, _TINY, exclude_min=True, exclude_max=True),
)


@PROPERTY
@given(st.lists(square_inputs, min_size=1, max_size=20))
# Python's x ** 2 (libm's pow) and x*x differ in the last bit on the first two
@example([-4851.194350792479, 1.2547456608010745e-90, -0.0, 5e-324, 1e160])
def test_squares_are_bit_exact_on_every_path(xs):
    # x^2 is x*x, one correctly rounded multiplication, on the scalar and
    # the stacked kernels alike; x^3 and 1/x^2 take it as a factor
    square = parse("q1^2", ["q1"])
    for x in xs:
        d = _outcome(lambda: eval_dual2(square, [x]))
        assert isinstance(d, EvalDomainError) is not math.isfinite(x * x)
        if not isinstance(d, EvalDomainError):
            assert _bits(d.value) == _bits(x * x)
    rows = [[x] for x in xs]
    for source in ("q1^2", "q1^3", "1/q1^2"):
        e = parse(source, ["q1"])
        _check_stacked(_outcome(lambda: evaluate_many(e, rows)),
                       _scalar_rows(lambda x: evaluate(e, x), rows))
        duals, failed = eval_dual2_rows(e, rows)
        want = {}
        for i, x in enumerate(rows):
            one = _outcome(lambda: eval_dual2(e, x))
            if isinstance(one, EvalDomainError):
                want[i] = one
            else:
                for field in ("value", "grad", "hess"):
                    assert getattr(duals, field)[i].tobytes() == np.asarray(
                        getattr(one, field)).tobytes(), field
        _same_errors(failed, want)


def test_stacked_kernels_take_any_number_of_rows():
    e = parse(SOURCE, NAMES)
    d = eval_dual2_many(e, np.empty((0, 4)), (2, 3))
    assert (d.value.shape, d.grad.shape, d.hess.shape) == ((0,), (0, 2),
                                                           (0, 2, 2))
    assert evaluate_many(e, np.empty((0, 4))).shape == (0,)
    d = eval_dual2_many(e, [POINT], ())
    assert (d.grad.shape, d.hess.shape) == ((1, 0), (1, 0, 0))
    assert d.value[0] == evaluate(e, POINT)


# --------------------------------------------------------------------------
# one compiled stacked kernel serves every narrower request
# --------------------------------------------------------------------------

def _served(e, key):
    """Whether ``key``'s stacked evaluations run on another key's kernel."""
    return e._kernels[expr._STACKED, key][1] is not None


def _wide_and_narrow(draw):
    # a wide active tuple in any order, and a proper sub-tuple of it in the
    # same slot order (possibly empty)
    perm, m, keep = draw
    wide = tuple(perm[:m])
    narrow = tuple(a for a, k in zip(wide, keep) if k)
    return wide, narrow[:m - 1]


wide_and_narrow = st.tuples(
    st.permutations(range(len(NAMES))), st.integers(1, len(NAMES)),
    st.lists(st.booleans(), min_size=len(NAMES), max_size=len(NAMES)),
).map(_wide_and_narrow)
random_trees = st.integers(0, 2**32 - 1).map(
    lambda seed: helpers.random_tree(np.random.default_rng(seed), NAMES, 4))
# zeros of either sign, negative entries (domain guards) and entries at the
# 1e308 scale (overflow), besides the random rows
extreme_stacks = st.builds(
    _stack,
    st.integers(0, 2**32 - 1),
    st.sampled_from(((-3.0, 3.0), (0.1, 3.0))),
    st.integers(1, 30),
    st.lists(st.tuples(
        st.integers(0, 29), st.integers(0, len(NAMES) - 1),
        st.sampled_from((0.0, -0.0, -1.0, -2.5, 1e308, -1e308, 1.7e308,
                         5e307, 1e-308, 5e-324, math.nan)),
    ), max_size=4),
)


@settings(PROPERTY, max_examples=200)
@given(random_trees, extreme_stacks, wide_and_narrow)
# a Hessian whose (q1, v1) entry differs from its (v1, q1) entry in the
# last bit: a served sub-tuple must take its entries, not their transposes
@example(helpers.random_tree(np.random.default_rng(4), NAMES, 4),
         np.random.default_rng(0).uniform(0.1, 3.0, (10, len(NAMES))),
         ((0, 1, 2, 3), (0, 2)))
def test_a_wide_stacked_kernel_serves_every_narrower_request(
        tree, points, wide_and_narrow):
    # a sub-tuple and the value alone, served by a wide kernel, give what a
    # fresh expression gives on its own narrow kernels, NaN rows included
    wide, narrow = wide_and_narrow
    e = _expression(tree)
    eval_dual2_rows(e, points[:1], wide)

    (got, got_failed), (want, want_failed) = (
        eval_dual2_rows(x, points, narrow) for x in (e, _expression(tree)))
    for field in ("value", "grad", "hess"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    _same_errors(got_failed, want_failed)

    fresh = _expression(tree)
    (got, got_failed), (want, want_failed) = (
        expr._run_many(x, points, expr._VALUE_ONLY) for x in (e, fresh))
    assert got.tobytes() == want.tobytes()
    _same_errors(got_failed, want_failed)
    assert _served(e, narrow) and _served(e, expr._VALUE_ONLY)
    assert not _served(fresh, expr._VALUE_ONLY)

    got, want = (_outcome(lambda: evaluate_many(x, points))
                 for x in (e, _expression(tree)))
    if isinstance(want, EvalDomainError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.tobytes() == want.tobytes()


def test_only_a_kernel_holding_the_slots_in_order_serves_them(monkeypatch):
    compiles = helpers.record_kernel_compiles(monkeypatch)
    e = parse(SOURCE, NAMES)
    eval_dual2_many(e, [POINT], (2, 3))
    for key in ((2,), (3,), (2, 3), ()):
        eval_dual2_many(e, [POINT], key)
    evaluate_many(e, [POINT])
    eval_dual2_many(e, [POINT], (3, 2))  # the other slot order
    eval_dual2_many(e, [POINT], (0, 2))  # a slot the kernel lacks
    assert [(kind, active) for kind, active, _ in compiles] == [
        ("<legclair stacked kernel>", (2, 3)),
        ("<legclair stacked kernel>", (3, 2)),
        ("<legclair stacked kernel>", (0, 2)),
    ]
    # a key's lookup is paid once: its kernel and columns stay cached
    assert e._kernels[expr._STACKED, (3,)][0] is e._kernels[
        expr._STACKED, (2, 3)][0]
    assert e._kernels[expr._STACKED, (3,)][1].tolist() == [0, 2, 6]


# --------------------------------------------------------------------------
# derivatives against sympy
# --------------------------------------------------------------------------

_SYMBOLS = sympy.symbols(NAMES)
_SYMPY_CALLS = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan,
                "exp": sympy.exp, "ln": sympy.log, "sqrt": sympy.sqrt}


def _to_sympy(node):
    if isinstance(node, Num):
        return sympy.Float(node.value, 30)
    if isinstance(node, Var):
        return _SYMBOLS[node.index]
    if isinstance(node, Neg):
        return -_to_sympy(node.arg)
    if isinstance(node, Call):
        return _SYMPY_CALLS[node.func](_to_sympy(node.arg))
    if isinstance(node, Pow):
        b = node.exponent
        expo = sympy.Integer(int(b)) if b == int(b) else sympy.Float(b, 30)
        return sympy.Pow(_to_sympy(node.base), expo)
    left, right = _to_sympy(node.left), _to_sympy(node.right)
    return {Add: left + right, Sub: left - right, Mul: left * right,
            Div: left / right}[type(node)]


# smooth building blocks on a box where every argument stays well inside
# its domain: points in [0.5, 1.5], constants in [0.5, 2]
smooth_leaves = st.one_of(
    st.builds(Num, st.floats(0.5, 2.0)),
    st.integers(0, len(NAMES) - 1).map(lambda i: Var(i, NAMES[i])),
)


def _smooth(kids):
    return st.one_of(
        st.builds(Call, st.sampled_from(("sin", "cos", "exp", "sqrt")), kids),
        st.builds(Call, st.just("ln"),
                  st.builds(Add, kids, st.builds(Num, st.just(2.0)))),
        st.builds(Pow, kids, st.sampled_from((2.0, 3.0, -1.0, 0.5, 1.5))),
        *(st.builds(ctor, kids, kids) for ctor in (Add, Sub, Mul)),
    )


smooth_trees = st.recursive(smooth_leaves, _smooth, max_leaves=6)
smooth_points = st.lists(st.floats(0.5, 1.5), min_size=len(NAMES),
                         max_size=len(NAMES))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(smooth_trees, smooth_points)
def test_derivatives_match_sympy(tree, point):
    e = _expression(tree)
    try:
        d = eval_dual2(e, point)
    except EvalDomainError:
        assume(False)  # e.g. a power of a non-positive subexpression
    many = eval_dual2_many(e, [point])
    sym = _to_sympy(tree)
    at = dict(zip(_SYMBOLS, point))

    def exact(expr):
        return complex(expr.evalf(30, subs=at))

    want_grad = [exact(sympy.diff(sym, x)) for x in _SYMBOLS]
    want_hess = [[exact(sympy.diff(sym, x, y)) for y in _SYMBOLS]
                 for x in _SYMBOLS]
    for got, want in ((d.grad, want_grad), (d.hess, want_hess),
                      (many.grad[0], want_grad), (many.hess[0], want_hess)):
        want = np.array(want)
        assert np.all(want.imag == 0.0)
        assert np.allclose(got, want.real, rtol=1e-9, atol=1e-9), (got, want)


# --------------------------------------------------------------------------
# generated sources
# --------------------------------------------------------------------------

# sha256 of the sources below, joined by NUL bytes in generation order: any
# change to an operation, its order, a local's name or a constant's slot in
# a kernel the library compiles moves it
CORPUS_KERNEL_SOURCES_SHA256 = (
    "6d18c5d19d971847554100cfa42ab55d5e4c446b7b710ee3426a1f81c9f6cf9d")


def _compile_corpus_kernels(system, v1):
    """Compile L's scalar, checked and stacked kernels over the active
    tuples the library uses (all slots, v slots, v1 slots, value-only)."""
    n, root = system.n, system.lagrangian.root
    for active in (tuple(range(2 * n)), tuple(range(n, 2 * n)), v1, None):
        expr._compile(root, 2 * n, active)
        expr._compile(root, 2 * n, active, checked=True)
        expr._compile_many(root, 2 * n, active)


def test_corpus_kernel_sources_are_frozen(monkeypatch):
    import corpus
    from legclair.clairaut import MixedHamiltonian

    systems = [corpus.make_system(name) for name in sorted(corpus.SYSTEMS)]
    v1_slots = [MixedHamiltonian.from_system(s).solver._v1_active
                for s in systems]
    sources = []

    def recording(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(expr, "compile", recording, raising=False)
    for system, v1 in zip(systems, v1_slots):
        _compile_corpus_kernels(system, v1)
    assert len(sources) == 6 * 4 * 3
    digest = hashlib.sha256("\0".join(sources).encode()).hexdigest()
    assert digest == CORPUS_KERNEL_SOURCES_SHA256


def test_no_kernel_takes_a_square_through_pow(monkeypatch):
    # every kernel the library compiles for the corpus (scalar, checked,
    # stacked and both stage kernels, the Hamiltonian one with its envelope
    # Newton) squares by x*x, a gauge's squares included
    import corpus
    from legclair.clairaut import MixedHamiltonian
    from legclair.dynamics import GaugeChoice, el_rhs, ham_rhs

    compiles = helpers.record_kernel_compiles(monkeypatch)
    for name in sorted(corpus.SYSTEMS):
        ham = MixedHamiltonian.from_system(corpus.make_system(name))
        system, partition, n = ham.system, ham.partition, ham.n
        _compile_corpus_kernels(system, ham.solver._v1_active)
        gauge = GaugeChoice.from_sources(n, ["0.25*q1^2"] * (n - ham.k))
        q = system.center()[:n]
        el_rhs(system, partition, gauge, q, [0.5] * ham.k)
        for include_r in (True, False):
            ham_rhs(ham, gauge, q, [0.5] * n, include_r)
    kinds = {kind for kind, _, _ in compiles}
    assert kinds == {"<legclair kernel>", "<legclair stacked kernel>",
                     "<legclair stage kernel>"}
    for kind in kinds:
        sources = [src for k, _, src in compiles if k == kind]
        assert any(re.search(r"\b(x\d+) \* \1\b", src) for src in sources)
        for src in sources:
            assert not re.search(r"\*\* 2(?![\w.])", src), src
            assert "_each(_ipow" not in src, src


# sha256, joined as above, of the sources of 60 random trees
# (helpers.random_tree at seeds 0 to 59, depth 4), each compiled scalar,
# checked and stacked over the four active tuples of _compile_corpus_kernels
RANDOM_TREE_SOURCES_SHA256 = (
    "328db014835c05d2296537282b0c0305e630b111be8bcc4579fc0a0a70081d04")
# and of the kernels that both flows compile for each corpus system under
# each gauge of FLOW_GAUGES (stage and RK4 kernels, the Hamiltonian stage
# with its envelope Newton, and the scalar and stacked kernels of L and the
# gauge), in compile order
CORPUS_FLOW_SOURCES_SHA256 = (
    "9c28ec7adc6f8a972aea8f104cafa2b1b0898b220f59ee023bf2a2619938666b")
FLOW_GAUGES = ("0.25*q1^2", "1.5 - 2*3*sin(q1) + exp(-1)*q1")


def test_random_tree_kernel_sources_are_frozen(monkeypatch):
    compiles = helpers.record_kernel_compiles(monkeypatch)
    for seed in range(60):
        root = helpers.random_tree(np.random.default_rng(seed), NAMES, 4)
        for active in ((0, 1, 2, 3), (2, 3), (2,), None):
            expr._compile(root, len(NAMES), active)
            expr._compile(root, len(NAMES), active, checked=True)
            expr._compile_many(root, len(NAMES), active)
    assert len(compiles) == 60 * 4 * 3
    sources = "\0".join(src for _, _, src in compiles)
    assert hashlib.sha256(sources.encode()).hexdigest() == (
        RANDOM_TREE_SOURCES_SHA256)


# and of trees with non-finite constants (1e400*q1*v1^2 and the like,
# built as nodes since parse rejects them), compiled as the random trees
# are: each lit of a non-finite operand makes a _kN constant, so this pins
# the order in which _Codegen.op formats around a fold
NON_FINITE_SOURCES_SHA256 = (
    "531ea1551f6f5f7178af7b0e4e9cf2f76660e8ccdf263898b13351bdba88b8be")


def test_non_finite_constant_kernel_sources_are_frozen(monkeypatch):
    q1, q2, v1, v2 = (Var(i, name) for i, name in enumerate(NAMES))
    inf, nan = Num(math.inf), Num(math.nan)
    trees = (
        Mul(Mul(inf, q1), Pow(v1, 2.0)),
        # 1/inf folds to 0.0 and inf - inf does not fold
        Add(Mul(Div(Num(1.0), inf), v1), Mul(Mul(Sub(inf, inf), q2), v2)),
        Add(Sub(Mul(Neg(inf), Pow(v1, 2.0)), Mul(Call("exp", inf), q1)),
            Div(Mul(Call("sqrt", inf), Pow(v2, 3.0)), q1)),
        Add(Mul(nan, Mul(v1, v2)), Pow(Add(q1, Num(-math.inf)), 0.5)),
    )
    compiles = helpers.record_kernel_compiles(monkeypatch)
    for root in trees:
        for active in ((0, 1, 2, 3), (2, 3), (2,), None):
            expr._compile(root, len(NAMES), active)
            expr._compile(root, len(NAMES), active, checked=True)
            expr._compile_many(root, len(NAMES), active)
    assert len(compiles) == 4 * 4 * 3
    sources = "\0".join(src for _, _, src in compiles)
    assert "_k" in sources
    assert hashlib.sha256(sources.encode()).hexdigest() == (
        NON_FINITE_SOURCES_SHA256)


def test_corpus_flow_kernel_sources_are_frozen(monkeypatch):
    import corpus
    from legclair.clairaut import MixedHamiltonian
    from legclair.dynamics import GaugeChoice, integrate_el, integrate_ham

    compiles = helpers.record_kernel_compiles(monkeypatch)
    for name in sorted(corpus.SYSTEMS):
        ham = MixedHamiltonian.from_system(corpus.make_system(name))
        n, k = ham.n, ham.k
        q = ham.system.center()[:n]
        for source in FLOW_GAUGES:
            gauge = GaugeChoice.from_sources(n, [source] * (n - k))
            integrate_el(ham, gauge, q, [0.5] * k, (0.0, 0.02), 0.01)
            for include_r in (True, False):
                integrate_ham(ham, gauge, q, [0.5] * n, (0.0, 0.02), 0.01,
                              include_r=include_r)
    kinds = {kind for kind, _, _ in compiles}
    assert kinds == {"<legclair kernel>", "<legclair stacked kernel>",
                     "<legclair stage kernel>", "<legclair rk4 loop>"}
    sources = "\0".join(src for _, _, src in compiles)
    assert hashlib.sha256(sources.encode()).hexdigest() == (
        CORPUS_FLOW_SOURCES_SHA256)


def expanded_operations(src):
    """The operations of a generated source's s and t locals (the unpacks
    of the evaluation ``e`` aside) and its domain guards' conditions, each
    written out in terms of the kernel's arguments, per top-level function;
    a function reads the names it does not assign from the one before it
    (the stage unpacks ``_ev``'s)."""
    names, out = {}, []

    def expand(text):
        return re.sub(r"\b[st]\d+\b", lambda m: f"({names[m.group()]})",
                      text)

    for function in re.split(r"^(?=def )", src, flags=re.M):
        names = dict(names)
        for name, text, guard in re.findall(
                r"^\s*(?:([st]\d+) = (.+)|if (.+): raise _E\()",
                function, re.M):
            if guard:
                out.append("guard " + expand(guard))
            else:
                names[name] = expand(text)
                out.append(names[name])
    return out


def test_no_operation_of_l_is_emitted_twice_in_a_hamiltonian_stage(
        monkeypatch):
    # the stage reads L's full triple at V from its envelope Newton's
    # accepted evaluation and emits only the operations that one lacks,
    # and no domain guard that one passed; the corpus systems, and one
    # whose sqrt, quotient and ln carry guards
    import corpus
    from legclair.clairaut import MixedHamiltonian
    from legclair.dynamics import GaugeChoice, integrate_ham
    from legclair.partition import LagrangianSystem

    systems = [(name, corpus.make_system(name))
               for name in sorted(corpus.SYSTEMS)]
    systems.append(("guarded", LagrangianSystem.from_source(
        2, "sqrt(1+v1^2) + v1^2/(1+q2^2) + ln(2+q2^2)*v2")))
    compiles = helpers.record_kernel_compiles(monkeypatch)
    flows = set()
    for name, system in systems:
        ham = MixedHamiltonian.from_system(system)
        n, k = ham.n, ham.k
        for source in FLOW_GAUGES:
            gauge = GaugeChoice.from_sources(n, [source] * (n - k))
            flows.add((name, gauge))  # a regular system's gauge is empty
            integrate_ham(ham, gauge, ham.system.center()[:n], [0.5] * n,
                          (0.0, 0.02), 0.01)
    stages = [src for kind, _, src in compiles
              if kind == "<legclair stage kernel>"]
    assert len(stages) == len(flows)
    assert all(src.startswith("def _ev(") for src in stages)
    for src in stages:
        ops = expanded_operations(src)
        assert ops
        assert len(set(ops)) == len(ops), sorted(
            op for op in ops if ops.count(op) > 1)
    # the last stage is the guarded system's: each guard once, in _ev
    assert sum(op.startswith("guard ") for op in ops) == 3


def test_generating_a_kernel_calls_no_eval(monkeypatch):
    # operations on known operands fold by calling the operation on the
    # floats: every kernel kind generates with eval() raising
    import corpus
    from legclair.clairaut import MixedHamiltonian
    from legclair.dynamics import GaugeChoice, integrate_el, integrate_ham

    def no_eval(*args):
        raise AssertionError(f"eval{args[:1]!r} while generating a kernel")

    monkeypatch.setattr(expr, "eval", no_eval, raising=False)
    compiles = helpers.record_kernel_compiles(monkeypatch)
    # constants to fold under every template, and guards decided on them
    e = parse("2*3*v1^2 + sin(0.5)*cos(2)*q1*v2 - exp(-1)*q2^2*v2^2/ln(3)"
              " + tan(0.25)^(-2)*sqrt(2)^2.5*v1 + 1/(1 - 1)*q1 + (-4)^0.5",
              NAMES)
    for active in ((0, 1, 2, 3), (2, 3), (3,), None):
        expr._compile(e.root, len(NAMES), active)
        expr._compile(e.root, len(NAMES), active, checked=True)
        expr._compile_many(e.root, len(NAMES), active)
    ham = MixedHamiltonian.from_system(corpus.make_system("deg3"))
    gauge = GaugeChoice.from_sources(3, [FLOW_GAUGES[1]])
    q = ham.system.center()[:3]
    integrate_el(ham, gauge, q, [0.5, 0.5], (0.0, 0.02), 0.01)
    integrate_ham(ham, gauge, q, [0.5] * 3, (0.0, 0.02), 0.01)
    assert {kind for kind, _, _ in compiles} == {
        "<legclair kernel>", "<legclair stacked kernel>",
        "<legclair stage kernel>", "<legclair rk4 loop>"}
    assert "sin(0.5)" not in compiles[0][2]  # folded
