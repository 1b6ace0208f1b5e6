import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import root

import corpus
import helpers
from legclair import clairaut, dynamics, expr
from legclair.clairaut import (
    EnvelopeSolver,
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    general_solution,
    generic_transform,
)
from legclair.expr import (
    EvalDomainError,
    Num,
    eval_dual2,
    evaluate,
    parse,
    to_source,
)
from legclair.partition import (
    W11_MARGIN,
    HessianPartition,
    LagrangianSystem,
    RankNotConstantError,
    numerical_rank,
    partition_indices,
)


def make_ham(name, **kw):
    return MixedHamiltonian.from_system(corpus.make_system(name), **kw)


def classical_legendre(system, q, p, x0=None):
    """Independent classical transform: scipy's hybrid solver on p = dL/dv,
    then the textbook formula p*v - L.  Shares no solver code with the
    envelope machinery."""
    n = system.n

    def residual(v):
        x = system.point(q, v)
        return np.asarray(p, float) - eval_dual2(
            system.lagrangian, x, range(n, 2 * n)
        ).grad

    sol = root(residual, x0 if x0 is not None else np.zeros(n), tol=1e-13)
    assert sol.success, sol.message
    v = sol.x
    return float(np.asarray(p, float) @ v - evaluate(
        system.lagrangian, system.point(q, v)
    ))


# --------------------------------------------------------------------------
# general solution
# --------------------------------------------------------------------------

def test_general_solution_values():
    f = parse("0.5*x^2", ["x"])
    assert general_solution(f, [2.0], [3.0]) == 2.0 * 3.0 - 4.5
    assert general_solution(f, [2.0], [0.0]) == 0.0
    g = parse("0.5*(x1+x2)^2", ["x1", "x2"])
    assert general_solution(g, [1.0, 2.0], [1.0, 1.0]) == 1.0


def test_general_solution_is_the_identity_it_claims():
    rng = np.random.default_rng(2)
    f = parse("exp(x) + 0.5*x^2", ["x"])
    for _ in range(25):
        p = rng.uniform(-3, 3, size=1)
        c = rng.uniform(-1.5, 1.5, size=1)
        got = general_solution(f, p, c)
        assert got == float(p @ c - evaluate(f, c))


def test_general_solution_validates_shapes():
    f = parse("0.5*x^2", ["x"])
    with pytest.raises(ValueError):
        general_solution(f, [1.0, 2.0], [0.0])


# --------------------------------------------------------------------------
# envelope solver
# --------------------------------------------------------------------------

def test_solve_envelope_squared_sum():
    ham = make_ham("deg1")
    v1 = ham.solve_velocity([0.0, 0.0], [3.0], [1.0])
    assert_allclose(v1, [2.0], rtol=0, atol=1e-10)


def test_solve_envelope_coordinate_coupled():
    ham = make_ham("deg2")
    v1 = ham.solve_velocity([0.4, -1.0], [5.0], [0.3])
    assert_allclose(v1, [5.0], rtol=0, atol=1e-10)


def test_solve_envelope_regular_at_zero():
    ham = make_ham("osc")
    assert_allclose(ham.solve_velocity([1.0], [0.0], []), [0.0], atol=1e-12)


def test_solve_envelope_nonconvex_saddle():
    # L = v1*v2 has an indefinite Hessian; stationarity still inverts
    ham = make_ham("bilinear")
    v = ham.solve_velocity([0.0, 0.0], [3.0, -2.0], [])
    assert_allclose(v, [-2.0, 3.0], rtol=0, atol=1e-10)


def test_solve_envelope_residual_meets_tolerance():
    ham = make_ham("deg3")
    rng = np.random.default_rng(8)
    sys = ham.system
    n = sys.n
    for x in sys.sample(rng, 40):
        q = x[:n]
        p1 = rng.uniform(-2, 2, size=ham.k)
        c2 = x[n:][ham.partition.nonregular,]
        v1 = ham.solve_velocity(q, p1, c2)
        point = sys.point(q, ham.assemble_velocity(v1, c2))
        grad = eval_dual2(sys.lagrangian, point, ham.solver._v1_active).grad
        assert np.max(np.abs(p1 - grad)) <= ham.solver.newton_tol


def test_solver_guess_strategies_and_override():
    sys = corpus.make_system("osc")
    part = partition_indices(sys)
    center = EnvelopeSolver(sys, part)
    assert_allclose(center.default_guess(), [0.0])
    got = center.solve([0.0], [1.5], [], v1_guess=[40.0])
    assert_allclose(got, [1.5], atol=1e-10)


def test_unreachable_momentum_hits_singular_jacobian():
    # dL/dv1 = exp(v1) > 0 never reaches a negative momentum; the iterates
    # run off to -inf, where the 1x1 Hessian underflows to an exact zero
    sys = LagrangianSystem.from_source(1, "exp(v1)")
    ham = MixedHamiltonian.from_system(sys)
    with pytest.raises(SingularJacobianError):
        ham.solve_velocity([0.0], [-1.0], [])


def test_newton_diverges_on_iteration_exhaustion():
    # a triple root converges linearly (factor 2/3 per step); from a guess
    # of 1e12 fifty iterations are nowhere near enough, and the residual
    # history shows the monotone decrease
    sys = LagrangianSystem.from_source(1, "0.25*v1^4")
    ham = MixedHamiltonian.from_system(sys)
    with pytest.raises(NewtonDivergedError) as err:
        ham.solve_velocity([0.0], [0.0], [], v1_guess=[1e12])
    hist = err.value.residual_history
    assert len(hist) == ham.solver.max_iter
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_singular_jacobian_at_iterate():
    # W = 3 v1^2 vanishes at the default (center) initial guess
    sys = LagrangianSystem.from_source(1, "0.25*v1^4")
    ham = MixedHamiltonian.from_system(sys)
    with pytest.raises(SingularJacobianError):
        ham.solve_velocity([0.0], [0.5], [])


def test_solver_validates_shapes():
    ham = make_ham("deg1")
    with pytest.raises(ValueError):
        ham.solve_velocity([0.0, 0.0], [1.0, 2.0], [0.0])
    with pytest.raises(ValueError):
        ham.solve_velocity([0.0, 0.0], [1.0], [])


# --------------------------------------------------------------------------
# the envelope Newton loop against the loop that evaluates every iterate
# --------------------------------------------------------------------------

def outcome(solve, *args):
    try:
        return solve(*args)
    except (NewtonDivergedError, SingularJacobianError, EvalDomainError) as exc:
        return exc


def assert_same_outcome(solver, *args):
    got = outcome(solver.solve, *args)
    want = outcome(helpers.reference_newton, solver, *args)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        if isinstance(want, NewtonDivergedError):
            assert got.residual_history == want.residual_history
    else:
        assert np.array_equal(got, want)
    return got


def lane_evaluations(monkeypatch, solver):
    """A list that gains the v1 rows of the points at each stacked
    evaluation of L by the solver's lane Newton."""
    calls, columns = [], clairaut._columns

    def counting(e, p, key):
        calls.append(p[solver._v1_cols].tolist())
        return columns(e, p, key)

    monkeypatch.setattr(clairaut, "_columns", counting)
    return calls


def test_quadratic_cold_start_takes_two_evaluations(monkeypatch):
    # one evaluation at the guess and one at the Newton point, which is
    # exact for a quadratic and is accepted without a second evaluation
    ham = make_ham("deg3")
    calls = lane_evaluations(monkeypatch, ham.solver)
    v1 = ham.solve_velocity([0.1, 0.2, 0.3], [1.0, -0.5], [0.4])
    assert len(calls) == 2
    assert_allclose(v1, [0.7, -0.2], rtol=0, atol=1e-12)


def test_a_trial_whose_output_sum_overflows_passes_where_eval_dual2_returns(
        monkeypatch):
    # L = 1.6e308 + 2^1022*v1^2 with W11 = 2^1023: from the guess 0 the
    # Newton point p1 / W11 = 0.25 is exact, and there the value and dL/dv1
    # are finite but their sum overflows, with no node overflowing on the
    # way; the stacked kernel marks the trial, whose rerun on L's scalar
    # v1-active kernel returns, and it is accepted (the Hamiltonian stage's
    # _ev meets it in test_hamiltonian_stage_newton_ends_as_solve)
    sys = LagrangianSystem.from_source(1, "1.6e308 + 2^1022*v1^2",
                                       {"v1": (-0.5, 0.5)})
    solver = MixedHamiltonian.from_system(sys).solver
    calls = lane_evaluations(monkeypatch, solver)
    reruns, scalar = [], expr._kernel

    def rerun(e, key):
        reruns.append(key)
        return scalar(e, key)

    monkeypatch.setattr(expr, "_kernel", rerun)
    assert solver.solve([0.0], [2.0 ** 1021], []).tolist() == [0.25]
    assert calls == [[[0.0]], [[0.25]]]
    assert reruns == [(1,)]


def test_residual_history_matches_the_reference_loop():
    # linear convergence exhausts the iterations; a zero Hessian at the
    # guess is singular; a reachable momentum converges
    sys = LagrangianSystem.from_source(1, "0.25*v1^4")
    solver = MixedHamiltonian.from_system(sys).solver
    err = assert_same_outcome(solver, [0.0], [0.0], [], [1e12])
    assert isinstance(err, NewtonDivergedError)
    assert len(err.residual_history) == solver.max_iter
    assert isinstance(
        assert_same_outcome(solver, [0.0], [0.5], []), SingularJacobianError
    )
    assert_same_outcome(solver, [0.0], [0.5], [], [1.0])


def test_overflowing_trial_is_rejected_and_halved():
    # from the guess -10 the first Newton point is near v1 = 22,000, where
    # exp(v1) overflows; halving the step reaches the root v1 = 0
    sys = LagrangianSystem.from_source(1, "exp(v1)", {"v1": (-12.0, -8.0)})
    solver = MixedHamiltonian.from_system(sys).solver
    v1 = assert_same_outcome(solver, [0.0], [1.0], [])
    assert abs(v1[0]) <= 1e-12
    # an overflow at the starting point is not a trial, and still raises
    with pytest.raises(EvalDomainError, match="overflow"):
        solver.solve([0.0], [1.0], [], v1_guess=[800.0])


def test_an_overflowing_newton_step_fails_without_a_warning():
    # p1 = 1e308 from v1 = -10: the step r / w = 1e308 / exp(-10) overflows
    # to inf, which no halving makes finite; one point and a stack of two
    # both end in the evaluation's error, and numpy prints nothing
    sys = LagrangianSystem.from_source(1, "exp(v1)", {"v1": (-12.0, -8.0)})
    solver = MixedHamiltonian.from_system(sys).solver
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = assert_same_outcome(solver, [0.0], [1e308], [])
        _, failed = solver.solve_lanes([[0.0], [0.0]], [[1e308], [0.5]],
                                       np.zeros((2, 0)))
    assert isinstance(err, EvalDomainError)
    assert list(failed) == [0] and str(failed[0]) == str(err)
    assert [str(w.message) for w in caught] == []


def test_nan_momentum_ends_in_a_domain_error():
    # the Newton step from a NaN residual is NaN, and evaluating the trial
    # point raises before any iterate is accepted
    ham = make_ham("deg3")
    err = assert_same_outcome(
        ham.solver, [0.0, 0.0, 0.0], [np.nan, 0.0], ham.default_probe()
    )
    assert isinstance(err, EvalDomainError)


# name -> (n, source); rank and inertia are constant on every box, and W11
# is bounded away from zero except for "flat", whose W11 = 3 v1^2 vanishes
# at v1 = 0 and converges only linearly towards p1 = 0, and "exp", which
# cannot reach p1 <= 0 and runs into a vanishing W11 = exp(v1) instead
NEWTON_SYSTEMS = {
    **{name: corpus.SYSTEMS[name][:2] for name in corpus.SYSTEMS},
    "quartic": (1, "0.5*(1+q1^2)*v1^2 + 0.1*v1^4 + q1*v1"),
    "exp": (2, "exp(v1) + 0.5*v2^2 + q1*v2"),
    "flat": (2, "0.25*v1^4 + 0.5*v2^2 + q1*v2"),
    "singular_quartic": (2, "0.5*(v1+v2)^2 + 0.1*(v1+v2)^4 + q2*v1"),
}


@st.composite
def newton_cases(draw):
    name = draw(st.sampled_from(sorted(NEWTON_SYSTEMS)))
    n, source = NEWTON_SYSTEMS[name]
    lo = draw(st.lists(st.floats(-3.0, 1.0), min_size=2 * n, max_size=2 * n))
    width = draw(
        st.lists(st.floats(0.5, 4.0), min_size=2 * n, max_size=2 * n)
    )
    frac = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n, max_size=2 * n))
    momentum = draw(st.sampled_from(["reachable", "free", "zero"]))
    free = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    shift = draw(st.none() | st.floats(-1.0, 1.0))
    return name, source, n, lo, width, frac, momentum, free, shift


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(newton_cases())
def test_newton_converges_or_raises_a_solver_error_on_random_boxes(case):
    name, source, n, lo, width, frac, momentum, free, shift = case
    lo = np.array(lo)
    hi = lo + np.array(width)
    names = [f"q{i + 1}" for i in range(n)] + [f"v{i + 1}" for i in range(n)]
    system = LagrangianSystem.from_source(
        n, source, {name: (a, b) for name, a, b in zip(names, lo, hi)}
    )
    ham = MixedHamiltonian.from_system(system)
    solver = ham.solver
    reg, nonreg = list(ham.partition.regular), list(ham.partition.nonregular)
    x = lo + np.array(frac) * (hi - lo)
    q, v = x[:n], x[n:]
    if momentum == "reachable":
        p1 = eval_dual2(system.lagrangian, x, solver._v1_active).grad
    else:
        p1 = np.array(free)[reg] if momentum == "free" else np.zeros(ham.k)
    guess = None if shift is None else v[reg] + shift
    got = assert_same_outcome(solver, q, p1, v[nonreg], guess)
    if isinstance(got, Exception):
        assert isinstance(got, (NewtonDivergedError, SingularJacobianError))
    else:
        at = system.point(q, ham.assemble_velocity(got, v[nonreg]))
        grad = eval_dual2(system.lagrangian, at, solver._v1_active).grad
        assert np.max(np.abs(p1 - grad)) <= solver.newton_tol


# L over n = k + 1 degrees of freedom, v1..vk regular and v(k+1) set by c2,
# with q-dependent coefficients A_i, B, C from the gauge grammar:
#   regular   0.5*(1 + A_i^2)*v_i^2 per slot and 0.3*v_i*v_j per pair,
#   rank_one  0.5*(1 + A_1^2)*(v1 + ... + vk)^2, singular for k > 1,
#   linear    no quadratic part, so W11 is the extra term's,
# plus B*v1 + C*v1*v(k+1) and an extra term in v1 that needs iterations.
# Constant A_i make W11 known at generation unless the extra term is in.
NEWTON_SHAPES = ("regular", "rank_one", "linear")
NEWTON_EXTRAS = ("", " + exp(v1)", " + 0.25*v1^4")


def drawn_lagrangian(k, shape, extra, a, b, c):
    v = [f"v{i + 1}" for i in range(k)]
    if shape == "regular":
        terms = [f"0.5*(1 + ({ai})^2)*{vi}^2" for ai, vi in zip(a, v)]
        terms += [f"0.3*{x}*{y}" for i, x in enumerate(v) for y in v[i + 1:]]
    elif shape == "rank_one":
        terms = [f"0.5*(1 + ({a[0]})^2)*({' + '.join(v)})^2"]
    else:
        terms = []
    terms += [f"({b})*v1", f"({c})*v1*v{k + 1}"]
    return " + ".join(terms) + extra


constant_trees = st.builds(Num, st.floats(-2.0, 2.0))


@st.composite
def drawn_newton_cases(draw):
    k = draw(st.integers(1, 3))
    constant = draw(st.booleans())
    a = draw(st.lists(constant_trees if constant else helpers.gauge_trees,
                      min_size=k, max_size=k))
    b, c = draw(helpers.gauge_trees), draw(helpers.gauge_trees)
    source = drawn_lagrangian(k, draw(st.sampled_from(NEWTON_SHAPES)),
                              draw(st.sampled_from(NEWTON_EXTRAS)),
                              *(list(map(to_source, a)),
                                to_source(b), to_source(c)))
    q = draw(st.lists(st.floats(-3.0, 3.0), min_size=k + 1, max_size=k + 1))
    c2 = draw(st.floats(-2.0, 2.0))
    v = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k))
    # momenta: reachable at v, drawn, or with a first entry so large that
    # the first step is not finite
    momentum = draw(st.sampled_from(["reachable", "free", "huge"]))
    p1 = draw(st.lists(st.floats(-4.0, 4.0), min_size=k, max_size=k))
    if momentum == "huge":
        p1[0] = 1e308
    # the default guess, or warm starts near v or far away
    guess = draw(st.none()
                 | st.lists(st.floats(-3.0, 3.0) | st.sampled_from(
                     [-10.0, 30.0, 1e12]), min_size=k, max_size=k))
    limits = draw(st.sampled_from([(50, 20), (3, 20), (50, 1)]))
    return source, k, q, c2, v, momentum == "reachable", p1, guess, limits


NEWTON_CASE = settings(derandomize=True, database=None, max_examples=300,
                       deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


@NEWTON_CASE
@given(drawn_newton_cases())
# exp(v1) from -10 towards p1 = 1: the first trial, near v1 = 22,000,
# overflows and is halved
@example(("exp(v1)", 1, [0.0, 0.0], 0.0, [0.0], False, [1.0], [-10.0],
          (50, 20)))
# the same from p1 = 1e308: the first trial is inf, which raises
@example(("exp(v1)", 1, [0.0, 0.0], 0.0, [0.0], False, [1e308], [-10.0],
          (50, 20)))
# a triple root converges linearly: the iteration cap
@example(("0.25*v1^4", 1, [0.0, 0.0], 0.0, [0.0], False, [0.0], [1e12],
          (50, 20)))
# W11 = 0 known at generation; W11 = 3*v1^2 = 0 reached at the guess
@example(("(q1)*v1", 1, [0.5, 0.0], 0.0, [0.0], False, [1.0], None,
          (50, 20)))
@example(("0.25*v1^4 + (q1)*v1", 1, [0.5, 0.0], 0.0, [0.0], False, [1.0],
          None, (50, 20)))
# a 2x2 rank-one block known at generation, and one that varies with q1
@example(("0.5*(1 + (0.5)^2)*(v1 + v2)^2", 2, [0.5, 0.0, 0.0], 0.0,
          [0.0, 0.0], False, [1.0, 0.0], None, (50, 20)))
@example(("0.5*(1 + (q1)^2)*(v1 + v2)^2", 2, [0.5, 0.0, 0.0], 0.0,
          [0.0, 0.0], False, [1.0, 0.0], None, (50, 20)))
# a NaN second momentum: the residual norm is NaN, never within tol, and
# the NaN step's trial raises
@example(("0.5*(v1^2 + v2^2)", 2, [0.0, 0.0, 0.0], 0.0, [0.0, 0.0], False,
          [0.0, math.nan], None, (50, 20)))
# every output is finite, but their sum overflows, and q1*q1 overflowed on
# the way: eval_dual2's checked rerun raises there, and so must the Newton
@example(("1/(q1*q1) + 0.5*(v1^2 + v2^2) + 0.9e308*(v1 + v2)", 2,
          [1e200, 0.0, 0.0], 0.0, [0.0, 0.0], False, [1.0, 1.0], None,
          (50, 20)))
def test_generated_newton_matches_the_reference_loop(case):
    # the lane Newton of solve against reference_newton on drawn
    # Lagrangians with k = 1, 2 and 3: the same bits, or the same error
    # type, text and residual history
    source, k, q, c2, v, reachable, p1, guess, (max_iter, backtracks) = case
    n = k + 1
    system = LagrangianSystem.from_source(n, source)
    partition = HessianPartition(k, tuple(range(k)), (k,), 1e-9, 0)
    solver = EnvelopeSolver(system, partition, max_iter=max_iter,
                            max_backtracks=backtracks)
    if reachable:
        try:
            p1 = eval_dual2(system.lagrangian, q + v + [c2],
                            solver._v1_active).grad
        except EvalDomainError:
            pass
    assert_same_outcome(solver, q, p1, [c2], guess)


def stage_outcome(stage, y):
    """The V a Hamiltonian stage keeps after ``stage(y, False)`` (its warm
    start for the next stage), and the error the call raised or None."""
    try:
        stage(y, False)
        error = None
    except (NewtonDivergedError, SingularJacobianError,
            EvalDomainError) as exc:
        error = exc
    cells = dict(zip(stage.__code__.co_freevars, stage.__closure__))
    return cells["_v"].cell_contents, error


@NEWTON_CASE
@given(drawn_newton_cases())
# a backtrack: exp(v1) from -10 towards p1 = 1, whose first trial overflows
@example(("exp(v1)", 1, [0.0, 0.0], 0.0, [0.0], False, [1.0], [-10.0],
          (50, 20)))
# EvalDomainError at a trial: from p1 = 1e308 the first trial is inf
@example(("exp(v1)", 1, [0.0, 0.0], 0.0, [0.0], False, [1e308], [-10.0],
          (50, 20)))
# EvalDomainError at the start, exp(1000)
@example(("exp(v1)", 1, [0.0, 0.0], 0.0, [0.0], False, [1.0], [1000.0],
          (50, 20)))
# the iteration cap: a triple root converges linearly
@example(("0.25*v1^4", 1, [0.0, 0.0], 0.0, [0.0], False, [0.0], [1e12],
          (50, 20)))
# W11 = 3*v1^2 = 0 reached at run time, at the default guess
@example(("0.25*v1^4 + (q1)*v1", 1, [0.5, 0.0], 0.0, [0.0], False, [1.0],
          None, (50, 20)))
# _ev's guard at a trial whose output sum overflows: the value and dL/dv1
# at the Newton point 0.25 are finite, and the eval_dual2 rerun returns
@example(("1.6e308 + 2^1022*v1^2", 1, [0.0, 0.0], 0.0, [0.0], False,
          [2.0 ** 1021], None, (50, 20)))
def test_hamiltonian_stage_newton_ends_as_solve(case):
    # each Hamiltonian stage runs the envelope Newton inline from the
    # previous stage's V: it ends as solve ends from that start, with V's
    # bits, or with solve's error type, text and residual history; a
    # second stage, at a shifted p1, starts from the first one's V
    source, k, q, c2, v, reachable, p1, guess, (max_iter, backtracks) = case
    n = k + 1
    system = LagrangianSystem.from_source(n, source)
    partition = HessianPartition(k, tuple(range(k)), (k,), 1e-9, 0)
    solver = EnvelopeSolver(system, partition, max_iter=max_iter,
                            max_backtracks=backtracks)
    if reachable:
        try:
            p1 = eval_dual2(system.lagrangian, q + v + [c2],
                            solver._v1_active).grad
        except EvalDomainError:
            pass
    p1 = np.asarray(p1, float).tolist()
    start = solver.default_guess().tolist() if guess is None else guess
    make = dynamics._stage(system, partition,
                           dynamics.GaugeChoice.constant(n, [c2]), True)
    stage = make(list(start), solver.newton_tol, max_iter, backtracks, 0.0)
    for p1 in (p1, [p1[0] + 0.125, *p1[1:]]):
        want = outcome(solver.solve, q, p1, [c2], start)
        got, error = stage_outcome(stage, q + p1)
        if isinstance(want, Exception):
            assert type(error) is type(want)
            assert str(error) == str(want)
            if isinstance(want, NewtonDivergedError):
                assert error.residual_history == want.residual_history
            return
        # past V, L's full triple or the flow's W11 check may still fail
        assert not isinstance(error, NewtonDivergedError)
        if isinstance(error, SingularJacobianError):
            assert str(error).startswith("regular velocity block")
        assert np.array(got).tobytes() == want.tobytes()
        start = got


# --------------------------------------------------------------------------
# the W11 solve: one elimination order, on floats and on stacks
# --------------------------------------------------------------------------

BLOCK_PROPERTY = settings(derandomize=True, database=None, max_examples=300,
                          deadline=None)
# |w|, |b| from 1e-8 to 1e8, either sign
entries = st.builds(lambda mag, sign: sign * mag,
                    st.floats(1e-8, 1e8), st.sampled_from([-1.0, 1.0]))
# the same, plus signed zeros and small values that tie for the pivot
tied_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
                         entries)


def assert_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def gepp_floats(a, b):
    """``clairaut.gepp`` on one lane: a (k, k) and b (k, m) as arrays."""
    return np.array(clairaut.gepp(a.tolist(), b.T.tolist())).T


def eliminate_lanes(a, b, known=()):
    """The elimination of ``solve_lanes``' step (``clairaut._eliminate``
    with ``_pivot_lanes`` on lane columns) on each lane of a (count, k, k)
    and b (count, k, m), as a (count, k, m) array; the entries (i, j) in
    ``known``, the same in every lane, are given as the float of lane 0,
    as a W11 entry known at generation is.  A lane that overflows ends
    non-finite."""
    k, m = b.shape[1:]
    rows = [[float(a[0, i, j]) if (i, j) in known else a[:, i, j]
             for j in range(k)] for i in range(k)]
    cols = [[b[:, i, j] for i in range(k)] for j in range(m)]
    with np.errstate(all="ignore"):
        cols = clairaut._eliminate(rows, cols, clairaut._pivot_lanes)
    return np.array(cols).transpose(2, 1, 0)


@BLOCK_PROPERTY
@given(st.integers(1, 5).flatmap(lambda count: st.tuples(
    st.lists(entries, min_size=count, max_size=count),
    st.lists(entries, min_size=count, max_size=count),
)))
def test_gepp_solves_a_1x1_one_column_system_as_lapack(case):
    # r / w is what LAPACK computes for a 1x1 block with one column
    a = np.array(case[0])[:, None, None]
    b = np.array(case[1])[:, None, None]
    assert_bits(eliminate_lanes(a, b), np.linalg.solve(a, b))
    for i in range(len(a)):
        assert_bits(gepp_floats(a[i], b[i]), np.linalg.solve(a[i], b[i]))


def test_gepp_solves_many_random_1x1_one_column_systems_as_lapack():
    rng = np.random.default_rng(6)
    count = 20_000
    w, b = (10.0 ** rng.uniform(-8, 8, (2, count))
            * rng.choice([-1.0, 1.0], (2, count)))
    a, rhs = w[:, None, None], b[:, None, None]
    assert_bits(eliminate_lanes(a, rhs), np.linalg.solve(a, rhs))
    for i in range(0, count, 20):
        assert_bits(gepp_floats(a[i], rhs[i]), np.linalg.solve(a[i], rhs[i]))


def systems(element):
    """(a, b): 1 to 3 lanes of a (k, k) block and b (k, m), k = 1..4 and
    m = 1..3, with entries drawn from ``element``."""
    return st.tuples(st.integers(1, 3), st.integers(1, 4),
                     st.integers(1, 3)).flatmap(
        lambda dims: st.tuples(*(
            st.lists(element, min_size=size, max_size=size).map(
                lambda x, shape=shape: np.array(x).reshape(shape))
            for size, shape in (
                (dims[0] * dims[1] ** 2, (dims[0], dims[1], dims[1])),
                (dims[0] * dims[1] * dims[2], (dims[0], dims[1], dims[2])),
            ))))


@BLOCK_PROPERTY
@given(systems(tied_entries))
def test_gepp_on_floats_and_on_stacks_agree_bit_for_bit(system):
    a, b = system
    stacked = eliminate_lanes(a, b)
    for i in range(len(a)):
        try:
            want = gepp_floats(a[i], b[i])
        except ZeroDivisionError:
            # a zero pivot: the stacked lane ends non-finite instead
            assert not np.isfinite(stacked[i]).all()
        else:
            assert_bits(stacked[i], want)
            assert_bits(want, helpers.gepp_solve(a[i], b[i]))


@BLOCK_PROPERTY
@given(systems(tied_entries), st.lists(st.booleans(), min_size=16,
                                       max_size=16))
def test_gepp_with_entries_known_at_generation_agrees_bit_for_bit(system,
                                                                  mask):
    # W11 entries known at generation (where the mask holds) are floats
    # among the lane columns; every lane still takes the bits of the float
    # elimination of its block
    a, b = system
    k = a.shape[1]
    known = {(i, j) for i in range(k) for j in range(k) if mask[4 * i + j]}
    for i, j in known:
        a[:, i, j] = a[0, i, j]
    try:
        got = eliminate_lanes(a, b, known)
    except ZeroDivisionError:
        # a zero pivot among floats alone: every lane's floats divide by it
        got = None
    for i in range(len(a)):
        try:
            want = gepp_floats(a[i], b[i])
        except ZeroDivisionError:
            assert got is None or not np.isfinite(got[i]).all()
        else:
            assert got is not None
            assert_bits(got[i], want)


def backward_error(a, x, b):
    """max over columns of |b - a x|_inf / (|a|_inf |x|_inf), exactly."""
    worst = 0.0
    for col, rhs in zip(x.T, b.T):
        residual = [Fraction(r) - sum(Fraction(u) * Fraction(v)
                                      for u, v in zip(row, col))
                    for row, r in zip(a.tolist(), rhs.tolist())]
        scale = np.abs(a).sum(axis=1).max() * np.abs(col).max()
        worst = max(worst, float(max(map(abs, residual))) / scale)
    return worst


@settings(BLOCK_PROPERTY, max_examples=100)  # exact residuals are slow
@given(systems(entries))
def test_gepp_agrees_with_scipy_within_the_backward_error_bound(system):
    # GEPP's backward error (Higham, ch. 9): |dA| <= gamma_3k |L||U|, with
    # |L||U| <= (1 + 2(k^2 - k) rho) |A| for the growth factor rho <=
    # 2^(k-1); the same bound holds for LAPACK's solve
    a, b = system
    k, u = a.shape[1], 2.0 ** -53
    bound = 1.01 * 3 * k * u * (1 + 2 * (k * k - k) * 2.0 ** (k - 1))
    got = eliminate_lanes(a, b)
    for i in range(len(a)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                want = scipy.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            continue  # exactly singular
        assert backward_error(a[i], got[i], b[i]) <= bound
        assert backward_error(a[i], want, b[i]) <= bound
        # so both solve systems within bound of a: their distance follows
        kappa = np.linalg.cond(a[i], np.inf)
        if kappa * bound < 0.25:
            scale = np.abs(want).max()
            assert (np.abs(got[i] - want).max()
                    <= 4.0 * kappa * bound * scale)


def test_an_overflowing_stacked_solve_prints_no_warning():
    # the update -1e308 - 1e308 and the back substitution overflow in lane 0
    a = np.array([[[1.0, 1e308], [1.0, -1e308]], [[2.0, 1.0], [1.0, 3.0]]])
    b = np.array([[[1e308], [-1e308]], [[1.0], [2.0]]])
    got = eliminate_lanes(a, b)
    assert not np.isfinite(got[0]).all()
    for i in range(2):
        assert_bits(got[i], gepp_floats(a[i], b[i]))
    # in a lane solve, the step r / w = 1e305 / 1e-8 of lane 0 overflows
    system = LagrangianSystem.from_source(1, "v1^4/12", {"v1": (-1.0, 1.0)})
    solver = EnvelopeSolver(system, partition_indices(system))
    q, p1, guess = np.zeros((2, 1)), [[1e305], [0.5]], [[1e-4], [1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, failed = solver.solve_lanes(q, p1, np.zeros((2, 0)), guess)
    assert list(failed) == [0] and isinstance(failed[0], EvalDomainError)
    assert_bits(out[1], solver.solve(q[1], p1[1], [], guess[1]))


def svd_check(w11, tol, where, **at):
    """``check_w11`` with the SVD on every block, 1x1 ones included; a block
    with a non-finite entry is singular, with NaN singular values."""
    if np.isfinite(w11).all():
        sv = np.linalg.svd(w11, compute_uv=False)
    else:
        sv = np.full(len(w11), np.nan)
    if not sv[-1] > tol * max(sv[0], 1.0):
        point = ", ".join(f"{name}={x.tolist()}" for name, x in at.items())
        raise SingularJacobianError(
            f"{where} {point} (smallest singular value {sv[-1]:.3e})"
        )


def lanes_check(blocks, tol, where, known=False, **at):
    """``clairaut.singular_lanes`` on a stack (count, k, k) given as the
    entry columns of ``solve_lanes``' step, each ``at`` value as one row
    per lane: raises the lowest singular lane's error, else returns
    (smallest, largest) by lane.  With ``known``, an entry with the same
    bits in every lane is given as its float, as an entry known at
    generation is."""
    blocks = np.asarray(blocks, dtype=float)
    count, k = len(blocks), blocks.shape[-1]

    def entry(x):
        same = x.tobytes() == np.full(count, x[0]).tobytes()
        return float(x[0]) if known and same else x

    w11 = [[entry(blocks[:, i, j]) for j in range(k)] for i in range(k)]
    at = {name: list(np.reshape(x, (count, -1)).T) for name, x in at.items()}
    smallest, largest, errors = clairaut.singular_lanes(w11, count, tol,
                                                        where, **at)
    if errors:
        raise errors[min(errors)]
    return np.broadcast_to(smallest, count), np.broadcast_to(largest, count)


def check_outcome(check, w, tol):
    """The exception type and message a check of [[w]] ends in, or None."""
    return block_outcome(check, np.array([[w]]), tol, v1=np.array([w]))


def block_outcome(check, block, tol, **at):
    """The exception type and message a check of one block ends in, or
    None."""
    try:
        with np.errstate(invalid="ignore"):
            check(block, tol, "W11 is singular at", **at)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return None


TOL = 1e-9
EDGE_BLOCKS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-200,
    TOL, -TOL, np.nextafter(TOL, 1.0), np.nextafter(TOL, 0.0), 1.0, -1.0,
    1e150, 1e300, -1e300, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("w", EDGE_BLOCKS)
def test_check_w11_1x1_decides_as_the_svd_at_the_edges(w):
    want = check_outcome(svd_check, w, TOL)
    assert check_outcome(clairaut.check_w11, w, TOL) == want
    # the tolerance boundary itself: |w| <= tol is singular
    if w == TOL:
        assert want is not None and want[0] is SingularJacobianError
    if w == np.nextafter(TOL, 1.0) or w == 1e300:
        assert want is None
    if not math.isfinite(w):
        assert want is not None and want[0] is SingularJacobianError


@BLOCK_PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(1e-15, 0.5))
def test_check_w11_1x1_decides_as_the_svd(w, tol):
    want = check_outcome(svd_check, w, tol)
    assert check_outcome(clairaut.check_w11, w, tol) == want
    if want is None:
        assert clairaut.check_w11(np.array([[w]]), tol, "") == (abs(w), abs(w))


def test_check_w11_returns_the_extreme_singular_values():
    blocks = np.array([[[2.0, 0.0], [0.0, -0.5]], [[3.0, 0.0], [0.0, 1.0]]])
    smallest, largest = clairaut.check_w11(blocks[0], TOL, "")
    assert (smallest, largest) == (0.5, 2.0)
    smallest, largest = lanes_check(blocks, TOL, "", v1=np.zeros(2))
    assert_allclose(smallest, [0.5, 1.0], rtol=1e-15)
    assert_allclose(largest, [2.0, 3.0], rtol=1e-15)
    assert clairaut.check_w11(np.array([[-4.0]]), TOL, "") == (4.0, 4.0)


def assert_2x2_decides_as_the_svd(block, tol):
    """``check_w11`` on a 2x2 block, as an array and as float rows, ends as
    the SVD check ends; a block it passes comes back with singular values
    within ``W11_MARGIN`` of the SVD's."""
    block = np.asarray(block, dtype=float)
    at = {"v1": np.array([0.5, -0.25])}
    want = block_outcome(svd_check, block, tol, **at)
    for form in (block, block.tolist()):
        assert block_outcome(clairaut.check_w11, form, tol, **at) == want
    if want is None:
        sv = np.linalg.svd(block, compute_uv=False)
        margin = W11_MARGIN * max(sv[0], sys.float_info.min)
        assert_allclose(clairaut.check_w11(block.tolist(), tol, ""),
                        (sv[-1], sv[0]), rtol=0.0, atol=margin)
    return want


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@BLOCK_PROPERTY
@given(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi),
       st.floats(1e-6, 1e6),
       # the smaller singular value: tol * max(larger, 1) * (1 + delta)
       # just either side of the threshold, or larger * ratio anywhere
       st.one_of(st.tuples(st.just(True), st.floats(-1e-5, 1e-5)),
                 st.tuples(st.just(False), st.floats(0.0, 1.0))),
       st.sampled_from([-1.0, 1.0]), st.floats(1e-15, 0.5))
def test_check_w11_2x2_decides_as_the_svd(theta, phi, largest, smaller,
                                          det_sign, tol):
    near, x = smaller
    smallest = tol * max(largest, 1.0) * (1.0 + x) if near else largest * x
    smallest = min(smallest, largest)
    block = (rotation(theta) @ np.diag([largest, det_sign * smallest])
             @ rotation(phi))
    assert_2x2_decides_as_the_svd(block, tol)


@BLOCK_PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4),
       st.floats(1e-15, 0.5))
def test_check_w11_2x2_decides_as_the_svd_on_any_finite_block(entries, tol):
    assert_2x2_decides_as_the_svd(np.reshape(entries, (2, 2)), tol)


BIG = 1.7976931348623157e308
EDGE_2X2 = {
    "zero_first_row": [[0.0, 0.0], [1.0, 2.0]],
    "zero_second_row": [[3.0, -1.0], [0.0, 0.0]],
    "zero": [[0.0, -0.0], [0.0, 0.0]],
    "subnormal_diagonal": [[5e-324, 0.0], [0.0, 5e-324]],
    "subnormal": [[1e-310, 3e-310], [-2e-310, 1e-310]],
    "least_normal": [[2.2250738585072014e-308, 0.0], [0.0, 1.0]],
    "at_the_threshold": [[TOL, 0.0], [0.0, 1.0]],
    "above_the_threshold": [[np.nextafter(TOL, 1.0), 0.0], [0.0, 1.0]],
    "sum_a_plus_d_overflows": [[1e308, 0.0], [0.0, 1e308]],
    "difference_a_minus_d_overflows": [[1e308, 0.0], [0.0, -1e308]],
    "s_plus_t_overflows": [[1e308, 0.0], [1e308, 1e307]],
    "largest_finite": [[BIG, BIG], [-BIG, BIG]],
    "nan": [[math.nan, 0.0], [0.0, 1.0]],
    "inf": [[math.inf, 0.0], [0.0, 1.0]],
    "minus_inf": [[1.0, -math.inf], [0.0, 1.0]],
    "inf_minus_inf": [[math.inf, 0.0], [0.0, -math.inf]],
    "swap": [[0.0, 1.0], [1.0, 0.0]],
}


@pytest.mark.parametrize("name", EDGE_2X2)
def test_check_w11_2x2_decides_as_the_svd_at_the_edges(name):
    want = assert_2x2_decides_as_the_svd(EDGE_2X2[name], TOL)
    if name in ("zero_first_row", "at_the_threshold", "largest_finite"):
        assert want is not None and want[0] is SingularJacobianError
    if name in ("above_the_threshold", "sum_a_plus_d_overflows",
                "s_plus_t_overflows", "swap"):
        assert want is None
    if not np.isfinite(EDGE_2X2[name]).all():
        assert want == (SingularJacobianError, "W11 is singular at "
                        "v1=[0.5, -0.25] (smallest singular value nan)")


@pytest.mark.parametrize("block", [
    [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -math.inf]],
])
def test_check_w11_calls_a_non_finite_3x3_block_singular(block):
    for form in (block, np.array(block)):
        with pytest.raises(SingularJacobianError,
                           match=r"^at v1=\[1\.0\] \(smallest singular "
                                 r"value nan\)$"):
            clairaut.check_w11(form, TOL, "at", v1=[1.0])


def test_check_w11_names_the_first_non_finite_block_of_a_stack():
    blocks = np.array([[[1.0, 0.0], [0.0, 2.0]], [[math.inf, 0.0], [0.0, 1.0]],
                       [[math.nan, 0.0], [0.0, 1.0]]])
    with pytest.raises(SingularJacobianError,
                       match=r"^at v1=\[1\.0\] \(smallest singular "
                             r"value nan\)$"):
        lanes_check(blocks, TOL, "at", v1=np.array([[0.0], [1.0], [2.0]]))
    smallest, largest = lanes_check(blocks[:1], TOL, "", v1=np.zeros(1))
    assert (smallest.tolist(), largest.tolist()) == ([1.0], [2.0])


def test_check_w11_names_the_singular_lane_of_a_3x3_stack():
    # k >= 3 takes the SVD on every lane; the lane's error is the one the
    # check of its block alone raises, and singular_lanes files it
    blocks = np.array([np.eye(3), np.diag([1.0, 0.0, 2.0]),
                       np.diag([3.0, 3.0, 3.0])])
    at = np.arange(9.0).reshape(3, 3)
    with pytest.raises(SingularJacobianError) as raised:
        lanes_check(blocks, TOL, "at", v1=at)
    with pytest.raises(SingularJacobianError) as alone:
        clairaut.check_w11(blocks[1], TOL, "at", v1=at[1])
    assert str(raised.value) == str(alone.value) == (
        "at v1=[3.0, 4.0, 5.0] (smallest singular value 0.000e+00)")
    smallest, largest, errors = clairaut.singular_lanes(
        [[blocks[:, i, j] for j in range(3)] for i in range(3)], 3, TOL, "at",
        v1=list(at.T))
    assert list(errors) == [1] and str(errors[1]) == str(raised.value)
    assert (smallest.tolist(), largest.tolist()) == ([1.0, 0.0, 3.0],
                                                     [1.0, 2.0, 3.0])


def test_check_w11_2x2_with_a_negative_determinant_skips_the_svd(
        monkeypatch):
    calls = helpers.record_svd_calls(monkeypatch)
    assert clairaut.check_w11([[0.0, 1.0], [1.0, 0.0]], TOL, "") == (1.0, 1.0)
    assert clairaut.check_w11(np.array([[2.0, 0.0], [0.0, -0.5]]), TOL,
                              "") == (0.5, 2.0)
    # and a stack of clear blocks, negative determinants among them
    blocks = np.array([[[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, -0.5]],
                       rotation(0.3) @ np.diag([3.0, 1e-3]) @ rotation(1.1),
                       rotation(2.0) @ np.diag([1e5, -7.0]) @ rotation(0.4)])
    smallest, largest = lanes_check(blocks, TOL, "", v1=np.zeros(4))
    assert calls == []
    margin = W11_MARGIN * np.array([1.0, 2.0, 3.0, 1e5])
    assert (np.abs(smallest - [1.0, 0.5, 1e-3, 7.0]) <= margin).all()
    assert (np.abs(largest - [1.0, 2.0, 3.0, 1e5]) <= margin).all()


def test_check_w11_sends_only_the_undecided_lanes_of_a_stack_to_the_svd(
        monkeypatch):
    calls = helpers.record_svd_calls(monkeypatch)
    clear = np.array([[2.0, 0.5], [0.5, 1.0]])
    near = np.array([[np.nextafter(TOL, 1.0), 0.0], [0.0, 1.0]])  # passes
    lanes_check(np.array([clear, near, clear]), TOL, "", v1=np.zeros((3, 2)))
    assert [(a.tolist(), inside) for a, inside in calls] == [
        ([near.tolist()], True)]
    calls.clear()
    with pytest.raises(SingularJacobianError,
                       match=r"^at v1=\[2\.0\] \(smallest singular value "
                             r"0\.000e\+00\)$"):
        lanes_check(np.array([[[1.0]], [[-3.0]], [[0.0]], [[4.0]]]), TOL,
                    "at", v1=np.arange(4.0)[:, None])
    assert [(a.tolist(), inside) for a, inside in calls] == [([[[0.0]]], True)]


# --------------------------------------------------------------------------
# stacks: every lane ends as the SVD check of its block ends
# --------------------------------------------------------------------------

def lane_by_lane(blocks, tol, where, **at):
    """``svd_check`` on each block of a stack in turn, with that block's row
    of each ``at`` value."""
    for j, block in enumerate(blocks):
        svd_check(block, tol, where, **{name: x[j] for name, x in at.items()})


def stack_outcome(check, blocks, tol):
    """The exception type and message a check of a stack ends in, or None;
    block j is at v1 = [j, -j]."""
    lanes = np.arange(float(len(blocks)))
    try:
        check(blocks, tol, "W11 is singular at",
              v1=np.stack([lanes, -lanes], axis=1))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return None


def assert_stack_decides_as_the_svd(blocks, tol):
    """The lane check of a stack ends as ``svd_check`` ends lane by lane,
    with every entry a lane column and with the entries that agree in every
    lane given as floats; a stack it passes comes back with each block's
    singular values within ``W11_MARGIN`` of the SVD's."""
    blocks = np.array(blocks, dtype=float)
    want = stack_outcome(lane_by_lane, blocks, tol)
    for known in (False, True):
        check = functools.partial(lanes_check, known=known)
        assert stack_outcome(check, blocks, tol) == want
        if want is None:
            sv = np.linalg.svd(blocks, compute_uv=False)
            smallest, largest = check(blocks, tol, "",
                                      v1=np.zeros(len(blocks)))
            margin = W11_MARGIN * np.maximum(sv[:, 0],
                                                      sys.float_info.min)
            assert (np.abs(smallest - sv[:, -1]) <= margin).all()
            assert (np.abs(largest - sv[:, 0]) <= margin).all()
    return want


LANE_KINDS = ("clear", "near", "singular", "non_finite", "overflowing",
              "edge")


@st.composite
def stack_lanes(draw, k, tol, kinds):
    """One k×k block (k = 1 or 2) of a kind from ``kinds``."""
    kind = draw(st.sampled_from(kinds))
    if kind == "edge":
        if k == 1:
            return [[draw(st.sampled_from(EDGE_BLOCKS))]]
        return EDGE_2X2[draw(st.sampled_from(sorted(EDGE_2X2)))]
    if kind == "overflowing":
        huge = st.sampled_from([BIG, -BIG, 1e308, -1e308, 1e307, 1.0, 0.0])
        return [[draw(huge) for _ in range(k)] for _ in range(k)]
    # |w| for k = 1; the larger singular value for k = 2
    largest = draw(st.floats(1e-2, 1e6))
    scale = max(largest, 1.0) if k == 2 else 1.0
    if kind == "near":  # tol * max(largest, 1) * (1 ± delta)
        smallest = tol * scale * (1.0 + draw(st.floats(-1e-5, 1e-5)))
    elif kind == "singular":
        smallest = largest * draw(st.sampled_from([0.0, 1e-17, 1e-300]))
    else:  # clear: at least twice the threshold
        smallest = max(largest * draw(st.floats(0.0, 1.0)), 2 * tol * scale)
    smallest = min(smallest, largest)
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if k == 1:
        block = np.array([[sign * smallest]])
    else:
        block = (rotation(draw(st.floats(0.0, 2 * math.pi)))
                 @ np.diag([largest, sign * smallest])
                 @ rotation(draw(st.floats(0.0, 2 * math.pi))))
    if kind == "non_finite":
        block[draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))] = (
            draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    return block.tolist()


@BLOCK_PROPERTY
@given(st.data(), st.sampled_from([1, 2]), st.floats(1e-15, 1e-3),
       # every kind, or only the kinds that pass, so stacks pass too
       st.sampled_from([LANE_KINDS, ("clear", "near")]))
def test_check_w11_decides_a_stack_as_the_svd_lane_by_lane(data, k, tol,
                                                           kinds):
    blocks = data.draw(st.lists(stack_lanes(k, tol, kinds), min_size=1,
                                max_size=20))
    assert_stack_decides_as_the_svd(blocks, tol)


@pytest.mark.parametrize("block", [[[w]] for w in EDGE_BLOCKS]
                         + list(EDGE_2X2.values()),
                         ids=[f"1x1_{float(w)!r}" for w in EDGE_BLOCKS]
                         + [f"2x2_{name}" for name in EDGE_2X2])
def test_check_w11_decides_an_edge_lane_between_clear_lanes_as_the_svd(
        block):
    clear = np.eye(len(block)) * 2.0
    want = assert_stack_decides_as_the_svd([clear, block, clear], TOL)
    if want is not None:  # the edge lane, at v1 = [1, -1], is named
        assert "v1=[1.0, -1.0] " in want[1]


def test_abs_det_is_the_product_of_the_pivots():
    # the pivots are 4 (row 1), then 3 (row 2), then 0.75 - (1.75/3)*2
    # from row 0 after its first update to [1.75, 0.75]
    rows = [[1.0, 2.0, 0.5], [4.0, 1.0, -1.0], [0.0, 3.0, 2.0]]
    want = abs(1.0 * 4.0 * 3.0 * (0.75 - 1.75 / 3.0 * 2.0))
    assert helpers.abs_det(rows) == want
    assert clairaut.abs_det_many(np.array([rows]))[0] == want
    assert_allclose(want, 5.0, rtol=1e-15)
    assert helpers.abs_det([[-3.0]]) == 3.0
    assert helpers.abs_det([[0.0, 1.0], [0.0, 2.0]]) == 0.0  # zero column
    assert helpers.abs_det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    assert rows == [[1.0, 2.0, 0.5], [4.0, 1.0, -1.0], [0.0, 3.0, 2.0]]


# singular blocks come from repeated and zero entries; the rest reach the
# extremes of the float range
det_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf,
                     -math.inf, 5e-324, -2.5e-310, 1e308, -1.7e308]),
    entries,
)


def _blocks(count, k, flat, zero_column):
    a = np.array(flat).reshape(count, k, k)
    if zero_column is not None:
        a[:, :, zero_column % k] = 0.0
    return a


@BLOCK_PROPERTY
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda dims: st.builds(
        _blocks, st.just(dims[0]), st.just(dims[1]),
        st.lists(det_entries, min_size=dims[0] * dims[1] ** 2,
                 max_size=dims[0] * dims[1] ** 2),
        st.none() | st.integers(0, 3))))
@example(np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [-0.0, 2.0]]]))
@example(np.array([[[math.nan, 0.0], [0.0, 1.0]], [[1e308, 1e308],
                                                   [-1e308, 1e308]]]))
def test_abs_det_on_lanes_is_abs_det_on_each_block(blocks):
    got = clairaut.abs_det_many(blocks)
    want = np.array([helpers.abs_det(a) for a in blocks.tolist()])
    assert_bits(got, want)


# --------------------------------------------------------------------------
# mixed Hamiltonian: frozen closed forms
# --------------------------------------------------------------------------

def test_mixed_hamiltonian_squared_sum_closed_form():
    ham = make_ham("deg1")
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        c = rng.uniform(-2, 2, size=1)
        want = 0.5 * p[0] ** 2 + c[0] * (p[1] - p[0])
        assert_allclose(ham.value(q, p, c), want, rtol=0, atol=1e-9)


def test_mixed_hamiltonian_coordinate_coupled_closed_form():
    ham = make_ham("deg2")
    rng = np.random.default_rng(4)
    for _ in range(25):
        q = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        c = rng.uniform(-2, 2, size=1)
        want = 0.5 * p[0] ** 2 + c[0] * (p[1] - q[0])
        assert_allclose(ham.value(q, p, c), want, rtol=0, atol=1e-9)


def test_mixed_hamiltonian_three_dof_closed_form():
    ham = make_ham("deg3")
    rng = np.random.default_rng(5)
    for _ in range(25):
        q = rng.uniform(-2, 2, size=3)
        p = rng.uniform(-2, 2, size=3)
        c = rng.uniform(-2, 2, size=1)
        want = 0.5 * (p[0] - q[2]) ** 2 + 0.5 * (p[1] + q[2]) ** 2 + p[2] * c[0]
        assert_allclose(ham.value(q, p, c), want, rtol=0, atol=1e-9)


def test_mixed_hamiltonian_regular_closed_forms():
    rng = np.random.default_rng(6)
    osc = make_ham("osc")
    coupled = make_ham("coupled")
    bilinear = make_ham("bilinear")
    for _ in range(25):
        q1 = rng.uniform(-2, 2, size=1)
        p1 = rng.uniform(-2, 2, size=1)
        assert_allclose(
            osc.value(q1, p1, []), 0.5 * p1[0] ** 2 + 0.5 * q1[0] ** 2, atol=1e-10
        )
        q = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        assert_allclose(
            coupled.value(q, p, []),
            0.5 * (p[0] ** 2 + p[1] ** 2) - q[0] * q[1],
            atol=1e-10,
        )
        assert_allclose(bilinear.value(q, p, []), p[0] * p[1], atol=1e-10)


# --------------------------------------------------------------------------
# psi / phi / h_zero
# --------------------------------------------------------------------------

def test_psi_and_phi_squared_sum():
    ham = make_ham("deg1")
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        assert_allclose(ham.psi(q, p[:1]), [p[0]], rtol=0, atol=1e-9)
        assert_allclose(ham.phi(q, p), [p[1] - p[0]], rtol=0, atol=1e-9)


def test_psi_and_phi_coordinate_coupled():
    ham = make_ham("deg2")
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        assert_allclose(ham.psi(q, p[:1]), [q[0]], rtol=0, atol=1e-9)
        assert_allclose(ham.phi(q, p), [p[1] - q[0]], rtol=0, atol=1e-9)


def test_psi_three_dof_vanishes():
    ham = make_ham("deg3")
    assert_allclose(ham.psi([0.3, -0.4, 1.2], [0.5, 0.7]), [0.0], atol=1e-10)
    assert_allclose(
        ham.phi([0.3, -0.4, 1.2], [0.5, 0.7, -0.9]), [-0.9], atol=1e-10
    )


def test_regular_system_has_no_constraints():
    ham = make_ham("coupled")
    assert ham.psi([0.1, 0.2], [0.3, 0.4]).size == 0
    assert ham.phi([0.1, 0.2], [0.3, 0.4]).size == 0


def test_h_zero_closed_forms():
    rng = np.random.default_rng(9)
    deg1 = make_ham("deg1")
    deg2 = make_ham("deg2")
    for _ in range(20):
        q = rng.uniform(-2, 2, size=2)
        p1 = rng.uniform(-2, 2, size=1)
        assert_allclose(deg1.h_zero(q, p1), 0.5 * p1[0] ** 2, rtol=0, atol=1e-9)
        assert_allclose(deg2.h_zero(q, p1), 0.5 * p1[0] ** 2, rtol=0, atol=1e-9)


def test_psi_and_h_zero_probe_independent():
    rng = np.random.default_rng(10)
    for name in corpus.SINGULAR:
        ham = make_ham(name)
        sys = ham.system
        n = sys.n
        m = len(ham.partition.nonregular)
        lo = sys.domain_lo[n:][ham.partition.nonregular,]
        hi = sys.domain_hi[n:][ham.partition.nonregular,]
        for _ in range(10):
            q = rng.uniform(sys.domain_lo[:n], sys.domain_hi[:n])
            p1 = rng.uniform(-2, 2, size=ham.k)
            psi_ref = ham.psi(q, p1)
            h0_ref = ham.h_zero(q, p1)
            psi_scale = 1.0 + float(np.max(np.abs(psi_ref))) if psi_ref.size else 1.0
            for _ in range(10):
                probe = rng.uniform(lo, hi, size=m)
                dpsi = np.max(np.abs(ham.psi(q, p1, probe) - psi_ref))
                assert dpsi <= 1e-8 * psi_scale
                dh0 = abs(ham.h_zero(q, p1, probe) - h0_ref)
                assert dh0 <= 1e-8 * (1.0 + abs(h0_ref))


def test_decomposition_identity():
    # H(q, p, v2) = H0(q, p1) + v2 . Phi(q, p)
    rng = np.random.default_rng(11)
    for name in corpus.SYSTEMS:
        ham = make_ham(name)
        sys = ham.system
        n = sys.n
        for _ in range(20):
            x = sys.sample(rng, 1)[0]
            q = x[:n]
            p = rng.uniform(-2, 2, size=n)
            v2 = x[n:][ham.partition.nonregular,]
            h = ham.value(q, p, v2)
            split = ham.h_zero(q, p[ham.partition.regular,]) + float(
                v2 @ ham.phi(q, p)
            )
            assert abs(h - split) <= 1e-8 * (1.0 + abs(h))


# --------------------------------------------------------------------------
# Clairaut residual
# --------------------------------------------------------------------------

def test_clairaut_residual_examples():
    assert make_ham("deg1").clairaut_residual(
        [0.0, 0.0], [1.0, 1.0], [0.5]
    ) <= 1e-8
    assert make_ham("osc").clairaut_residual([0.7], [1.3], []) <= 1e-8


@pytest.mark.parametrize("name", corpus.SYSTEMS)
def test_clairaut_residual_sampled(name):
    ham = make_ham(name)
    sys = ham.system
    n = sys.n
    rng = np.random.default_rng(12)
    worst = 0.0
    for x in sys.sample(rng, 50):
        q = x[:n]
        p = rng.uniform(-2, 2, size=n)
        v2 = x[n:][ham.partition.nonregular,]
        worst = max(worst, ham.clairaut_residual(q, p, v2))
    assert worst <= 1e-6, f"{name}: worst Clairaut residual {worst:.3e}"


def test_envelope_gradient_identities():
    # dH/dp1 = V (FD, 1e-6) and dH/dp2 = v2 (FD, 1e-8)
    rng = np.random.default_rng(13)
    for name in corpus.SYSTEMS:
        ham = make_ham(name)
        sys = ham.system
        n = sys.n
        for _ in range(10):
            x = sys.sample(rng, 1)[0]
            q = x[:n]
            p = rng.uniform(-2, 2, size=n)
            v2 = x[n:][ham.partition.nonregular,]
            v1 = ham.solve_velocity(q, p[ham.partition.regular,], v2)
            dhdp = np.empty(n)
            for i in range(n):
                h = 1e-6 * (1.0 + abs(p[i]))
                plus, minus = p.copy(), p.copy()
                plus[i] += h
                minus[i] -= h
                dhdp[i] = (
                    ham.value(q, plus, v2) - ham.value(q, minus, v2)
                ) / (2 * h)
            assert np.max(np.abs(dhdp[ham.partition.regular,] - v1)) <= 1e-6
            if len(ham.partition.nonregular):
                assert np.max(
                    np.abs(dhdp[ham.partition.nonregular,] - v2)
                ) <= 1e-8


# --------------------------------------------------------------------------
# inverse transform / involutivity
# --------------------------------------------------------------------------

def test_inverse_transform_values():
    deg1 = make_ham("deg1")
    assert_allclose(
        deg1.inverse_transform([0.0, 0.0], [1.0, 1.0], [0.7]), 2.0, atol=1e-9
    )
    deg2 = make_ham("deg2")
    assert_allclose(
        deg2.inverse_transform([2.0, 0.0], [1.0, 5.0], [0.1]), 10.5, atol=1e-9
    )
    coupled = make_ham("coupled")
    q = [1.0, -2.0]
    v = [3.0, 4.0]
    want = 0.5 * 25.0 + q[0] * q[1]
    assert_allclose(coupled.inverse_transform(q, v, []), want, atol=1e-9)


@pytest.mark.parametrize("name", corpus.SYSTEMS)
def test_involutivity_sampled(name):
    ham = make_ham(name)
    sys = ham.system
    n = sys.n
    rng = np.random.default_rng(14)
    for x in sys.sample(rng, 50):
        q, v = x[:n], x[n:]
        p2 = rng.uniform(-2, 2, size=len(ham.partition.nonregular))
        lval = evaluate(sys.lagrangian, x)
        back = ham.inverse_transform(q, v, p2)
        assert abs(back - lval) <= 1e-7 * (1.0 + abs(lval)), (
            f"{name}: |{back} - {lval}|"
        )


def test_inverse_transform_validates_shapes():
    ham = make_ham("deg1")
    with pytest.raises(ValueError):
        ham.inverse_transform([0.0, 0.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        ham.inverse_transform([0.0, 0.0], [1.0, 1.0], [0.0, 0.0])


# --------------------------------------------------------------------------
# regular reduction and convexity-class rank
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", corpus.REGULAR)
def test_regular_reduction_matches_independent_classical(name):
    ham = make_ham(name)
    sys = ham.system
    n = sys.n
    rng = np.random.default_rng(15)
    for _ in range(50):
        q = rng.uniform(sys.domain_lo[:n], sys.domain_hi[:n])
        p = rng.uniform(-2, 2, size=n)
        mixed = ham.value(q, p, [])
        classical = classical_legendre(sys, q, p)
        assert abs(mixed - classical) <= 1e-9 * (1.0 + abs(classical))


@pytest.mark.parametrize("name", corpus.SYSTEMS)
def test_transform_preserves_hessian_rank(name):
    # FD Hessian of H in all momenta has rank k; its p1 block is nonsingular
    ham = make_ham(name)
    sys = ham.system
    n = sys.n
    rng = np.random.default_rng(16)
    for _ in range(5):
        x = sys.sample(rng, 1)[0]
        q = x[:n]
        v2 = x[n:][ham.partition.nonregular,]
        p0 = rng.uniform(-1, 1, size=n)
        hess = helpers.fd_hessian(lambda p: ham.value(q, p, v2), p0, h=1e-4)
        assert numerical_rank(hess, rel_tol=1e-6) == ham.k
        if ham.k:
            block = hess[np.ix_(ham.partition.regular, ham.partition.regular)]
            assert numerical_rank(block, rel_tol=1e-6) == ham.k


# --------------------------------------------------------------------------
# generic transform
# --------------------------------------------------------------------------

def test_generic_transform_parabola():
    f = parse("0.5*x^2", ["x"])
    assert_allclose(generic_transform(f, [3.0]), 4.5, atol=1e-10)


def test_generic_transform_exponential():
    f = parse("exp(x)", ["x"])
    got = generic_transform(f, [1.0], domain=(-2.0, 2.0))
    # conjugate of exp at p is p ln p - p
    assert_allclose(got, -1.0, atol=1e-9)


def test_generic_transform_degenerate():
    f = parse("0.5*(x1+x2)^2", ["x1", "x2"])
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=2)
        c = float(rng.uniform(-1, 1))
        want = 0.5 * p[0] ** 2 + c * (p[1] - p[0])
        assert_allclose(generic_transform(f, p, [c]), want, atol=1e-9)


def test_generic_transform_checks_parameter_count():
    f = parse("0.5*(x1+x2)^2", ["x1", "x2"])
    with pytest.raises(ValueError, match="rank"):
        generic_transform(f, [1.0, 1.0])


def test_generic_transform_rejects_rank_straddle():
    f = parse("x1^3", ["x1"])  # second derivative 6*x1 crosses zero
    with pytest.raises(RankNotConstantError):
        generic_transform(f, [1.0], domain=(-1.0, 1.0))
