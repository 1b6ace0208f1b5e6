import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import root

import corpus
import helpers
from legclair import clairaut
from legclair.clairaut import (
    EnvelopeSolver,
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    general_solution,
    generic_transform,
)
from legclair.expr import EvalDomainError, eval_dual2, evaluate, parse
from legclair.partition import (
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

def reference_newton(solver, q, p1, c2, v1_guess=None):
    """The envelope Newton loop as it was before the accepted trial's
    evaluation was reused: every iterate is evaluated afresh.  Returns the
    solution, or raises what the solver raised then."""
    system, part = solver.system, solver.partition
    n, reg, nonreg = system.n, list(part.regular), list(part.nonregular)
    p1 = np.asarray(p1, dtype=float)

    def point(v1):
        v = np.empty(n)
        v[reg] = v1
        v[nonreg] = c2
        return np.concatenate([np.asarray(q, float), v])

    v1 = (
        np.array(v1_guess, dtype=float)
        if v1_guess is not None else solver.default_guess()
    )
    history = []
    for _ in range(solver.max_iter):
        d = eval_dual2(system.lagrangian, point(v1), solver._v1_active)
        r = p1 - d.grad
        rnorm = float(np.max(np.abs(r)))
        history.append(rnorm)
        if rnorm <= solver.newton_tol:
            return v1
        sv = np.linalg.svd(d.hess, compute_uv=False)
        if sv[-1] <= part.rank_tolerance * max(sv[0], 1.0):
            raise SingularJacobianError(
                f"W11 is singular at Newton iterate v1={v1.tolist()} "
                f"(smallest singular value {sv[-1]:.3e})"
            )
        delta = np.linalg.solve(d.hess, r)
        alpha = 1.0
        for _ in range(solver.max_backtracks + 1):
            trial = v1 + alpha * delta
            try:
                d_trial = eval_dual2(
                    system.lagrangian, point(trial), solver._v1_active
                )
            except EvalDomainError:
                # a finite trial outside L's domain is a rejected trial
                if not np.all(np.isfinite(trial)):
                    raise
            else:
                if float(np.max(np.abs(p1 - d_trial.grad))) < rnorm:
                    break
            alpha *= 0.5
        else:
            raise NewtonDivergedError(
                "backtracking could not reduce the envelope residual", history
            )
        v1 = trial
    raise NewtonDivergedError(
        f"no convergence within {solver.max_iter} Newton iterations", history
    )


def outcome(solve, *args):
    try:
        return solve(*args)
    except (NewtonDivergedError, SingularJacobianError, EvalDomainError) as exc:
        return exc


def assert_same_outcome(solver, *args):
    got = outcome(solver.solve, *args)
    want = outcome(reference_newton, solver, *args)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        if isinstance(want, NewtonDivergedError):
            assert got.residual_history == want.residual_history
    else:
        assert np.array_equal(got, want)
    return got


def test_quadratic_cold_start_takes_two_evaluations(monkeypatch):
    # one evaluation at the guess and one at the Newton point, which is
    # exact for a quadratic and is accepted without a second evaluation
    ham = make_ham("deg3")
    calls = []
    counted = clairaut.eval_dual2

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(clairaut, "eval_dual2", counting)
    v1 = ham.solve_velocity([0.1, 0.2, 0.3], [1.0, -0.5], [0.4])
    assert len(calls) == 2
    assert_allclose(v1, [0.7, -0.2], rtol=0, atol=1e-12)


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
