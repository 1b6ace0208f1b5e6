import io
import json
import math
import pathlib
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import corpus
import helpers
import rk4_oracle
from legclair import clairaut, dynamics
from legclair.clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
)
from legclair.cli import build_gauge, load_problem, main
from legclair.dynamics import (
    ComparisonReport,
    GaugeChoice,
    NonFiniteStateError,
    PrimaryConstraintError,
    compare_trajectories,
    el_rhs,
    first_box_exit,
    ham_rhs,
    initial_state,
    integrate_el,
    integrate_ham,
    write_trajectory_csv,
    _ham_rhs,
    _stage,
)
from legclair.expr import (
    Add,
    Call,
    Div,
    EvalDomainError,
    Expression,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    eval_dual2,
    to_source,
)
from legclair.partition import HessianPartition, LagrangianSystem, qv_names


def make_ham(name, **kw):
    return MixedHamiltonian.from_system(corpus.make_system(name), **kw)


def gauge_of(n, *sources):
    return GaugeChoice.from_sources(n, sources)


# --------------------------------------------------------------------------
# gauge choices
# --------------------------------------------------------------------------

def test_gauge_value_and_jacobian():
    g = gauge_of(2, "0.5*q1^2 - q2")
    assert_allclose(g.value([2.0, 1.0]), [1.0])
    assert_allclose(g.jacobian([2.0, 1.0]), [[2.0, -1.0]])


def test_gauge_constant_builder():
    g = GaugeChoice.constant(3, [1.5])
    assert_allclose(g.value([0.0, 0.0, 0.0]), [1.5])
    assert_allclose(g.jacobian([0.3, -0.2, 0.9]), [[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        GaugeChoice.constant(2, [float("inf")])


def test_gauge_rejects_velocity_variables():
    with pytest.raises(Exception):
        gauge_of(2, "v1 + q1")


def test_gauge_count_checked_against_partition():
    ham = make_ham("deg1")
    with pytest.raises(ValueError, match="gauge"):
        el_rhs(ham.system, ham.partition, gauge_of(2, "q1", "q2"), [0, 0], [1.0])
    with pytest.raises(ValueError, match="required"):
        el_rhs(ham.system, ham.partition, None, [0, 0], [1.0])


# --------------------------------------------------------------------------
# the stage kernels against the oracle's per-stage cores
# --------------------------------------------------------------------------

QNAMES = ("q1", "q2")
gauge_trees = helpers.gauge_trees
q_points = st.lists(
    st.sampled_from((0.0, -0.0, 1.0)) | st.floats(-3.0, 3.0, allow_nan=False),
    min_size=2, max_size=2,
)
V1, V2 = Var(2, "v1"), Var(3, "v2")
# n = 2 with W = (1 + A^2) [[1, 1], [1, 1]]: rank 1, the first row regular
K1_PARTITION = HessianPartition(1, (0,), (1,), 1e-9, 0)


def family(a=Num(0.0), b=Num(0.0), c=Num(0.0), u=Num(0.0)):
    """L = 0.5*(1+A^2)*(v1+v2)^2 + B*v1 + C*v2 - U over (q1, q2, v1, v2)."""
    root = Sub(Add(Add(Mul(Mul(Num(0.5), Add(Num(1.0), Pow(a, 2.0))),
                           Pow(Add(V1, V2), 2.0)), Mul(b, V1)), Mul(c, V2)), u)
    lag = Expression(root, qv_names(2), to_source(root))
    system = LagrangianSystem(2, lag, [-2.0] * 4, [2.0] * 4)
    return MixedHamiltonian(system, K1_PARTITION)


def outcome(call):
    """("ok", the bytes of every returned float) or ("error", its text)."""
    try:
        return "ok", [np.asarray(x, dtype=float).tobytes() for x in call()]
    except (EvalDomainError, SingularJacobianError, NewtonDivergedError) as err:
        return "error", f"{type(err).__name__}: {err}"


def in_flow_order(gauge, q, core):
    """``core()`` after the gauge's evaluations as a flow stage orders them
    (``eval_dual2`` per expression, ``value`` first where both fail); the
    oracle's cores take value, then L, then the Jacobian."""
    try:
        for e in gauge.exprs:
            eval_dual2(e, q)
    except EvalDomainError:
        gauge.value(q)
        raise
    return core()


def assert_stage_matches_oracle(ham, gauge, q, v1, p):
    """el_rhs and ham_rhs give the bits or the error text of the cores."""
    system, partition = ham.system, ham.partition
    want = outcome(lambda: in_flow_order(gauge, q, lambda: rk4_oracle._el_core(
        system, partition, gauge, q, v1)[:2]))
    assert outcome(lambda: el_rhs(system, partition, gauge, q, v1)) == want

    def oracle():
        p1, p2 = ham.split_momenta(p)
        c2 = gauge.value(q)
        v = ham.solve_velocity(q, p1, c2)
        phi = p2 - ham.psi(q, p1, v2_probe=c2, v1_guess=v)
        return in_flow_order(gauge, q, lambda: rk4_oracle._ham_core(
            ham, gauge, q, p1, phi, True, v1_guess=v)[:3])

    assert outcome(lambda: ham_rhs(ham, gauge, q, p)) == outcome(oracle)


DEG1 = family()
# n = 3 with W = [[1] * 3] * 3: rank 1, so a gauge fixes two velocities
DEG1_PAIR = MixedHamiltonian(
    LagrangianSystem.from_source(3, "0.5*(v1+v2+v3)^2"),
    HessianPartition(1, (0,), (1, 2), 1e-9, 0))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(gauge_trees, min_size=1, max_size=2), q_points)
@example([Pow(Var(0, "q1"), 1.0)], [-0.0, 1.0])  # -0.0 by value, +0.0 by dual
@example([Div(Var(0, "q1"), Num(3.0))], [0.1, 0.0])  # q1 * (1/3) by dual
# a finite value whose Jacobian overflows without a fault
@example([Mul(Mul(Num(1e300), Var(0, "q1")), Mul(Num(1e300), Var(1, "q2")))],
         [1e-320, 1e-290])
# both expressions fail, the second in its value: the first one's error
@example([Pow(Var(0, "q1"), -1.0), Call("ln", Var(1, "q2"))], [0.0, -1.0])
def test_one_dual_evaluation_per_stage_gives_the_gauge_value_and_jacobian(
        trees, q):
    # a stage's gauge triples must give the bits of value and jacobian, which
    # the oracle calls, or the first failing expression's error; L passes
    # them on.  Two expressions share one try and one finiteness test.
    ham = DEG1 if len(trees) == 1 else DEG1_PAIR
    names = qv_names(ham.n)[:ham.n]
    gauge = GaugeChoice(ham.n, tuple(Expression(t, names, to_source(t))
                                     for t in trees))
    assert_stage_matches_oracle(ham, gauge, q + [0.2] * (ham.n - 2), [0.7],
                                [0.4, 1.1, -0.3][:ham.n])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(gauge_trees, min_size=4, max_size=4), gauge_trees, q_points,
       st.sampled_from((0.0, -0.0, 1.0)) | st.floats(-3.0, 3.0),
       q_points)
# every output of L is finite but their sum overflows: the stage goes on
@example([Num(0.0), Num(1.5e308), Num(1.5e308), Num(0.0)], Num(0.0),
         [0.0, 0.0], 0.5, [0.5, 0.5])
def test_stage_kernels_match_the_oracle_cores(terms, gauge_tree, q, v1, p):
    # random A, B, C, U and gauge: K, the chain rule, R, a varying W11 and
    # both monitors, and every domain or overflow error on the way
    gauge = GaugeChoice(2, (Expression(gauge_tree, QNAMES,
                                       to_source(gauge_tree)),))
    assert_stage_matches_oracle(family(*terms), gauge, q, [v1], p)


# L quartic in v1, whose W11 = 3 v1^2 + 2 + q1 grows with |v1|: from the
# warm start 0 the full Newton step towards p1 = 40 overshoots, so trials
# are rejected before one is accepted.  dL/dq1 = 0.5 v1^2 + v2 reads a
# local of the Newton's evaluations, so p1dot shows which one the stage
# read.  W11 varies, so it is checked and solved by calls, not unrolled,
# also at k = 3.  (n, L, its gauge, q, p1, the warm start)
BACKTRACKING_STAGES = {
    "quartic": (2, "0.25*v1^4 + v1^2 + 0.5*q1*v1^2 + q1*v2", "0.5*sin(q1)",
                [0.3, -0.2], [40.0], [0.0]),
    "quartic_k3": (
        4, "0.25*v1^4 + v1^2 + 0.5*(1+q1^2)*v2^2 + 0.5*v3^2 + 0.2*v1*v3"
        " + 0.5*q1*v1^2 + q2*v4", "0.5*sin(q1)",
        [0.3, -0.2, 0.1, 0.4], [40.0, 0.5, -0.3], [0.0, 0.0, 0.0]),
}


def residual_walk(ham, p1, points):
    """The Newton's verdict on each evaluation after the first, given the
    (q, v) points it evaluated in order: a trial is accepted where its
    residual's max-norm is below its iterate's, else rejected, as is a
    trial whose evaluation fails."""
    active = range(ham.n, ham.n + ham.k)
    norms = []
    for x in points:
        try:
            grad = eval_dual2(ham.system.lagrangian, list(x), active).grad
            norms.append(float(np.abs(np.asarray(p1) - grad).max()))
        except EvalDomainError:
            norms.append(None)
    verdicts, current = [], norms[0]
    for norm in norms[1:]:
        accepted = norm is not None and norm < current
        verdicts.append(accepted)
        current = norm if accepted else current
    return verdicts


@pytest.mark.parametrize("include_r", [True, False])
@pytest.mark.parametrize("name", sorted(BACKTRACKING_STAGES))
def test_a_backtracking_stage_reads_l_at_the_accepted_v(name, include_r,
                                                        monkeypatch):
    # the stage's dy, info and V against the oracle's core from the same
    # warm start, bit for bit: L's full triple must come from the accepted
    # evaluation, not from the warm start's or a rejected trial's
    n, source, gauge_source, q, p1, warm = BACKTRACKING_STAGES[name]
    ham = MixedHamiltonian.from_system(LagrangianSystem.from_source(n,
                                                                    source))
    assert ham.k == len(p1)
    gauge, phi, solver = gauge_of(n, gauge_source), [0.25], ham.solver
    compiles = helpers.record_kernel_compiles(monkeypatch)
    stage = _stage(ham.system, ham.partition, gauge, True, include_r)(
        warm, solver.newton_tol, solver.max_iter, solver.max_backtracks,
        *phi)
    assert "_check_w11(" in compiles[-1][2] and "_gepp(" in compiles[-1][2]
    points, ev = [], stage.__globals__["_ev"]

    def recording(*x):
        points.append(x)
        return ev(*x)

    monkeypatch.setitem(stage.__globals__, "_ev", recording)
    *dy, (v, hs3_res, lv) = stage(True, *q, *p1)
    qdot, p1dot, want_hs3, v1, want_lv = rk4_oracle._ham_core(
        ham, gauge, q, p1, np.array(phi), include_r, v1_guess=warm)
    assert hexes(dy) == hexes(qdot.tolist() + p1dot.tolist())
    assert hexes(v + [hs3_res] + lv) == hexes(
        qdot.tolist() + [want_hs3] + want_lv.tolist())
    cells = dict(zip(stage.__code__.co_freevars, stage.__closure__))
    assert hexes([cells[f"_v{i}"].cell_contents for i in range(ham.k)]) == (
        hexes(v1.tolist()))
    verdicts = residual_walk(ham, p1, points)
    assert False in verdicts[:verdicts.index(True)]  # a rejection first
    assert verdicts[-1]  # V is the last trial, accepted


def test_an_unused_hessian_entry_that_overflows_still_raises():
    # at q1 = 1e-300 only d2L/dq1^2 = -0.25/(q1*sqrt(q1)) overflows: no
    # stage uses it, yet eval_dual2 raises there, and so must the stages
    ham = MixedHamiltonian.from_system(
        LagrangianSystem.from_source(1, "0.5*v1^2 + sqrt(q1)",
                                     {"q1": (1e-300, 1.0)}))
    message = r"^overflow to a non-finite value or derivative in 'sqrt\(q1\)'$"
    with pytest.raises(EvalDomainError, match=message):
        el_rhs(ham.system, ham.partition, None, [1e-300], [0.5])
    with pytest.raises(EvalDomainError, match=message):
        ham_rhs(ham, None, [1e-300], [0.5])


def overflow_system(source):
    system = LagrangianSystem.from_source(1, source, {"q1": (-1.0, 1.0),
                                                     "v1": (-1.0, 1.0)})
    return MixedHamiltonian.from_system(system)


def test_a_node_that_overflows_under_a_finite_output_sum_that_overflows():
    # at (q1, v1) = (1, 0.5) every output of L is finite and their sum
    # overflows; 1e300*1e300 is inf on the way, so eval_dual2's checked
    # rerun raises there, and so must the stages
    ham = overflow_system("0.5*v1^2 + 1e308*exp(q1 - 1) + 1/(1e300*1e300)")
    message = (r"^overflow to a non-finite value or derivative in "
               r"'1e\+300\*1e\+300'$")
    with pytest.raises(EvalDomainError, match=message):
        eval_dual2(ham.system.lagrangian, [1.0, 0.5])
    with pytest.raises(EvalDomainError, match=message):
        el_rhs(ham.system, ham.partition, None, [1.0], [0.5])
    with pytest.raises(EvalDomainError, match=message):
        ham_rhs(ham, None, [1.0], [0.5])


def test_a_finite_output_sum_that_overflows_goes_on():
    # the same point with no node overflowing: eval_dual2 returns, and so
    # do the stages
    ham = overflow_system("0.5*v1^2 + 1e308*exp(q1 - 1)")
    eval_dual2(ham.system.lagrangian, [1.0, 0.5])
    accel, i2_res = el_rhs(ham.system, ham.partition, None, [1.0], [0.5])
    assert (accel.tolist(), i2_res) == ([1e308], 0.0)
    qdot, p1dot, hs3_res = ham_rhs(ham, None, [1.0], [0.5])
    assert (qdot.tolist(), p1dot.tolist(), hs3_res) == ([0.5], [1e308], 0.0)


def test_a_known_zero_factor_keeps_a_non_finite_offset():
    # R_1 = (dC2/dq1) Phi with dC2/dq1 = 0 known: 0.0 * inf is NaN, as the
    # unrolled sum must leave it, so p1dot = dL/dq1 - ... + R_1 is NaN too
    ham = make_ham("deg2")
    gauge = gauge_of(2, "0.5*sin(q2)")
    qdot, p1dot, _ = ham_rhs(ham, gauge, [0.3, 0.2], [0.5, np.inf])
    assert np.isfinite(qdot).all() and np.isnan(p1dot).all()


def test_a_gauge_free_of_q_is_evaluated_once_per_flow(monkeypatch):
    # a stage evaluates its gauge inside the kernel, a constant one not at
    # all: no flow calls eval_dual2 or evaluate on the gauge per stage, and
    # the Hamiltonian flow evaluates it once, for the initial Phi_0
    ham = make_ham("deg1")
    calls = []
    for name in ("eval_dual2", "evaluate"):
        def counting(e, *args, _f=getattr(dynamics, name), _name=name):
            if e in gauge.exprs:
                calls.append(_name)
            return _f(e, *args)
        monkeypatch.setattr(dynamics, name, counting)
    span, dt = (0.0, 0.1), 0.01  # 10 steps: 41 stages
    for source in ("1.0", "0.5*sin(q1)"):
        gauge = gauge_of(2, source)
        integrate_el(ham, gauge, [0.0, 0.3], [1.0], span, dt)
        assert calls == []
        integrate_ham(ham, gauge, [0.0, 0.3], [2.0, 2.5], span, dt)
        assert calls == ["evaluate"]
        calls.clear()


# --------------------------------------------------------------------------
# Euler-Lagrange right-hand side: frozen values
# --------------------------------------------------------------------------

def test_el_rhs_oscillator():
    ham = make_ham("osc")
    accel, res = el_rhs(ham.system, ham.partition, None, [0.7], [0.3])
    assert_allclose(accel, [-0.7], rtol=0, atol=1e-12)
    assert res == 0.0


def test_el_rhs_squared_sum_constant_gauge():
    ham = make_ham("deg1")
    accel, res = el_rhs(
        ham.system, ham.partition, GaugeChoice.constant(2, [1.0]), [0.1, -0.2], [0.5]
    )
    assert_allclose(accel, [0.0], rtol=0, atol=1e-12)
    assert res <= 1e-12


def test_el_rhs_coordinate_coupled_defect_is_v1():
    # rows W vdot = K leave the non-regular row unenforced; for this system
    # its defect equals the regular velocity
    ham = make_ham("deg2")
    accel, res = el_rhs(
        ham.system, ham.partition, GaugeChoice.constant(2, [0.0]), [0.4, 0.9], [1.5]
    )
    assert_allclose(accel, [0.0], rtol=0, atol=1e-12)
    assert_allclose(res, 1.5, rtol=0, atol=1e-12)


def test_el_rhs_gauge_feeds_acceleration():
    # with gauge v2 = q1 the squared-sum system obeys v1' = -v1
    ham = make_ham("deg1")
    g = gauge_of(2, "q1")
    accel, _ = el_rhs(ham.system, ham.partition, g, [0.2, 0.0], [0.8])
    assert_allclose(accel, [-0.8], rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# Euler-Lagrange integration
# --------------------------------------------------------------------------

def test_integrate_el_oscillator_period():
    ham = make_ham("osc")
    traj = integrate_el(ham, None, [1.0], [0.0], (0.0, 2 * np.pi), 1e-3)
    assert_allclose(traj.q[-1], [1.0], rtol=0, atol=1e-8)
    assert_allclose(traj.v[-1], [0.0], rtol=0, atol=1e-8)
    assert_allclose(traj.p, traj.v, rtol=0, atol=1e-15)  # p = dL/dv = v
    assert np.all(np.isnan(traj.hs3_res))
    assert np.all(traj.el_i2_res == 0.0)
    assert traj.phi.shape == (traj.times.size, 0)


def test_integrate_el_squared_sum_linear_motion():
    ham = make_ham("deg1")
    traj = integrate_el(
        ham, GaugeChoice.constant(2, [0.0]), [0.0, 0.3], [1.0], (0.0, 2.0), 1e-3
    )
    assert_allclose(traj.q[:, 0], traj.times, rtol=0, atol=1e-9)
    assert_allclose(traj.q[:, 1], 0.3, rtol=0, atol=1e-9)
    assert_allclose(traj.v[:, 0], 1.0, rtol=0, atol=1e-9)
    # Euler-Lagrange momenta satisfy the constraints identically
    assert np.max(np.abs(traj.phi)) <= 1e-12
    assert np.all(np.isnan(traj.hs3_res))
    assert not np.any(np.isnan(traj.el_i2_res))


def test_integrate_el_validates_span_and_step():
    ham = make_ham("osc")
    with pytest.raises(ValueError):
        integrate_el(ham, None, [1.0], [0.0], (0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        integrate_el(ham, None, [1.0], [0.0], (1.0, 1.0), 1e-3)
    with pytest.raises(ValueError):
        integrate_el(ham, None, [1.0, 2.0], [0.0], (0.0, 1.0), 1e-3)


def test_integrate_el_endpoint_is_exact():
    ham = make_ham("osc")
    traj = integrate_el(ham, None, [1.0], [0.0], (0.0, 1.0), 0.3)
    # 1.0/0.3 rounds to 3 steps of 1/3 each
    assert traj.times.size == 4
    assert traj.times[-1] == 1.0


# --------------------------------------------------------------------------
# Hamiltonian right-hand side: frozen values
# --------------------------------------------------------------------------

def test_ham_rhs_squared_sum():
    ham = make_ham("deg1")
    qdot, p1dot, hs3 = ham_rhs(
        ham, GaugeChoice.constant(2, [1.0]), [0.0, 0.0], [2.0, 5.0]
    )
    assert_allclose(qdot, [1.0, 1.0], rtol=0, atol=1e-10)
    assert_allclose(p1dot, [0.0], rtol=0, atol=1e-10)
    assert hs3 <= 1e-10


def test_ham_rhs_coordinate_coupled():
    # Psi = q1 so the unenforced momentum row has defect |dPsi/dt| = |v1|
    ham = make_ham("deg2")
    qdot, p1dot, hs3 = ham_rhs(
        ham, GaugeChoice.constant(2, [0.0]), [0.3, -0.8], [1.5, 0.3]
    )
    assert_allclose(qdot, [1.5, 0.0], rtol=0, atol=1e-10)
    assert_allclose(p1dot, [0.0], rtol=0, atol=1e-10)
    assert_allclose(hs3, 1.5, rtol=0, atol=1e-10)


def test_composite_derivative_identity():
    # dH/dq after substituting v2 = C2(q) equals -dL/dq + Phi . dC2/dq;
    # the flow uses the analytic right side, this checks it against central
    # differences of the substituted Hamiltonian
    rng = np.random.default_rng(21)
    cases = [
        ("deg1", gauge_of(2, "0.5*q1^2 - q2")),
        ("deg2", gauge_of(2, "sin(q1)*q2")),
        ("deg3", gauge_of(3, "q1 - 0.5*q3^2")),
    ]
    for name, gauge in cases:
        ham = make_ham(name)
        n = ham.n
        for _ in range(5):
            q = rng.uniform(-0.8, 0.8, size=n)
            p = rng.uniform(-1.5, 1.5, size=n)
            c2 = gauge.value(q)
            v1 = ham.solve_velocity(q, p[ham.partition.regular,], c2)
            x = ham.system.point(q, ham.assemble_velocity(v1, c2))
            lq = eval_dual2(ham.system.lagrangian, x, range(n)).grad
            want = -lq + gauge.jacobian(q).T @ ham.phi(q, p, v2_probe=c2)
            got = helpers.fd_gradient(
                lambda qq: ham.value(qq, p, gauge.value(qq)), q, h=1e-6
            )
            assert np.max(np.abs(got - want)) <= 1e-6, (name, got, want)


# --------------------------------------------------------------------------
# Hamiltonian integration
# --------------------------------------------------------------------------

def test_integrate_ham_squared_sum_on_constraint_surface():
    ham = make_ham("deg1")
    traj = integrate_ham(
        ham, GaugeChoice.constant(2, [1.0]), [0.0, 0.0], [2.0, 2.0],
        (0.0, 1.0), 1e-3,
    )
    assert_allclose(traj.q[:, 0], traj.times, rtol=0, atol=1e-10)
    assert_allclose(traj.q[:, 1], traj.times, rtol=0, atol=1e-10)
    assert_allclose(traj.p[:, 0], 2.0, rtol=0, atol=1e-10)
    assert_allclose(traj.p[:, 1], 2.0, rtol=0, atol=1e-10)
    assert np.max(np.abs(traj.phi)) <= 1e-10
    assert np.all(np.isnan(traj.el_i2_res))
    assert np.max(traj.hs3_res) <= 1e-10


def test_integrate_ham_carries_constraint_offset():
    ham = make_ham("deg1")
    traj = integrate_ham(
        ham, GaugeChoice.constant(2, [1.0]), [0.0, 0.0], [2.0, 5.0],
        (0.0, 1.0), 1e-3,
    )
    # constant gauge: R vanishes, the reduced flow is unchanged, and the
    # offset rides along in p2 = Psi + Phi_0
    assert_allclose(traj.q[:, 0], traj.times, rtol=0, atol=1e-10)
    assert_allclose(traj.p[:, 1], 5.0, rtol=0, atol=1e-10)
    assert_allclose(traj.phi, 3.0, rtol=0, atol=1e-10)


def test_integrate_ham_enforce_primary_names_the_violation():
    ham = make_ham("deg1")
    with pytest.raises(PrimaryConstraintError, match=r"phi_1 = 3") as err:
        integrate_ham(
            ham, GaugeChoice.constant(2, [1.0]), [0.0, 0.0], [2.0, 5.0],
            (0.0, 1.0), 1e-3, enforce_primary=True,
        )
    assert_allclose(err.value.values, [3.0], atol=1e-12)
    # data on the surface passes the check
    integrate_ham(
        ham, GaugeChoice.constant(2, [1.0]), [0.0, 0.0], [2.0, 2.0],
        (0.0, 0.01), 1e-3, enforce_primary=True,
    )


def test_integrate_ham_oscillator_matches_hand_coded_rk4():
    ham = make_ham("osc")
    traj = integrate_ham(ham, None, [1.0], [0.0], (0.0, 2.0), 1e-3)

    def rhs(y):
        return np.array([y[1], -y[0]])

    y = np.array([1.0, 0.0])
    h = 1e-3
    for _ in range(2000):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(traj.q[-1, 0] - y[0]) <= 1e-9
    assert abs(traj.p[-1, 0] - y[1]) <= 1e-9


def test_integrate_ham_reconstructed_momentum_rate():
    # p2 = q1 + Phi_0 for the coordinate-coupled system, so dp2/dt = v1 = p1;
    # the flow is quadratic and central differences are exact on it
    ham = make_ham("deg2")
    traj = integrate_ham(
        ham, GaugeChoice.constant(2, [0.5]), [0.1, 0.0], [0.4, 0.1 + 0.2],
        (0.0, 1.0), 1e-3,
    )
    h = traj.times[1] - traj.times[0]
    dp2 = (traj.p[2:, 1] - traj.p[:-2, 1]) / (2 * h)
    assert np.max(np.abs(dp2 - traj.p[1:-1, 0])) <= 1e-9


# --------------------------------------------------------------------------
# the two flows agree
# --------------------------------------------------------------------------

def test_el_and_ham_agree_squared_sum():
    ham = make_ham("deg1")
    g = GaugeChoice.constant(2, [1.0])
    el = integrate_el(ham, g, [0.0, 0.3], [1.0], (0.0, 2.0), 1e-3)
    hm = integrate_ham(ham, g, [0.0, 0.3], [2.0, 2.0], (0.0, 2.0), 1e-3)
    rep = compare_trajectories(el, hm, tol=1e-7)
    assert rep.passed, rep


def test_el_and_ham_agree_nonlinear_gauge():
    ham = make_ham("deg2")
    g = gauge_of(2, "sin(q1)")
    q0 = [0.3, -0.2]
    v10 = [0.7]
    # matching momenta: p = dL/dv at the initial point
    p0 = [0.7, 0.3]
    el = integrate_el(ham, g, q0, v10, (0.0, 2.0), 1e-3)
    hm = integrate_ham(ham, g, q0, p0, (0.0, 2.0), 1e-3, enforce_primary=True)
    rep = compare_trajectories(el, hm, tol=1e-7)
    assert rep.passed, rep
    # both sides report the same physical defect |v1| in their native monitor
    assert_allclose(el.el_i2_res, np.abs(el.v[:, 0]), rtol=0, atol=1e-9)
    assert_allclose(hm.hs3_res, np.abs(hm.v[:, 0]), rtol=0, atol=1e-9)


def test_gauge_invariant_combination():
    # for the squared-sum system q1 + q2 evolves by p1 alone; two different
    # constant gauges with the same initial p1 must produce the same sum
    ham = make_ham("deg1")
    q0 = [0.1, 0.2]
    runs = []
    for c in (1.0, 2.0):
        traj = integrate_ham(
            ham, GaugeChoice.constant(2, [c]), q0, [2.0, 2.0], (0.0, 1.5), 1e-3
        )
        runs.append(traj.q[:, 0] + traj.q[:, 1])
    assert np.max(np.abs(runs[0] - runs[1])) <= 1e-9
    # while the individual coordinates differ by O(1)
    assert abs(1.0 * 1.5) > 1e-1


def test_r_term_negative_control():
    # position-dependent gauge + constraint offset: with the correction terms
    # the reduced flow still matches the Lagrangian one; without them it
    # visibly departs
    ham = make_ham("deg1")
    g = gauge_of(2, "q1")
    q0 = [0.2, 0.0]
    v10 = [0.8]
    p0_offset = [1.0, 4.0]  # dL/dv = (1, 1), so Phi_0 = 3
    el = integrate_el(ham, g, q0, v10, (0.0, 1.0), 1e-3)
    on = integrate_ham(ham, g, q0, p0_offset, (0.0, 1.0), 1e-3, include_r=True)
    off = integrate_ham(ham, g, q0, p0_offset, (0.0, 1.0), 1e-3, include_r=False)
    assert compare_trajectories(el, on, tol=1e-6).passed
    assert compare_trajectories(el, off, tol=1e-6).max_discrepancy > 1e-3
    # analytic check on the broken flow: p1' = -Phi_0 at t = 0
    assert_allclose(off.p[1, 0] - off.p[0, 0], -3.0 * 1e-3, rtol=1e-6)


# --------------------------------------------------------------------------
# the RK4 driver: the hand-rolled loops as oracle, located failures
# --------------------------------------------------------------------------

PROBLEMS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "problems").glob("*.json")
)

# q-dependent gauges, so the gauge Jacobian and the R terms are nonzero
CORPUS_GAUGES = {"deg1": "0.5*sin(q1)", "deg2": "sin(q1)", "deg3": "0.5*sin(q1)"}


def assert_same_trajectory(got, want):
    for channel in ("times", "q", "v", "p", "phi", "el_i2_res", "hs3_res"):
        a, b = getattr(got, channel), getattr(want, channel)
        assert np.array_equal(a, b, equal_nan=True), channel
        # the bytes too: the sign of a zero and the payload of a NaN
        assert (a.shape, a.dtype, a.tobytes()) == (
            b.shape, b.dtype, b.tobytes()), channel
    assert (got.n, got.k, got.regular) == (want.n, want.k, want.regular)


def assert_driver_matches_oracle(ham, gauge, q0=None, v10=None, offset=0.25):
    """Both flows, with and without R, against the hand-rolled loops."""
    n, nonreg = ham.n, list(ham.partition.nonregular)
    q0 = np.linspace(0.1, 0.3, n) if q0 is None else np.asarray(q0)
    v10 = np.linspace(0.4, -0.2, ham.k) if v10 is None else np.asarray(v10)
    c2 = gauge.value(q0) if gauge else np.zeros(0)
    x0 = ham.system.point(q0, ham.assemble_velocity(v10, c2))
    p0 = eval_dual2(ham.system.lagrangian, x0, range(n, 2 * n)).grad
    p0[nonreg] += offset  # off the constraint surface: Phi_0 != 0
    span, dt = (0.0, 0.3), 3e-3
    assert_same_trajectory(
        integrate_el(ham, gauge, q0, v10, span, dt),
        rk4_oracle.integrate_el(ham, gauge, q0, v10, span, dt),
    )
    for include_r in (True, False):
        assert_same_trajectory(
            integrate_ham(ham, gauge, q0, p0, span, dt, include_r=include_r),
            rk4_oracle.integrate_ham(
                ham, gauge, q0, p0, span, dt, include_r=include_r
            ),
        )


@pytest.mark.parametrize("name", sorted(corpus.SYSTEMS))
def test_rk4_driver_matches_hand_rolled_loops_on_corpus(name):
    ham = make_ham(name)
    gauge = gauge_of(ham.n, CORPUS_GAUGES[name]) if ham.n > ham.k else None
    assert_driver_matches_oracle(ham, gauge)


def test_rk4_driver_matches_hand_rolled_loops_on_a_varying_w11():
    # W11 = 1 + q1^2 changes along the flow, so the block solves round;
    # every k = 1 system above has W11 = 1, where any division is exact.
    # dV/dq has two right-hand columns here, each solved as r / w.
    ham = MixedHamiltonian.from_system(LagrangianSystem.from_source(
        2, "0.5*(1+q1^2)*(v1+v2)^2 + 0.3*q2*v1 - 0.5*q1^2"
    ))
    assert ham.k == 1
    assert_driver_matches_oracle(ham, gauge_of(2, "0.5*sin(q1)"))


def test_rk4_driver_matches_hand_rolled_loops_with_two_gauged_velocities():
    # n = 3, k = 1: the gauge Jacobian has two rows, so R and W12 v2dot
    # contract over m = 2 terms (left to right), while the varying 1x1 W11
    # meets dV/dq and dPsi/dp1 with two right-hand columns.  Offsets that
    # are not dyadic make R's products round, so another order would show.
    ham = MixedHamiltonian.from_system(LagrangianSystem.from_source(
        3, "0.5*(1+q1^2)*(v1+v2+v3)^2 + 0.3*q2*v1 + 0.2*q3*v2 - 0.5*q1^2"
    ))
    assert (ham.k, ham.partition.nonregular) == (1, (1, 2))
    assert_driver_matches_oracle(
        ham, gauge_of(3, "0.5*sin(q1)", "0.3*q2*q3 - 0.1*q1"),
        offset=np.array([0.3, -0.7]))


def test_rk4_driver_matches_hand_rolled_loops_on_a_pivoting_2x2_block():
    # W11 = [[0.5 + q1^2, 0.6 + 0.1 q2], [0.6 + 0.1 q2, 0.1]] varies, so
    # gepp picks its pivot row at run time: the second row leads until q1
    # passes about 0.32, the first after
    ham = MixedHamiltonian.from_system(LagrangianSystem.from_source(
        3, "0.5*(0.5+q1^2)*v1^2 + (0.6+0.1*q2)*v1*v2 + 0.05*v2^2 + q3*v3"
        " + 0.5*q1*v2", {f"q{i}": (-1.0, 1.0) for i in (1, 2, 3)}))
    assert ham.partition.regular == (0, 1)
    assert_driver_matches_oracle(ham, gauge_of(3, "0.5*sin(q1)"),
                                 q0=[0.25, 0.1, 0.2], v10=[0.4, 0.3])


@pytest.mark.parametrize("name", ["osc", "deg1", "deg2", "deg3",
                                  "varying_w11"])
def test_rk4_driver_matches_hand_rolled_loops_from_rest_below_the_surface(
        name):
    # velocity -0.0 at q1 = 0, where the gauges vanish too, and Phi_0 < 0:
    # the one-term contractions of the flows meet signed zeros (the
    # oscillator stays at rest, so the sign of each zero reaches its CSV)
    if name == "varying_w11":
        ham = MixedHamiltonian.from_system(LagrangianSystem.from_source(
            2, "0.5*(1+q1^2)*(v1+v2)^2 + 0.3*q2*v1 - 0.5*q1^2"
        ))
        gauge = gauge_of(2, "0.5*sin(q1)")
    else:
        ham = make_ham(name)
        gauge = gauge_of(ham.n, CORPUS_GAUGES[name]) if ham.n > ham.k else None
    assert_driver_matches_oracle(
        ham, gauge, q0=np.linspace(0.0, -0.3, ham.n), v10=-np.zeros(ham.k),
        offset=-0.25)


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_rk4_driver_matches_hand_rolled_loops_on_shipped_problems(path):
    problem = load_problem(str(path))
    ham = MixedHamiltonian.from_system(problem.system)
    gauge = build_gauge(problem, ham)
    q0, v10, p0 = initial_state(ham, gauge, **problem.initial)
    cfg = problem.integrate
    dt = cfg["dt"]
    span = (cfg["t0"], cfg["t0"] + 500 * dt)  # the first 500 of its steps
    enforce = cfg.get("enforce_primary", False)
    assert_same_trajectory(
        integrate_el(ham, gauge, q0, v10, span, dt),
        rk4_oracle.integrate_el(ham, gauge, q0, v10, span, dt),
    )
    assert_same_trajectory(
        integrate_ham(ham, gauge, q0, p0, span, dt, enforce_primary=enforce),
        rk4_oracle.integrate_ham(
            ham, gauge, q0, p0, span, dt, enforce_primary=enforce
        ),
    )


def test_singular_block_in_a_flow_keeps_its_message():
    # W = diag(3 v1^2, 0): at v1 = 0 both right-hand sides meet W11 = 0
    # (Newton converges there at once, since p1 = v1^3 = 0)
    ham = MixedHamiltonian.from_system(
        LagrangianSystem.from_source(2, "0.25*v1^4 + q1*v2")
    )
    gauge = GaugeChoice.constant(2, [0.0])
    for ours, oracle, x10 in (
        (integrate_el, rk4_oracle.integrate_el, [0.0]),
        (integrate_ham, rk4_oracle.integrate_ham, [0.0, 0.5]),
    ):
        args = (ham, gauge, [0.5, 0.0], x10, (0.0, 0.1), 0.01)
        with pytest.raises(SingularJacobianError) as want:
            oracle(*args)
        with pytest.raises(SingularJacobianError) as got:
            ours(*args)
        assert "regular velocity block is singular" in str(want.value)
        assert str(got.value) == f"{want.value} at RK4 step 0 (t = 0)"


def test_singular_2x2_block_in_a_flow_keeps_its_message():
    # W = diag(3 v1^2, 1, 0): at v1 = 0 the 2x2 block W11 = diag(0, 1) is
    # singular, which the closed form leaves to the SVD and its message
    ham = MixedHamiltonian.from_system(
        LagrangianSystem.from_source(3, "0.25*v1^4 + 0.5*v2^2 + q1*v3")
    )
    assert ham.partition.regular == (0, 1)
    gauge = GaugeChoice.constant(3, [0.0])
    for ours, oracle, x10 in (
        (integrate_el, rk4_oracle.integrate_el, [0.0, 0.0]),
        (integrate_ham, rk4_oracle.integrate_ham, [0.0, 0.0, 0.5]),
    ):
        args = (ham, gauge, [0.5, 0.0, 0.0], x10, (0.0, 0.1), 0.01)
        with pytest.raises(SingularJacobianError) as want:
            oracle(*args)
        with pytest.raises(SingularJacobianError) as got:
            ours(*args)
        assert str(want.value).startswith("regular velocity block is singular")
        assert str(want.value).endswith("(smallest singular value 0.000e+00)")
        assert str(got.value) == f"{want.value} at RK4 step 0 (t = 0)"


def test_2x2_flows_take_no_svd(monkeypatch):
    # deg3 has k = 2: every W11 check of both flows is decided in closed
    # form, at each Newton iterate and each RK4 stage
    ham = make_ham("deg3")
    gauge = gauge_of(3, CORPUS_GAUGES["deg3"])
    q0, v10 = [0.1, 0.2, 0.3], [0.4, -0.2]
    p0 = eval_dual2(ham.system.lagrangian,
                    ham.system.point(q0, ham.assemble_velocity(
                        v10, gauge.value(q0))), range(3, 6)).grad
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    span, dt = (0.0, 0.05), 1e-3  # 50 steps
    assert integrate_el(ham, gauge, q0, v10, span, dt).times.size == 51
    assert integrate_ham(ham, gauge, q0, p0, span, dt).times.size == 51
    assert calls == []


def test_singular_block_at_a_stage_that_is_not_recorded():
    # stages 2-4 skip the monitors but must still check W11, with the
    # message of the recorded stage
    ham = MixedHamiltonian.from_system(
        LagrangianSystem.from_source(2, "0.25*v1^4 + q1*v2")
    )
    gauge = GaugeChoice.constant(2, [0.0])
    # (q, v1) and (q, p1), both at v1 = 0; the stages run on float lists.
    # The Hamiltonian stage starts at p1 = 0, where V = 0 at iteration 0,
    # and p2 = Psi = q1, so phi = 0
    y = np.array([0.5, 0.0, 0.0]).tolist()
    _, ham_stage = _ham_rhs(ham, gauge, y[:2], np.zeros(1), np.array([0.5]),
                            True)
    for stage in (_stage(ham.system, ham.partition, gauge)(), ham_stage):
        messages = []
        for monitor in (True, False):
            with pytest.raises(SingularJacobianError) as err:
                stage(monitor, *y)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("regular velocity block is singular")


def test_a_3x3_block_goes_through_check_w11_and_gepp(monkeypatch):
    # k = 3 with a gauge: the stages call check_w11 and gepp, which are not
    # unrolled, and keep the oracle's bits; W11 varies with q1
    calls = []
    for name in ("check_w11", "gepp"):
        def counting(*args, _f=getattr(clairaut, name), _name=name, **kw):
            calls.append(_name)
            return _f(*args, **kw)
        monkeypatch.setattr(clairaut, name, counting)
    ham = MixedHamiltonian.from_system(LagrangianSystem.from_source(
        4, "0.5*(v1^2 + (1+q1^2)*v2^2 + v3^2) + 0.2*v1*v3 + q2*v4 + q4*v1"))
    assert (ham.k, ham.partition.nonregular) == (3, (3,))
    assert_driver_matches_oracle(ham, gauge_of(4, "0.5*sin(q1)"))
    calls.clear()
    span, dt = (0.0, 0.01), 1e-3  # 10 steps: 41 stages, 11 recorded
    integrate_el(ham, gauge_of(4, "0.5*sin(q1)"), [0.1] * 4, [0.2] * 3, span,
                 dt)
    assert calls == ["check_w11", "gepp"] * 41


def test_stage_kernels_compile_lazily_once_per_flow(monkeypatch, tmp_path):
    compiles = helpers.record_kernel_compiles(monkeypatch)
    stage, loop = "<legclair stage kernel>", "<legclair rk4 loop>"

    def sources():  # every kernel but L's and the gauge's own
        return [(name, src) for name, _, src in compiles
                if name not in ("<legclair kernel>",
                                "<legclair stacked kernel>")]

    path = str(PROBLEMS[0])
    # the benchmark's set-up compiles none: an eager compile raised it 27 %
    problem = load_problem(path)
    build_gauge(problem, MixedHamiltonian.from_system(problem.system))
    assert sources() == []
    # the other commands never run the single-point Newton
    report = str(tmp_path / "report.txt")
    for argv in (["analyze", path], ["transform", path, "--grid", "p1=-1:1:3"],
                 ["verify", path]):
        assert main(["--out", report, *argv]) == 0
    assert sources() == []
    out = str(tmp_path / "run")
    assert main(["--out", out, "integrate", path, "--method", "both"]) == 0
    # the Hamiltonian stage runs its own envelope Newton, and the start
    # solves on the stacked body, so no other Newton compiles; both flows
    # carry n + k entries, so they share one RK4 loop
    assert [name for name, _ in sources()] == [stage, loop, stage]
    assert ["def _ev(" in src for _, src in sources()] == [False, False,
                                                           True]
    compiles.clear()
    assert main(["--out", out, "integrate", path, "--method", "el"]) == 0
    assert [name for name, _ in sources()] == [stage, loop]
    # initial momenta find V on the stacked body too: the same kernels
    raw = json.loads(PROBLEMS[0].read_text())
    raw["initial"] = {"q": raw["initial"]["q"], "p": [2.0, 2.0]}
    path = tmp_path / "momenta.json"
    path.write_text(json.dumps(raw))
    compiles.clear()
    assert main(["--out", out, "integrate", str(path), "--method",
                 "both"]) == 0
    assert [name for name, _ in sources()] == [stage, loop, stage]


def test_non_finite_state_stops_the_flow_at_its_step():
    # a free particle ignores q, so no evaluation overflows; with v = 2 and
    # h = 5e307 the step from node 1 (t = h) carries q from 1e308 to inf
    ham = MixedHamiltonian.from_system(
        LagrangianSystem.from_source(1, "0.5*v1^2")
    )
    span, dt = (0.0, 1.5e308), 5e307
    for run in (
        lambda: integrate_el(ham, None, [0.0], [2.0], span, dt),
        lambda: integrate_ham(ham, None, [0.0], [2.0], span, dt),
    ):
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteStateError, match=r"^overflow"
        ) as err:
            run()
        assert (err.value.step, err.value.t) == (1, 5e307)
        assert "at RK4 step 1 (t = 5e+307)" in str(err.value)


def test_domain_error_inside_a_step_names_the_step_and_time():
    # q'' = 4 q^3 from q = v = 1 escapes to infinity before t = 1
    ham = MixedHamiltonian.from_system(
        LagrangianSystem.from_source(1, "0.5*v1^2 + q1^4")
    )
    for run in (
        lambda: integrate_el(ham, None, [1.0], [1.0], (0.0, 3.0), 0.01),
        lambda: integrate_ham(ham, None, [1.0], [1.0], (0.0, 3.0), 0.01),
    ):
        with pytest.raises(EvalDomainError, match=r"^overflow") as err:
            run()
        step, t = err.value.step, err.value.t
        assert 0 < step < 100 and t == 0.01 * step
        assert str(err.value).endswith(f"at RK4 step {step} (t = {t:.6g})")


def test_an_error_at_the_last_node_names_the_last_step(monkeypatch):
    # the recorded first stage of node nsteps, the loop's last call, fails:
    # the error names step nsteps and t = t1 on both flows
    nsteps, span, dt = 4, (0.0, 0.5), 0.125
    make_stage = dynamics._stage

    def failing_at_the_last_node(*args):
        make = make_stage(*args)

        def factory(*bound):
            stage, nodes = make(*bound), []

            def run(monitor, *y):
                if monitor:
                    nodes.append(y)
                    if len(nodes) == nsteps + 1:
                        raise EvalDomainError("overflow", "the last node")
                return stage(monitor, *y)
            return run
        return factory

    monkeypatch.setattr(dynamics, "_stage", failing_at_the_last_node)
    ham, gauge = make_ham("deg2"), GaugeChoice.constant(2, [0.0])
    for run in (
        lambda: integrate_el(ham, gauge, [0.1, 0.2], [0.3], span, dt),
        lambda: integrate_ham(ham, gauge, [0.1, 0.2], [0.3, 0.1], span, dt),
    ):
        with pytest.raises(EvalDomainError) as err:
            run()
        assert (err.value.step, err.value.t) == (nsteps, 0.5)
        assert str(err.value) == ("overflow in 'the last node' at RK4 step 4 "
                                  "(t = 0.5)")


# entries of the drawn states and constants: signed zeros, subnormals,
# magnitudes near 1e300 and the overflow threshold, and ordinary floats
RK4_ENTRIES = st.sampled_from(
    (-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e308, -1.5e308)
) | st.floats(-10.0, 10.0)


@st.composite
def rk4_cases(draw):
    """(recipe, y0, t0, h, nsteps, fail_at) of ``drawn_stage`` runs with a
    state of length m = 1..6."""
    m = draw(st.integers(1, 6))
    entry = st.integers(0, m - 1)
    kinds = st.sampled_from(("sin", "mul", "shift", "scale"))
    recipe = draw(st.lists(st.tuples(kinds, entry, entry, RK4_ENTRIES),
                           min_size=m, max_size=m))
    y0 = draw(st.lists(RK4_ENTRIES, min_size=m, max_size=m))
    nsteps = draw(st.integers(1, 4))
    fail_at = draw(st.none() | st.integers(1, 4 * nsteps + 1))
    return (recipe, y0, draw(st.sampled_from((0.0, -0.0, 1.0, -2.5))),
            draw(st.sampled_from((0.1, 0.5, 1.0, 1e10))), nsteps, fail_at)


def drawn_stage(recipe, fail_at):
    """A stage callable: output j is sin(y_a), y_a * y_b, y_a + c or c * y_a
    for recipe[j] = (kind, a, b, c), and the recorded info is (dy_0, y).
    It raises ``EvalDomainError`` at its call number ``fail_at`` and, as a
    stage kernel's guards do, on a non-finite entry in or out."""
    calls = []

    def stage(monitor, *y):
        calls.append(monitor)
        if len(calls) == fail_at:
            raise EvalDomainError("drawn failure", f"call {fail_at}")
        if not all(map(math.isfinite, y)):
            raise EvalDomainError("overflow", "stage point")
        dy = [math.sin(y[a]) if kind == "sin" else y[a] * y[b]
              if kind == "mul" else y[a] + c if kind == "shift" else c * y[a]
              for kind, a, b, c in recipe]
        if not all(map(math.isfinite, dy)):
            raise EvalDomainError("overflow", "stage output")
        return (*dy, (dy[0], list(y)) if monitor else None)
    return stage


def hexes(xs):
    return [hexes(x) if isinstance(x, list) else float.hex(x) for x in xs]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rk4_cases())
# the update's sum overflows from finite slopes: NonFiniteStateError at step 0
@example(([("shift", 0, 0, 0.0)], [1e308], 0.0, 0.5, 2, None))
# y' = 10 y from 1e300: a slope overflows in step 2
@example(([("scale", 0, 0, 10.0)], [1e300], 0.0, 1.0, 4, None))
# the last node's recorded stage fails
@example(([("sin", 0, 0, 0.0)], [-0.0], 1.0, 0.1, 2, 9))
def test_generated_rk4_loop_matches_the_list_driver(case):
    # every node's time, state and info bit for bit, or the same error with
    # the same step, time and message
    recipe, y0, t0, h, nsteps, fail_at = case
    want, want_err, got_err = [], None, None
    try:
        helpers.rk4_list_driver(
            drawn_stage(recipe, fail_at), list(y0), t0, h, nsteps,
            lambda i, t, y, info: want.append([t, y, *info]))
    except (EvalDomainError, NonFiniteStateError) as exc:
        want_err = exc
    try:
        times, y, (dy0, states) = dynamics._rk4(
            types.SimpleNamespace(_stages={}), drawn_stage(recipe, fail_at),
            list(y0), t0, h, nsteps)
    except (EvalDomainError, NonFiniteStateError) as exc:
        got_err = exc
    if want_err is not None:
        assert type(got_err) is type(want_err)
        assert got_err.step == want_err.step
        assert float.hex(got_err.t) == float.hex(want_err.t)
        assert str(got_err) == str(want_err)
        return
    assert got_err is None
    got = [[t, x, d, state] for t, x, d, state in
           zip(times.tolist(), y.tolist(), dy0.tolist(), states.tolist())]
    assert hexes(got) == hexes(want)


# --------------------------------------------------------------------------
# comparison and serialization
# --------------------------------------------------------------------------

def test_compare_trajectories_identity_and_mismatch():
    ham = make_ham("osc")
    a = integrate_el(ham, None, [1.0], [0.0], (0.0, 0.5), 0.1)
    rep = compare_trajectories(a, a, tol=1e-12)
    assert rep == ComparisonReport(0.0, 0.0, 0.0, 0.0, 1e-12, True)
    b = integrate_el(ham, None, [1.0], [0.0], (0.0, 0.5), 0.05)
    with pytest.raises(ValueError, match="grid"):
        compare_trajectories(a, b)
    other = make_ham("deg1")
    c = integrate_el(
        other, GaugeChoice.constant(2, [0.0]), [0.0, 0.0], [1.0], (0.0, 0.5), 0.1
    )
    with pytest.raises(ValueError, match="different systems"):
        compare_trajectories(a, c)


def test_first_box_exit_names_the_first_node_and_variable():
    traj = helpers.alloc_trajectory(3, 2, 1, (0,))
    traj.times[:] = [0.0, 0.1, 0.2, 0.3]
    traj.q[:] = [[0.0, 0.0], [0.5, 0.0], [0.5, 1.5], [2.0, 3.0]]
    traj.v[:] = [[1.0, 0.0], [1.0, 0.0], [-1.5, 0.0], [1.0, 0.0]]
    lo, hi = np.array([-1.0, -1.0, -1.0, -1.0]), np.array([1.0, 2.0, 1.0, 1.0])
    # node 2 holds the first exit, v1 = -1.5 (q2 = 1.5 is inside its box)
    assert first_box_exit(traj, lo, hi) == (0.2, 2, -1.5)
    hi[1] = 1.0  # now q2 = 1.5 at the same node comes first
    assert first_box_exit(traj, lo, hi) == (0.2, 1, 1.5)
    # the bounds themselves are inside
    assert first_box_exit(traj, np.full(4, -1.5), np.full(4, 3.0)) is None


def test_write_trajectory_csv():
    ham = make_ham("deg1")
    traj = integrate_el(
        ham, GaugeChoice.constant(2, [0.0]), [0.0, 0.0], [1.0], (0.0, 0.2), 0.1
    )
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,q1,q2,v1,v2,p1,p2,phi_1,el_i2_res,hs3_res"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert len(first) == 10
    assert first[0] == "0"
    assert first[-1] == "nan"  # hs3 is not native to this side
    # momenta of this flow are exactly 1 at each node
    assert first[5] == "1"


def test_write_trajectory_csv_regular_system_has_no_phi_columns():
    ham = make_ham("osc")
    traj = integrate_ham(ham, None, [1.0], [0.0], (0.0, 0.2), 0.1)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "t,q1,v1,p1,el_i2_res,hs3_res"


def reference_trajectory_csv(traj):
    """The row loop ``write_trajectory_csv`` ran before it formatted whole
    rows at once, kept as the reference for its bytes."""
    n, k = traj.n, traj.k
    names = qv_names(n)
    header = (
        ["t"] + list(names[:n]) + list(names[n:])
        + [f"p{i + 1}" for i in range(n)]
        + [f"phi_{j + 1}" for j in range(n - k)]
        + ["el_i2_res", "hs3_res"]
    )
    lines = [",".join(header)]
    for i in range(traj.times.size):
        row = (
            [traj.times[i]] + list(traj.q[i]) + list(traj.v[i])
            + list(traj.p[i]) + list(traj.phi[i])
            + [traj.el_i2_res[i], traj.hs3_res[i]]
        )
        lines.append(",".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (2, 2), (1, 1)])
def test_write_trajectory_csv_matches_the_row_loop(n, k):
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308,
               -1e308, 0.1, 1 / 3, 2.5e-17]
    rng = np.random.default_rng(n + 10 * k)
    traj = helpers.alloc_trajectory(6, n, k, range(k))
    for channel in ("times", "q", "v", "p", "phi", "el_i2_res", "hs3_res"):
        values = getattr(traj, channel)
        values[...] = rng.choice(special, values.shape)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue() == reference_trajectory_csv(traj)
    assert "-0," in buf.getvalue() and "nan" in buf.getvalue()


def single_format_table(table, *texts):
    """The one-format formula ``format_table`` replaced, kept as the oracle
    of its bytes: every value through ``%.17g``, every text through
    ``%s``."""
    line = ",".join(["%.17g"] * table.shape[1] + ["%s"] * len(texts)) + "\n"
    rows = table.tolist()
    entries = list(zip(*texts)) if texts else [()] * len(rows)
    return "".join(line % (*row, *entry) for row, entry in zip(rows, entries))


def _nan(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# NaNs of both signs and of other payloads than numpy's
TABLE_CONSTANTS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   _nan(0x7FF8000000000001), _nan(0xFFF0000000000002), 1.0,
                   5e-324, -1e308, 0.1)
table_entries = st.sampled_from(TABLE_CONSTANTS) | st.floats()


@st.composite
def drawn_tables(draw):
    """(table, texts): columns that are constant, constant but in one row,
    or free, then zero to two text columns."""
    count = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("constant", "all but one", "free")))
        if kind == "free":
            column = draw(st.lists(table_entries, min_size=count,
                                   max_size=count))
        else:
            column = [draw(st.sampled_from(TABLE_CONSTANTS))] * count
            if kind == "all but one":
                column[draw(st.integers(0, count - 1))] = draw(table_entries)
        columns.append(column)
    texts = draw(st.lists(st.lists(st.sampled_from(("ok", "domain", "x,y")),
                                   min_size=count, max_size=count),
                          max_size=2))
    return np.array(columns, dtype=float).T.copy(), texts


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(drawn_tables())
# a single row: every column is constant, the template has no field
@example((np.array([[0.0, -0.0, math.nan]]), []))
# 0.0 and -0.0 share a column: not constant
@example((np.array([[0.0], [-0.0], [0.0]]), [["ok", "ok", "domain"]]))
def test_format_table_matches_the_single_format(case):
    table, texts = case
    assert dynamics.format_table(table, *texts) == single_format_table(
        table, *texts)
