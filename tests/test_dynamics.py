import io
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import corpus
import helpers
import rk4_oracle
from legclair.clairaut import MixedHamiltonian, SingularJacobianError
from legclair.cli import _initial_data, build_gauge, load_problem
from legclair.dynamics import (
    ComparisonReport,
    GaugeChoice,
    NonFiniteStateError,
    PrimaryConstraintError,
    compare_trajectories,
    el_rhs,
    ham_rhs,
    integrate_el,
    integrate_ham,
    write_trajectory_csv,
)
from legclair.expr import EvalDomainError, eval_dual2
from legclair.partition import LagrangianSystem, qv_names


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
        assert np.array_equal(
            getattr(got, channel), getattr(want, channel), equal_nan=True
        ), channel
    assert (got.n, got.k, got.regular) == (want.n, want.k, want.regular)


@pytest.mark.parametrize("name", sorted(corpus.SYSTEMS))
def test_rk4_driver_matches_hand_rolled_loops_on_corpus(name):
    ham = make_ham(name)
    n, nonreg = ham.n, list(ham.partition.nonregular)
    gauge = gauge_of(n, CORPUS_GAUGES[name]) if nonreg else None
    q0 = np.linspace(0.1, 0.3, n)
    v10 = np.linspace(0.4, -0.2, ham.k)
    c2 = gauge.value(q0) if gauge else np.zeros(0)
    x0 = ham.system.point(q0, ham.assemble_velocity(v10, c2))
    p0 = eval_dual2(ham.system.lagrangian, x0, range(n, 2 * n)).grad
    p0[nonreg] += 0.25  # off the constraint surface: Phi_0 != 0
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


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.stem)
def test_rk4_driver_matches_hand_rolled_loops_on_shipped_problems(path):
    problem = load_problem(str(path))
    ham = MixedHamiltonian.from_system(problem.system)
    gauge = build_gauge(problem, ham)
    q0, v10, p0 = _initial_data(problem, ham, gauge)
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
