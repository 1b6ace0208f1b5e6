"""Gauge-fixed dynamics on both sides of the transform.

A singular velocity Hessian leaves the non-regular velocities undetermined,
so trajectories only exist once those velocities are fixed by a gauge choice
v2 = C2(q).  This module integrates the Euler-Lagrange flow and the mixed
Hamiltonian flow under the same gauge and provides the diagnostics that make
the two comparable:

* ``el_i2_res`` - the defect of the non-regular Euler-Lagrange rows, which
  the gauge-fixed flow does not enforce;
* ``hs3_res`` - the defect of the non-regular momentum equation on the
  Hamiltonian side, measuring the same physical quantity through the
  constraint function Psi instead;
* ``phi`` - the primary-constraint values along the trajectory.

The momentum equations on the Hamiltonian side carry correction terms
R_i = sum_j Phi_j dC2_j/dq_i.  The position-space gradient of H appearing in
those equations is the *composite* one, taken after substituting v2 = C2(q),
and satisfies the exact identity

    dH/dq|_comp = -dL/dq + Phi . dC2/dq

at the envelope point.  Adding R back therefore cancels the gauge-induced
term for the regular rows: p1 evolves by dL/dq1 alone and the reduced flow
is independent of the constraint offset.  ``include_r=False`` switches the
correction off; with a nonzero constraint offset this visibly breaks the
equivalence with the Lagrangian flow, which is the intended negative
control.

On the Hamiltonian side only (q, p1) is integrated.  The non-regular momenta
are reconstructed as p2 = Psi(q, p1) + Phi_0 with the constant initial
offset Phi_0; this is exact because the corrected momentum equation forces
d(p2)/dt = d(Psi)/dt.

Both flows run on one RK4 driver, which names the step and time of any
failure.  Their right-hand sides build the index plan once per run and test
W11 with the envelope solver's own check, ``clairaut.check_w11``, at every
stage.  The monitors above come from the recorded stage only, the first of
each step: the other three stages return the derivative alone.

Every W11 solve goes through ``clairaut.solve_block``.  A 1×1 block with one
right-hand column is solved as b / w, bit for bit what LAPACK returns.  With
several columns (dV/dq whenever n >= 2) OpenBLAS multiplies by 1/w, which
rounds differently, so those solves, and every block with k >= 2, stay on
LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    check_w11,
    solve_block,
)
from .expr import EvalDomainError, Expression, eval_dual2, evaluate, parse
from .partition import (
    HessianPartition,
    LagrangianSystem,
    checked_vector,
    qv_names,
)

__all__ = [
    "GaugeChoice",
    "PrimaryConstraintError",
    "NonFiniteStateError",
    "Trajectory",
    "ComparisonReport",
    "el_rhs",
    "ham_rhs",
    "integrate_el",
    "integrate_ham",
    "compare_trajectories",
    "write_trajectory_csv",
    "PRIMARY_TOL",
]

PRIMARY_TOL = 1e-8


class PrimaryConstraintError(Exception):
    """Initial Hamiltonian data sits off the primary constraint surface."""

    def __init__(self, message, values):
        super().__init__(message)
        self.values = np.asarray(values, dtype=float)


@dataclass(frozen=True)
class GaugeChoice:
    """A gauge v2 = C2(q): one expression per non-regular velocity.

    The expressions are functions of the positions only, parsed over the
    table (q1, ..., qn).
    """

    n: int
    exprs: tuple

    def __post_init__(self):
        qnames = qv_names(self.n)[: self.n]
        for e in self.exprs:
            if not isinstance(e, Expression) or tuple(e.variables) != qnames:
                raise ValueError(
                    f"gauge expressions must be parsed over {qnames}"
                )

    @classmethod
    def from_sources(cls, n, sources):
        qnames = qv_names(n)[:n]
        return cls(n, tuple(parse(s, qnames) for s in sources))

    @classmethod
    def constant(cls, n, values):
        vals = [float(v) for v in values]
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("gauge constants must be finite")
        return cls.from_sources(n, [repr(v) for v in vals])

    def value(self, q) -> np.ndarray:
        return np.array([evaluate(e, q) for e in self.exprs])

    def jacobian(self, q) -> np.ndarray:
        """dC2/dq, shape (n - k, n)."""
        if not self.exprs:
            return np.zeros((0, self.n))
        return np.array([eval_dual2(e, q).grad for e in self.exprs])


def _resolve_gauge(gauge, partition: HessianPartition, n: int) -> GaugeChoice:
    m = n - partition.k
    if gauge is None:
        if m:
            raise ValueError(
                f"the system leaves {m} velocity component(s) unresolved; "
                "a gauge choice is required"
            )
        return GaugeChoice(n, ())
    if gauge.n != n or len(gauge.exprs) != m:
        raise ValueError(
            f"gauge fixes {len(gauge.exprs)} velocity component(s), "
            f"expected {m}"
        )
    return gauge


def _validate_span(t_span, dt):
    t0, t1 = (float(t) for t in t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        raise ValueError(f"need t1 > t0, got t_span = ({t0}, {t1})")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"need a positive finite step, got dt = {dt}")
    nsteps = max(1, int(round((t1 - t0) / dt)))
    return t0, t1, nsteps, (t1 - t0) / nsteps


# --------------------------------------------------------------------------
# The RK4 driver
# --------------------------------------------------------------------------

class NonFiniteStateError(ArithmeticError):
    """An RK4 step left the state with an inf or NaN entry."""


def _rk4(rhs, y0, t0, h, nsteps, record):
    """Classical RK4 over the nodes t0 + i*h, i = 0..nsteps.

    ``rhs(y, monitor)`` returns (dy/dt, info); ``record(i, t, y, info)``
    stores node i from its first stage.  Only that stage is called with
    ``monitor`` true: the other three return info None and skip the
    diagnostics nothing records.  Step i starts at node i (step nsteps only
    records).  Errors raised in step i, including ``NonFiniteStateError``
    when it leaves y non-finite, get ``step``/``t`` attributes and
    "at RK4 step i (t = ...)" appended to their message.
    """
    y = y0
    for i in range(nsteps + 1):
        t = t0 + i * h
        try:
            k1, info = rhs(y, True)
            record(i, t, y, info)
            if i == nsteps:
                break
            k2, _ = rhs(y + 0.5 * h * k1, False)
            k3, _ = rhs(y + 0.5 * h * k2, False)
            k4, _ = rhs(y + h * k3, False)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise NonFiniteStateError("overflow to a non-finite state")
        except (EvalDomainError, SingularJacobianError, NewtonDivergedError,
                NonFiniteStateError) as exc:
            exc.step, exc.t = i, t
            exc.args = (f"{exc} at RK4 step {i} (t = {t:.6g})",)
            raise


# --------------------------------------------------------------------------
# Euler-Lagrange side
# --------------------------------------------------------------------------

def _el_field(system: LagrangianSystem, partition, gauge):
    """The gauge-fixed Euler-Lagrange right-hand side on y = (q, v1).

    It solves the regular rows  W11 a1 = K1 - W12 v2dot  of
    W vdot = K,  K_i = dL/dq_i - sum_j (d2L/dv_i dq_j) v_j,
    with v2dot from the chain rule through the gauge.  ``rhs(y, monitor)``
    returns ((v, a1), (non-regular row defect, full velocity v, dL/dv)),
    with None in place of the second entry when ``monitor`` is false.
    """
    n, k = system.n, partition.k
    lag, tol = system.lagrangian, partition.rank_tolerance
    reg = np.asarray(partition.regular, dtype=int)
    nonreg = np.asarray(partition.nonregular, dtype=int)
    v1_slots, v2_slots = n + reg, n + nonreg
    w11_ix, w12_ix = np.ix_(reg, reg), np.ix_(reg, nonreg)

    def rhs(y, monitor):
        q = y[:n]
        x = np.empty(2 * n)
        x[:n] = q
        x[v1_slots] = y[n:]
        x[v2_slots] = gauge.value(q)
        v = x[n:]
        d = eval_dual2(lag, x)
        lq = d.grad[:n]
        lv = d.grad[n:]
        w = d.hess[n:, n:]
        kvec = lq - d.hess[n:, :n] @ v
        v2dot = gauge.jacobian(q) @ v
        if k:
            w11 = w[w11_ix]
            check_w11(w11, tol, "regular velocity block is singular at",
                      q=q, v=v)
            accel1 = solve_block(w11, kvec[reg] - w[w12_ix] @ v2dot)
        else:
            accel1 = np.zeros(0)
        dy = np.concatenate([v, accel1])
        if not monitor:
            return dy, None
        vdot = np.empty(n)
        vdot[reg] = accel1
        vdot[nonreg] = v2dot
        defect = w[nonreg] @ vdot - kvec[nonreg]
        i2_res = float(np.max(np.abs(defect))) if defect.size else 0.0
        return dy, (i2_res, v, lv)

    return rhs


def el_rhs(system, partition, gauge, q, v1):
    """Gauge-fixed regular accelerations and the non-regular row defect."""
    gauge = _resolve_gauge(gauge, partition, system.n)
    y = np.concatenate([
        checked_vector(q, system.n, "q"),
        checked_vector(v1, partition.k, "v1"),
    ])
    dy, (i2_res, _, _) = _el_field(system, partition, gauge)(y, True)
    return dy[system.n:], i2_res


def integrate_el(ham: MixedHamiltonian, gauge, q0, v10, t_span, dt):
    """Integrate the gauge-fixed Euler-Lagrange flow with fixed-step RK4.

    State is (q, v1); the non-regular velocities follow the gauge.  Momenta,
    primary-constraint values and the non-regular row defect are recorded at
    every node.
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    gauge = _resolve_gauge(gauge, partition, n)
    t0, _, nsteps, h = _validate_span(t_span, dt)
    y0 = np.concatenate([
        checked_vector(q0, n, "q0"), checked_vector(v10, k, "v10"),
    ])
    reg, nonreg = ham._reg, ham._nonreg
    traj = _alloc(nsteps, n, k, partition.regular)

    def record(i, t, y, info):
        i2_res, v, lv = info
        q = y[:n]
        traj.times[i] = t
        traj.q[i] = q
        traj.v[i] = v
        traj.p[i] = lv
        psi = ham.psi(q, lv[reg], v2_probe=v[nonreg], v1_guess=y[n:])
        traj.phi[i] = lv[nonreg] - psi
        traj.el_i2_res[i] = i2_res

    _rk4(_el_field(system, partition, gauge), y0, t0, h, nsteps, record)
    return traj


# --------------------------------------------------------------------------
# Hamiltonian side
# --------------------------------------------------------------------------

def _ham_field(ham: MixedHamiltonian, gauge, phi, include_r, v1):
    """The mixed-Hamiltonian right-hand side on y = (q, p1) at constraint
    values ``phi``: ``rhs(y, monitor)`` returns ((qdot, p1dot), (qdot,
    ``hs3_res``, dL/dv)).  When ``monitor`` is false the second entry is
    None and ``hs3_res`` is not built, but W11 is still checked.

    Each call warm-starts the envelope solve at the previous call's v1 (the
    first at ``v1``).  dH/dq is the composite derivative from the module
    docstring.  ``hs3_res`` is the residual of the non-regular momentum
    equation given that p2 is reconstructed from Psi:

        d(Psi)/dt + dH/dq2|_comp - R2   (R2 dropped when include_r=False)

    with d(Psi)/dt assembled by the chain rule through
    dV/dp1 = W11^{-1} and dV/dq = -W11^{-1} (d2L/dv1 dq + W12 dC2/dq).
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    m = n - k
    lag, tol = system.lagrangian, partition.rank_tolerance
    reg, nonreg = ham._reg, ham._nonreg
    v1_slots, v2_slots = n + reg, n + nonreg
    w11_ix, w12_ix = np.ix_(reg, reg), np.ix_(reg, nonreg)
    w21_ix, w22_ix = np.ix_(nonreg, reg), np.ix_(nonreg, nonreg)

    def rhs(y, monitor):
        nonlocal v1
        q, p1 = y[:n], y[n:]
        c2 = gauge.value(q)
        v1 = ham.solve_velocity(q, p1, c2, v1)
        x = np.empty(2 * n)
        x[:n] = q
        x[v1_slots] = v1
        x[v2_slots] = c2
        qdot = x[n:]
        d = eval_dual2(lag, x)
        lq = d.grad[:n]
        lv = d.grad[n:]
        w = d.hess[n:, n:]
        lvq = d.hess[n:, :n]
        gjac = gauge.jacobian(q)
        r_full = gjac.T @ phi
        dhdq = -lq + r_full
        p1dot = -dhdq[reg] + (r_full[reg] if include_r else 0.0)
        if k and m:
            w11 = w[w11_ix]
            check_w11(w11, tol, "regular velocity block is singular at", q=q)
        dy = np.concatenate([qdot, p1dot])
        if not monitor:
            return dy, None
        hs3_res = 0.0
        if m:
            w12 = w[w12_ix]
            w21 = w[w21_ix]
            if k:
                dvdq = -solve_block(w11, lvq[reg] + w12 @ gjac)
                dpsi_dp1 = solve_block(w11.T, w21.T).T
            else:
                dvdq = np.zeros((0, n))
                dpsi_dp1 = np.zeros((m, 0))
            dpsi_dq = lvq[nonreg] + w21 @ dvdq + w[w22_ix] @ gjac
            psidot = dpsi_dq @ qdot + dpsi_dp1 @ p1dot
            r2 = r_full[nonreg] if include_r else 0.0
            hs3_res = float(np.max(np.abs(dhdq[nonreg] + psidot - r2)))
        return dy, (qdot, hs3_res, lv)

    return rhs


def ham_rhs(ham: MixedHamiltonian, gauge, q, p, include_r=True):
    """Mixed-Hamiltonian velocities and regular momentum rates at (q, p).

    Returns (qdot, p1dot, ``hs3_res``).  Constraint values are computed from
    the supplied momenta.
    """
    gauge = _resolve_gauge(gauge, ham.partition, ham.n)
    p1, p2 = ham.split_momenta(p)
    c2 = gauge.value(q)
    v1 = ham.solve_velocity(q, p1, c2)
    phi = p2 - ham.psi(q, p1, v2_probe=c2, v1_guess=v1)
    rhs = _ham_field(ham, gauge, phi, include_r, v1)
    dy, (qdot, hs3_res, _) = rhs(np.concatenate([q, p1]), True)
    return qdot, dy[ham.n:], hs3_res


def integrate_ham(
    ham: MixedHamiltonian,
    gauge,
    q0,
    p0,
    t_span,
    dt,
    enforce_primary=False,
    include_r=True,
):
    """Integrate the mixed Hamiltonian flow with fixed-step RK4.

    Only (q, p1) is integrated; p2 is reconstructed as Psi + Phi_0.  With
    ``enforce_primary`` the initial momenta must satisfy the primary
    constraints to within PRIMARY_TOL.
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    gauge = _resolve_gauge(gauge, partition, n)
    t0, _, nsteps, h = _validate_span(t_span, dt)
    reg, nonreg = ham._reg, ham._nonreg
    q = checked_vector(q0, n, "q0")
    p0 = checked_vector(p0, n, "p0")
    p1 = p0[reg]

    c2 = gauge.value(q)
    v1 = ham.solve_velocity(q, p1, c2)
    phi0 = p0[nonreg] - ham.psi(q, p1, v2_probe=c2, v1_guess=v1)
    if enforce_primary and phi0.size and np.max(np.abs(phi0)) > PRIMARY_TOL:
        bad = ", ".join(
            f"phi_{j + 1} = {val:.6g}"
            for j, val in enumerate(phi0)
            if abs(val) > PRIMARY_TOL
        )
        raise PrimaryConstraintError(
            f"initial momenta violate the primary constraints: {bad} "
            f"(tolerance {PRIMARY_TOL:g})",
            phi0,
        )

    traj = _alloc(nsteps, n, k, partition.regular)

    def record(i, t, y, info):
        qdot, hs3_res, lv = info
        p2 = lv[nonreg] + phi0
        traj.times[i] = t
        traj.q[i] = y[:n]
        traj.v[i] = qdot
        traj.p[i][reg] = y[n:]
        traj.p[i][nonreg] = p2
        traj.phi[i] = p2 - lv[nonreg]
        traj.hs3_res[i] = hs3_res

    rhs = _ham_field(ham, gauge, phi0, include_r, v1)
    _rk4(rhs, np.concatenate([q, p1]), t0, h, nsteps, record)
    return traj


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled flow with per-node diagnostics.

    Channels that are not native to the producing side hold NaN: the
    Euler-Lagrange integrator fills ``el_i2_res`` and leaves ``hs3_res``
    NaN, and vice versa.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    el_i2_res: np.ndarray
    hs3_res: np.ndarray
    n: int
    k: int
    regular: tuple


def _alloc(nsteps, n, k, regular) -> Trajectory:
    nodes = nsteps + 1
    return Trajectory(
        times=np.empty(nodes),
        q=np.empty((nodes, n)),
        v=np.empty((nodes, n)),
        p=np.empty((nodes, n)),
        phi=np.empty((nodes, n - k)),
        el_i2_res=np.full(nodes, np.nan),
        hs3_res=np.full(nodes, np.nan),
        n=n,
        k=k,
        regular=tuple(regular),
    )


@dataclass(frozen=True)
class ComparisonReport:
    dq: float
    dv: float
    dp1: float
    max_discrepancy: float
    tol: float
    passed: bool


def compare_trajectories(a: Trajectory, b: Trajectory, tol=1e-6):
    """Sup-norm discrepancies over q, v and the regular momenta.

    The non-regular momenta are excluded: the two sides may legitimately
    differ there by the constant constraint offset chosen for the
    Hamiltonian initial data.
    """
    if a.n != b.n or a.k != b.k or tuple(a.regular) != tuple(b.regular):
        raise ValueError("trajectories come from different systems")
    if a.times.shape != b.times.shape or (
        float(np.max(np.abs(a.times - b.times))) > 1e-12
    ):
        raise ValueError("trajectories use different time grids")
    reg = list(a.regular)
    dq = float(np.max(np.abs(a.q - b.q)))
    dv = float(np.max(np.abs(a.v - b.v)))
    dp1 = float(np.max(np.abs(a.p[:, reg] - b.p[:, reg]))) if reg else 0.0
    worst = max(dq, dv, dp1)
    return ComparisonReport(dq, dv, dp1, worst, float(tol), worst <= tol)


def write_trajectory_csv(traj: Trajectory, path):
    """Write one trajectory as delimited text, 17 significant digits."""
    n, k = traj.n, traj.k
    names = qv_names(n)
    header = (
        ["t"]
        + list(names[:n])
        + list(names[n:])
        + [f"p{i + 1}" for i in range(n)]
        + [f"phi_{j + 1}" for j in range(n - k)]
        + ["el_i2_res", "hs3_res"]
    )
    lines = [",".join(header)]
    for i in range(traj.times.size):
        row = (
            [traj.times[i]]
            + list(traj.q[i])
            + list(traj.v[i])
            + list(traj.p[i])
            + list(traj.phi[i])
            + [traj.el_i2_res[i], traj.hs3_res[i]]
        )
        lines.append(",".join("%.17g" % x for x in row))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
