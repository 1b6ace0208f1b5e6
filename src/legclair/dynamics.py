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

The RK4 state, the stage points and all per-stage algebra, the monitors
and the envelope Newton (``EnvelopeSolver.iterate``) included, are lists
of Python floats, and their bits are fixed by Python's float arithmetic
in a fixed order: every contraction (K, the gauge chain rule, R, the
blocks of d(Psi)/dt) is ``clairaut.contract``, summed left to right, and
every W11 solve is ``clairaut.gepp``, Gaussian elimination with partial
pivoting in a fixed order.  No output depends on the BLAS kernel.

The gauge takes one evaluation per stage: one ``eval_dual2`` per
expression, whose value is C2.  A gauge free of q is evaluated once per
run, and R with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    _inf_norm,
    check_w11,
    contract,
    gepp,
)
from .expr import (
    EvalDomainError,
    Expression,
    Var,
    _nodes,
    eval_dual2,
    evaluate,
    parse,
)
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
# The RK4 driver and the per-stage algebra on float lists
# --------------------------------------------------------------------------

class NonFiniteStateError(ArithmeticError):
    """An RK4 step left the state with an inf or NaN entry."""


def _rk4(rhs, y0, t0, h, nsteps, record):
    """Classical RK4 over the nodes t0 + i*h, i = 0..nsteps, on a state
    held as a list of floats.

    ``rhs(y, monitor)`` returns (dy/dt, info); ``record(i, t, y, info)``
    stores node i from its first stage.  Only that stage is called with
    ``monitor`` true: the other three return info None and skip the
    diagnostics nothing records.  Step i starts at node i (step nsteps only
    records).  Errors raised in step i, including ``NonFiniteStateError``
    when it leaves y non-finite, get ``step``/``t`` attributes and
    "at RK4 step i (t = ...)" appended to their message.
    """
    y = y0
    half, sixth = 0.5 * h, h / 6.0
    for i in range(nsteps + 1):
        t = t0 + i * h
        try:
            k1, info = rhs(y, True)
            record(i, t, y, info)
            if i == nsteps:
                break
            k2, _ = rhs([a + half * b for a, b in zip(y, k1)], False)
            k3, _ = rhs([a + half * b for a, b in zip(y, k2)], False)
            k4, _ = rhs([a + h * b for a, b in zip(y, k3)], False)
            y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y)):
                raise NonFiniteStateError("overflow to a non-finite state")
        except (EvalDomainError, SingularJacobianError, NewtonDivergedError,
                NonFiniteStateError) as exc:
            exc.step, exc.t = i, t
            exc.args = (f"{exc} at RK4 step {i} (t = {t:.6g})",)
            raise


def _dot(a, x) -> list:
    """a x as a float list, for a matrix ``a`` given as float rows: one
    :func:`~legclair.clairaut.contract` per row."""
    return [contract(row, x) for row in a]


def _gauge_terms(gauge: GaugeChoice, phi=None):
    """The gauge at one stage: a function q -> (C2, dC2/dq rows, R), all
    float lists, with R = (dC2/dq)^T phi (None without ``phi``).

    Each expression is evaluated once, by ``eval_dual2``, whose value has
    ``evaluate``'s bits.  A failing evaluation raises ``value``'s error if
    the value fails too, as ``value`` runs first in a stage.  A gauge free
    of q (constant, or no gauge) is evaluated once, at the first stage, and
    R with it.
    """
    exprs, n = gauge.exprs, gauge.n

    def terms(q):
        try:
            duals = [eval_dual2(e, q) for e in exprs]
        except EvalDomainError:
            gauge.value(q)
            raise
        jac = [d.floats()[0] for d in duals]
        if phi is None:
            r = None
        else:
            r = _dot(zip(*jac), phi) if jac else [0.0] * n
        return [d.value for d in duals], jac, r

    if any(isinstance(x, Var) for e in exprs for x in _nodes(e.root)):
        return terms
    once = []

    def constant(q):
        if not once:
            once.append(terms(q))
        return once[0]

    return constant


def _block(hess, rows, cols) -> list:
    """The block of a Hessian given as float rows."""
    return [[hess[i][j] for j in cols] for i in rows]


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
    reg, nonreg = list(partition.regular), list(partition.nonregular)
    v1_slots, v2_slots = [n + i for i in reg], [n + j for j in nonreg]
    gauge_at = _gauge_terms(gauge)

    def rhs(y, monitor):
        q = y[:n]
        c2, jac, _ = gauge_at(q)
        v = [0.0] * n
        for i, x in zip(reg, y[n:]):
            v[i] = x
        for j, x in zip(nonreg, c2):
            v[j] = x
        d = eval_dual2(lag, q + v)
        grad, hess = d.floats()
        lvq = [row[:n] for row in hess[n:]]
        kvec = [a - b for a, b in zip(grad[:n], _dot(lvq, v))]
        v2dot = _dot(jac, v)
        w11 = _block(hess, v1_slots, v1_slots)
        if k:
            check_w11(w11, tol, "regular velocity block is singular at",
                      q=q, v=v)
        w12 = _block(hess, v1_slots, v2_slots)
        accel1 = gepp(w11, [[kvec[i] - b for i, b in
                             zip(reg, _dot(w12, v2dot))]])[0]
        dy = v + accel1
        if not monitor:
            return dy, None
        defect = []
        if nonreg:
            vdot = [0.0] * n
            for i, a in zip(reg, accel1):
                vdot[i] = a
            for j, a in zip(nonreg, v2dot):
                vdot[j] = a
            w2 = [hess[n + j][n:] for j in nonreg]
            defect = [a - kvec[j] for a, j in zip(_dot(w2, vdot), nonreg)]
        return dy, (_inf_norm(defect), v, grad[n:])

    return rhs


def el_rhs(system, partition, gauge, q, v1):
    """Gauge-fixed regular accelerations and the non-regular row defect."""
    gauge = _resolve_gauge(gauge, partition, system.n)
    y = (checked_vector(q, system.n, "q").tolist()
         + checked_vector(v1, partition.k, "v1").tolist())
    dy, (i2_res, _, _) = _el_field(system, partition, gauge)(y, True)
    return np.array(dy[system.n:]), i2_res


def integrate_el(ham: MixedHamiltonian, gauge, q0, v10, t_span, dt):
    """Integrate the gauge-fixed Euler-Lagrange flow with fixed-step RK4.

    State is (q, v1); the non-regular velocities follow the gauge.  Momenta
    p = dL/dv and the non-regular row defect are recorded at every node.
    The momenta lie on the Legendre image, where the primary constraints
    hold identically: Phi = p2 - Psi(q, p1) is 0 by construction (the
    envelope solve at p1 = dL/dv1 returns v1 itself, and dL/dv2 has the
    same bits for every active set), so its column is recorded as 0.0.
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    gauge = _resolve_gauge(gauge, partition, n)
    t0, _, nsteps, h = _validate_span(t_span, dt)
    y0 = (checked_vector(q0, n, "q0").tolist()
          + checked_vector(v10, k, "v10").tolist())
    phi = [0.0] * (n - k)
    rows = []

    def record(i, t, y, info):
        i2_res, v, lv = info
        rows.append((t, y[:n], v, lv, phi, i2_res))

    _rk4(_el_field(system, partition, gauge), y0, t0, h, nsteps, record)
    return _trajectory(rows, n, k, partition.regular, el=True)


# --------------------------------------------------------------------------
# Hamiltonian side
# --------------------------------------------------------------------------

def _ham_field(ham: MixedHamiltonian, gauge, q, p1, p2, include_r):
    """(phi, rhs) for the mixed-Hamiltonian flow from (q, p1, p2): the
    constraint values phi = p2 - Psi(q, p1), from the envelope solve at
    v2 = C2(q), and the right-hand side on y = (q, p1) at those values.
    ``rhs(y, monitor)`` returns ((qdot, p1dot), (qdot, ``hs3_res``,
    dL/dv)).  When ``monitor`` is false the second entry is None and
    ``hs3_res`` is not built, but W11 is still checked.

    Each call warm-starts the envelope solve at the previous call's v1 (the
    first at the start's V).  dH/dq is the composite derivative from the
    module docstring.  ``hs3_res`` is the residual of the non-regular
    momentum equation given that p2 is reconstructed from Psi:

        d(Psi)/dt + dH/dq2|_comp - R2   (R2 dropped when include_r=False)

    with d(Psi)/dt assembled by the chain rule through
    dV/dp1 = W11^{-1} and dV/dq = -W11^{-1} (d2L/dv1 dq + W12 dC2/dq).
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    m = n - k
    lag, tol = system.lagrangian, partition.rank_tolerance
    reg, nonreg = list(partition.regular), list(partition.nonregular)
    v1_slots, v2_slots = [n + i for i in reg], [n + j for j in nonreg]
    c2 = gauge.value(q)
    v1 = ham.solve_velocity(q, p1, c2)
    phi = p2 - ham.psi(q, p1, v2_probe=c2, v1_guess=v1)
    gauge_at = _gauge_terms(gauge, phi.tolist())
    solver = ham.solver
    v1 = v1.tolist()
    no_r = [0.0] * n  # include_r=False adds 0.0 in place of R

    def rhs(y, monitor):
        nonlocal v1
        q, p1 = y[:n], y[n:]
        c2, jac, r_full = gauge_at(q)
        x = q + [0.0] * n
        for slot, c in zip(v2_slots, c2):
            x[slot] = c
        v1 = solver.iterate(x, p1, v1)
        qdot = x[n:]
        d = eval_dual2(lag, x)
        grad, hess = d.floats()
        dhdq = [-a + b for a, b in zip(grad[:n], r_full)]
        r_kept = r_full if include_r else no_r
        p1dot = [-dhdq[i] + r_kept[i] for i in reg]
        w11 = _block(hess, v1_slots, v1_slots)
        if k and m:
            check_w11(w11, tol, "regular velocity block is singular at", q=q)
        dy = qdot + p1dot
        if not monitor:
            return dy, None
        hs3_res = 0.0
        if m:
            lvq = [row[:n] for row in hess[n:]]
            w12 = _block(hess, v1_slots, v2_slots)
            w21 = _block(hess, v2_slots, v1_slots)
            w22 = _block(hess, v2_slots, v2_slots)
            jac_cols = list(zip(*jac))
            # dV/dq column by column: one right-hand column per q_j
            dvdq_cols = gepp(w11, [
                [lvq[i][j] + u for i, u in zip(reg, _dot(w12, col))]
                for j, col in enumerate(jac_cols)])
            dvdq_cols = [[-u for u in col] for col in dvdq_cols]
            # dPsi/dp1 row by row, from the transposed system W11^T X = W21^T
            dpsi_dp1 = gepp(list(zip(*w11)), w21)
            w21_dvdq = [_dot(dvdq_cols, row) for row in w21]
            psi_p1 = _dot(dpsi_dp1, p1dot)
            w22_jac = [_dot(jac_cols, row) for row in w22]
            dpsi_dq = [[x + y + z for x, y, z in zip(lvq[j], row1, row2)]
                       for j, row1, row2 in zip(nonreg, w21_dvdq, w22_jac)]
            psidot = [x + y for x, y in zip(_dot(dpsi_dq, qdot), psi_p1)]
            defect = [dhdq[j] + x - r_kept[j] for j, x in zip(nonreg, psidot)]
            hs3_res = _inf_norm(defect)
        return dy, (qdot, hs3_res, grad[n:])

    return phi, rhs


def ham_rhs(ham: MixedHamiltonian, gauge, q, p, include_r=True):
    """Mixed-Hamiltonian velocities and regular momentum rates at (q, p).

    Returns (qdot, p1dot, ``hs3_res``).  Constraint values are computed from
    the supplied momenta.
    """
    gauge = _resolve_gauge(gauge, ham.partition, ham.n)
    p1, p2 = ham.split_momenta(p)
    _, rhs = _ham_field(ham, gauge, q, p1, p2, include_r)
    y = checked_vector(q, ham.n, "q").tolist() + p1.tolist()
    dy, (qdot, hs3_res, _) = rhs(y, True)
    return np.array(qdot), np.array(dy[ham.n:]), hs3_res


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
    reg, nonreg = list(partition.regular), list(partition.nonregular)
    q = checked_vector(q0, n, "q0")
    p0 = checked_vector(p0, n, "p0")
    p1 = p0[reg]

    phi0, rhs = _ham_field(ham, gauge, q, p1, p0[nonreg], include_r)
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

    offset = phi0.tolist()
    rows = []

    def record(i, t, y, info):
        qdot, hs3_res, lv = info
        p2 = [lv[j] + off for j, off in zip(nonreg, offset)]
        p = [0.0] * n
        for r, x in zip(reg, y[n:]):
            p[r] = x
        for j, x in zip(nonreg, p2):
            p[j] = x
        phi = [x - lv[j] for j, x in zip(nonreg, p2)]
        rows.append((t, y[:n], qdot, p, phi, hs3_res))

    _rk4(rhs, q.tolist() + p1.tolist(), t0, h, nsteps, record)
    return _trajectory(rows, n, k, partition.regular, el=False)


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


def _trajectory(rows, n, k, regular, el) -> Trajectory:
    """The trajectory of a flow's node rows (t, q, v, p, phi, monitor); the
    monitor fills ``el_i2_res`` for the Euler-Lagrange flow (``el``), else
    ``hs3_res``."""
    traj = _alloc(len(rows) - 1, n, k, regular)
    times, q, v, p, phi, monitor = zip(*rows)
    traj.times[:] = times
    traj.q[:] = q
    traj.v[:] = v
    traj.p[:] = p
    traj.phi[:] = phi
    (traj.el_i2_res if el else traj.hs3_res)[:] = monitor
    return traj


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
    table = np.column_stack([traj.times, traj.q, traj.v, traj.p, traj.phi,
                             traj.el_i2_res, traj.hs3_res])
    row = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [row % tuple(x) for x in table.tolist()]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
