"""The hand-rolled RK4 loops, kept as the reference for the single driver.

These are the two integrators ``legclair.dynamics`` used before both flows
moved onto one RK4 driver with a per-run index plan: each repeats the
four-stage loop inline and rebuilds its index arrays and ``np.ix_`` blocks
on every right-hand-side call.  ``tests/test_dynamics.py`` requires
:func:`legclair.dynamics.integrate_el` and
:func:`legclair.dynamics.integrate_ham` to reproduce every channel of these
trajectories bit for bit.
"""

from __future__ import annotations

import numpy as np

from legclair.clairaut import MixedHamiltonian, SingularJacobianError
from legclair.dynamics import (
    PRIMARY_TOL,
    PrimaryConstraintError,
    _alloc,
    _resolve_gauge,
    _validate_span,
)
from legclair.expr import eval_dual2
from legclair.partition import LagrangianSystem


def _el_core(system: LagrangianSystem, partition, gauge, q, v1):
    """One gauge-fixed Euler-Lagrange evaluation.

    Solves the regular rows  W11 a1 = K1 - W12 v2dot  of
    W vdot = K,  K_i = dL/dq_i - sum_j (d2L/dv_i dq_j) v_j,
    with v2dot given by the chain rule through the gauge.  Returns
    (a1, non-regular row defect, full velocity, dL/dv).
    """
    n = system.n
    reg = np.asarray(partition.regular, dtype=int)
    nonreg = np.asarray(partition.nonregular, dtype=int)
    q = np.asarray(q, dtype=float)
    v = np.empty(n)
    v[reg] = v1
    v[nonreg] = gauge.value(q)
    d = eval_dual2(system.lagrangian, np.concatenate([q, v]))
    lq = d.grad[:n]
    lv = d.grad[n:]
    w = d.hess[n:, n:]
    kvec = lq - d.hess[n:, :n] @ v
    v2dot = gauge.jacobian(q) @ v
    if partition.k:
        w11 = w[np.ix_(reg, reg)]
        sv = np.linalg.svd(w11, compute_uv=False)
        if sv[-1] <= partition.rank_tolerance * max(sv[0], 1.0):
            raise SingularJacobianError(
                f"regular velocity block is singular at q={q.tolist()}, "
                f"v={v.tolist()} (smallest singular value {sv[-1]:.3e})"
            )
        accel1 = np.linalg.solve(
            w11, kvec[reg] - w[np.ix_(reg, nonreg)] @ v2dot
        )
    else:
        accel1 = np.zeros(0)
    vdot = np.empty(n)
    vdot[reg] = accel1
    vdot[nonreg] = v2dot
    defect = w[nonreg] @ vdot - kvec[nonreg]
    i2_res = float(np.max(np.abs(defect))) if defect.size else 0.0
    return accel1, i2_res, v, lv


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
    reg = np.asarray(partition.regular, dtype=int)
    nonreg = np.asarray(partition.nonregular, dtype=int)
    q = np.asarray(q0, dtype=float).copy()
    v1 = np.asarray(v10, dtype=float).copy()
    if q.shape != (n,):
        raise ValueError(f"q0 has shape {q.shape}, expected ({n},)")
    if v1.shape != (k,):
        raise ValueError(f"v10 has shape {v1.shape}, expected ({k},)")

    traj = _alloc(nsteps, n, k, partition.regular)
    for i in range(nsteps + 1):
        accel1, i2_res, v, lv = _el_core(system, partition, gauge, q, v1)
        traj.times[i] = t0 + i * h
        traj.q[i] = q
        traj.v[i] = v
        traj.p[i] = lv
        psi = ham.psi(q, lv[reg], v2_probe=v[nonreg], v1_guess=v1)
        traj.phi[i] = lv[nonreg] - psi
        traj.el_i2_res[i] = i2_res
        if i == nsteps:
            break
        k1q, k1v = v, accel1
        a2, _, vf, _ = _el_core(
            system, partition, gauge, q + 0.5 * h * k1q, v1 + 0.5 * h * k1v
        )
        k2q, k2v = vf, a2
        a3, _, vf, _ = _el_core(
            system, partition, gauge, q + 0.5 * h * k2q, v1 + 0.5 * h * k2v
        )
        k3q, k3v = vf, a3
        a4, _, vf, _ = _el_core(
            system, partition, gauge, q + h * k3q, v1 + h * k3v
        )
        k4q, k4v = vf, a4
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        v1 = v1 + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return traj


def _ham_core(ham: MixedHamiltonian, gauge, q, p1, phi, include_r, v1_guess=None):
    """One mixed-Hamiltonian evaluation at known constraint values.

    Uses the composite-derivative identity from the module docstring for
    dH/dq, so no finite differencing of H enters the flow.  The ``hs3_res``
    channel is the residual of the non-regular momentum equation given that
    p2 is reconstructed from Psi:

        d(Psi)/dt + dH/dq2|_comp - R2   (R2 dropped when include_r=False)

    with d(Psi)/dt assembled by the chain rule through
    dV/dp1 = W11^{-1} and dV/dq = -W11^{-1} (d2L/dv1 dq + W12 dC2/dq).
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    reg = np.asarray(partition.regular, dtype=int)
    nonreg = np.asarray(partition.nonregular, dtype=int)
    q = np.asarray(q, dtype=float)
    c2 = gauge.value(q)
    v1 = ham.solve_velocity(q, p1, c2, v1_guess)
    d = eval_dual2(
        system.lagrangian,
        np.concatenate([q, ham.assemble_velocity(v1, c2)]),
    )
    lq = d.grad[:n]
    lv = d.grad[n:]
    w = d.hess[n:, n:]
    lvq = d.hess[n:, :n]
    gjac = gauge.jacobian(q)
    r_full = gjac.T @ phi
    dhdq = -lq + r_full
    p1dot = -dhdq[reg] + (r_full[reg] if include_r else 0.0)
    qdot = np.empty(n)
    qdot[reg] = v1
    qdot[nonreg] = c2

    m = n - k
    if m:
        w11 = w[np.ix_(reg, reg)]
        w12 = w[np.ix_(reg, nonreg)]
        w21 = w[np.ix_(nonreg, reg)]
        w22 = w[np.ix_(nonreg, nonreg)]
        if k:
            sv = np.linalg.svd(w11, compute_uv=False)
            if sv[-1] <= partition.rank_tolerance * max(sv[0], 1.0):
                raise SingularJacobianError(
                    f"regular velocity block is singular at q={q.tolist()} "
                    f"(smallest singular value {sv[-1]:.3e})"
                )
            dvdq = -np.linalg.solve(w11, lvq[reg] + w12 @ gjac)
            dpsi_dp1 = np.linalg.solve(w11.T, w21.T).T
        else:
            dvdq = np.zeros((0, n))
            dpsi_dp1 = np.zeros((m, 0))
        dpsi_dq = lvq[nonreg] + w21 @ dvdq + w22 @ gjac
        psidot = dpsi_dq @ qdot + dpsi_dp1 @ p1dot
        defect = dhdq[nonreg] + psidot - (r_full[nonreg] if include_r else 0.0)
        hs3_res = float(np.max(np.abs(defect)))
    else:
        hs3_res = 0.0
    return qdot, p1dot, hs3_res, v1, lv


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
    reg = np.asarray(partition.regular, dtype=int)
    nonreg = np.asarray(partition.nonregular, dtype=int)
    q = np.asarray(q0, dtype=float).copy()
    p0 = np.asarray(p0, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"q0 has shape {q.shape}, expected ({n},)")
    if p0.shape != (n,):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({n},)")
    p1 = p0[reg].copy()

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
    for i in range(nsteps + 1):
        qdot, p1dot, hs3_res, v1, lv = _ham_core(
            ham, gauge, q, p1, phi0, include_r, v1_guess=v1
        )
        p2 = lv[nonreg] + phi0
        traj.times[i] = t0 + i * h
        traj.q[i] = q
        traj.v[i][reg] = v1
        traj.v[i][nonreg] = qdot[nonreg]
        traj.p[i][reg] = p1
        traj.p[i][nonreg] = p2
        traj.phi[i] = p2 - lv[nonreg]
        traj.hs3_res[i] = hs3_res
        if i == nsteps:
            break
        k1q, k1p = qdot, p1dot
        d2q, d2p, _, v1, _ = _ham_core(
            ham, gauge, q + 0.5 * h * k1q, p1 + 0.5 * h * k1p, phi0,
            include_r, v1_guess=v1,
        )
        d3q, d3p, _, v1, _ = _ham_core(
            ham, gauge, q + 0.5 * h * d2q, p1 + 0.5 * h * d2p, phi0,
            include_r, v1_guess=v1,
        )
        d4q, d4p, _, v1, _ = _ham_core(
            ham, gauge, q + h * d3q, p1 + h * d3p, phi0,
            include_r, v1_guess=v1,
        )
        q = q + (h / 6.0) * (k1q + 2.0 * d2q + 2.0 * d3q + d4q)
        p1 = p1 + (h / 6.0) * (k1p + 2.0 * d2p + 2.0 * d3p + d4p)
    return traj
