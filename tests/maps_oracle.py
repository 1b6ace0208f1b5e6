"""The single-point maps of ``MixedHamiltonian``, kept as the reference.

These are ``value``, ``psi``, ``phi``, ``h_zero``, ``clairaut_residual``
and ``inverse_transform`` as they were before each became a one-row call of
its stacked twin (``value_many`` and the rest): one scalar envelope solve
and scalar kernel calls per point.  Each takes the ``MixedHamiltonian`` first.
The tests require the stacked maps to equal them row by row, values and
errors included, and ``verify_oracle.py`` runs the property suite on them.
Their dot products follow the output contract through ``helpers.lr_dot``.
"""

from __future__ import annotations

import numpy as np

from helpers import lr_dot
from legclair.clairaut import FD_MOMENTUM_STEP, NewtonDivergedError
from legclair.expr import eval_dual2, evaluate
from legclair.partition import checked_vector


def _inf_norm(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def value(ham, q, p, v2, v1_guess=None) -> float:
    """H(q, p, v2) = p1*V + p2*v2 - L(q, V, v2)."""
    v2 = np.asarray(v2, dtype=float)
    p1, p2 = ham.split_momenta(p)
    v1 = ham.solve_velocity(q, p1, v2, v1_guess)
    lval = evaluate(ham.system.lagrangian, ham.system.point(
        q, ham.assemble_velocity(v1, v2)
    ))
    return float(lr_dot(p1, v1) + lr_dot(p2, v2) - lval)


def psi(ham, q, p1, v2_probe=None, v1_guess=None) -> np.ndarray:
    """Psi(q, p1) = dL/dv2 on the envelope; independent of the probe."""
    probe = (ham.default_probe() if v2_probe is None
             else np.asarray(v2_probe, dtype=float))
    v1 = ham.solve_velocity(q, p1, probe, v1_guess)
    x = ham.system.point(q, ham.assemble_velocity(v1, probe))
    d = eval_dual2(ham.system.lagrangian, x, ham._v_active)
    return d.grad[ham._nonreg]


def phi(ham, q, p, v2_probe=None, v1_guess=None) -> np.ndarray:
    """Primary constraints Phi(q, p) = p2 - Psi(q, p1)."""
    p1, p2 = ham.split_momenta(p)
    return p2 - psi(ham, q, p1, v2_probe, v1_guess)


def h_zero(ham, q, p1, c2_probe=None) -> float:
    """H0(q, p1) = p1*V + c2*Psi - L(q, V, c2), any probe c2."""
    c2 = (
        np.asarray(c2_probe, dtype=float)
        if c2_probe is not None
        else ham.default_probe()
    )
    v1 = ham.solve_velocity(q, np.asarray(p1, dtype=float), c2)
    x = ham.system.point(q, ham.assemble_velocity(v1, c2))
    d = eval_dual2(ham.system.lagrangian, x, ham._v_active)
    psi_here = d.grad[ham._nonreg]
    return float(lr_dot(p1, v1) + lr_dot(c2, psi_here) - d.value)


def clairaut_residual(ham, q, p, v2) -> float:
    """|H - p*dH/dp + L(dH/dp)| with dH/dp by central differences.

    The momentum derivatives are taken at fixed v2 with per-component
    step 1e-6*(1+|p_i|); the velocity argument handed to L is the full
    derivative vector in original index order.
    """
    p = np.asarray(p, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    p1, _ = ham.split_momenta(p)
    v1_warm = ham.solve_velocity(q, p1, v2)
    h_val = value(ham, q, p, v2, v1_guess=v1_warm)
    dhdp = np.empty(ham.n)
    for i in range(ham.n):
        step = FD_MOMENTUM_STEP * (1.0 + abs(p[i]))
        plus = p.copy()
        plus[i] += step
        minus = p.copy()
        minus[i] -= step
        dhdp[i] = (
            value(ham, q, plus, v2, v1_guess=v1_warm)
            - value(ham, q, minus, v2, v1_guess=v1_warm)
        ) / (2.0 * step)
    lval = evaluate(ham.system.lagrangian, ham.system.point(q, dhdp))
    return float(abs(h_val - lr_dot(p, dhdp) + lval))


def inverse_transform(ham, q, v, p2, p1_guess=None) -> float:
    """Transform H back: value of v1*P + v2*p2 - H(q, P, p2, v2).

    P(q, v, p2) solves the momentum-side stationarity v1 = dH/dp1 by
    damped Newton; since dV/dp1 = W11^{-1}, the Newton step is a plain
    multiplication by W11 evaluated on the current envelope point.
    """
    v = checked_vector(v, ham.n, "v")
    p2 = checked_vector(p2, ham.n - ham.k, "p2")
    v1 = v[ham._reg]
    v2 = v[ham._nonreg]
    solver = ham.solver
    p1 = (
        np.array(p1_guess, dtype=float)
        if p1_guess is not None
        else np.zeros(ham.k)
    )
    history = []
    v_cur = None
    if ham.k:
        v_cur = ham.solve_velocity(q, p1, v2)
        converged = False
        for _ in range(solver.max_iter):
            rho = v1 - v_cur
            rnorm = _inf_norm(rho)
            history.append(rnorm)
            if rnorm <= solver.newton_tol:
                converged = True
                break
            x = ham.system.point(q, ham.assemble_velocity(v_cur, v2))
            w11 = eval_dual2(
                ham.system.lagrangian, x, solver._v1_active
            ).hess
            delta = lr_dot(w11, rho)
            alpha = 1.0
            for _ in range(solver.max_backtracks + 1):
                trial = p1 + alpha * delta
                v_trial = ham.solve_velocity(q, trial, v2, v1_guess=v_cur)
                if _inf_norm(v1 - v_trial) < rnorm:
                    break
                alpha *= 0.5
            else:
                raise NewtonDivergedError(
                    "backtracking could not reduce the inverse-transform "
                    "residual",
                    history,
                )
            p1, v_cur = trial, v_trial
        if not converged:
            raise NewtonDivergedError(
                f"no convergence within {solver.max_iter} Newton iterations "
                "of the inverse transform",
                history,
            )
    p_full = np.empty(ham.n)
    p_full[ham._reg] = p1
    p_full[ham._nonreg] = p2
    h_val = value(ham, q, p_full, v2, v1_guess=v_cur)
    return float(lr_dot(v1, p1) + lr_dot(v2, p2) - h_val)
