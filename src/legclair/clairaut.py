"""Envelope/general solutions of the Clairaut equation and the mixed Hamiltonian.

The classical conjugate G(p) = p*v - L solves the Clairaut-type equation
G = p*dG/dp - L(dG/dp); its general solution is the family
G~(p, c) = p*c - L(c), and the classical transform is that family's envelope
(stationarity in c).  When the velocity Hessian W is singular, stationarity
only determines the regular block: the *mixed* construction takes the
envelope in the regular velocities and keeps the general-solution parameters
c2 in the rest,

    H(q, p, c2) = p1*V(q, p1, c2) + p2*c2 - L(q, V, c2),

where V solves p1 = dL/dv1.  The leftover momenta are then pinned by the
primary constraints Phi = p2 - Psi(q, p1) with Psi = dL/dv2 on the envelope,
and H splits as H = H0(q, p1) + c2*Phi with both pieces c2-independent.

Everything here is numerical: V comes from a damped Newton iteration, and
the identities above become residuals that tests and the verify command
sample over the domain box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    EvalDomainError,
    Expression,
    eval_dual2,
    eval_dual2_many,
    evaluate,
    evaluate_many,
    with_variables,
)
from .partition import (
    HessianPartition,
    LagrangianSystem,
    checked_rows,
    checked_vector,
    partition_indices,
    qv_names,
)

__all__ = [
    "NewtonDivergedError",
    "SingularJacobianError",
    "EnvelopeSolver",
    "MixedHamiltonian",
    "general_solution",
    "generic_transform",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_BACKTRACKS = 20
FD_MOMENTUM_STEP = 1e-6


class NewtonDivergedError(Exception):
    """Newton failed to reach tolerance; carries the residual-norm history."""

    def __init__(self, message, residual_history):
        history = [float(r) for r in residual_history]
        super().__init__(f"{message}; residual history {history}")
        self.residual_history = history


class SingularJacobianError(Exception):
    """The W11 block dropped below tolerance at a Newton iterate."""


def _inf_norm(x: np.ndarray) -> float:
    return float(np.abs(x).max()) if x.size else 0.0


def check_w11(w11: np.ndarray, tol: float, where: str, **at):
    """Raise ``SingularJacobianError`` if W11's smallest singular value is at
    most ``tol * max(largest, 1)``, else return (smallest, largest).  The
    message is ``where`` followed by the ``name=value`` pairs of ``at``,
    built only on failure.

    A stack of blocks (count, k, k) is checked block by block, with one row
    of each ``at`` value per block; the first singular block is named, and
    the singular values come back as one entry per block.  A single finite
    1×1 block [[w]] has the singular value |w|, which is used directly; a
    non-finite one goes through the SVD like every other block.
    """
    if w11.shape == (1, 1) and math.isfinite(w11[0, 0]):
        smallest = largest = abs(float(w11[0, 0]))
    else:
        sv = np.linalg.svd(w11, compute_uv=False)
        smallest, largest = sv[..., -1], sv[..., 0]
        if w11.ndim == 3:
            singular = smallest <= tol * np.maximum(largest, 1.0)
            if not singular.any():
                return smallest, largest
            first = int(np.argmax(singular))
            sv = sv[first]
            at = {name: x[first] for name, x in at.items()}
            smallest, largest = sv[-1], sv[0]
    if smallest <= tol * max(largest, 1.0):
        point = ", ".join(f"{name}={x.tolist()}" for name, x in at.items())
        raise SingularJacobianError(
            f"{where} {point} (smallest singular value {smallest:.3e})"
        )
    return smallest, largest


def solve_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for one block (k, k) or a stack
    (count, k, k), bit for bit.

    A 1×1 block with a single right-hand column is solved as ``b / w``:
    LAPACK divides in that case, so the bits are the same without its
    dispatch.  With several columns OpenBLAS multiplies by the reciprocal
    1/w instead, which rounds differently from ``b / w``, so those systems,
    like every block with k >= 2, stay on LAPACK.
    """
    if a.shape[-2:] == (1, 1):
        if b.ndim == a.ndim and b.shape[-1] == 1:
            return b / a
        if a.ndim == 2 and b.shape == (1,):
            return b / a[0]
    return np.linalg.solve(a, b)


@dataclass
class EnvelopeSolver:
    """Damped Newton solver for the envelope condition p1 = dL/dv1.

    The iteration starts at the domain-box center of the regular velocities
    unless a per-call guess overrides it.  Steps are halved (up to
    ``max_backtracks`` times) whenever the residual fails to decrease or a
    finite trial point lies outside the domain of L (its evaluation raises
    ``EvalDomainError``, e.g. by overflow).
    """

    system: LagrangianSystem
    partition: HessianPartition
    newton_tol: float = NEWTON_TOL
    max_iter: int = NEWTON_MAX_ITER
    max_backtracks: int = NEWTON_MAX_BACKTRACKS

    def __post_init__(self):
        n = self.system.n
        self._v1_active = tuple(n + i for i in self.partition.regular)
        self._reg = np.array(self.partition.regular, dtype=int)
        self._nonreg = np.array(self.partition.nonregular, dtype=int)

    def default_guess(self) -> np.ndarray:
        return self.system.center()[self.system.n + self._reg]

    def solve(self, q, p1, c2, v1_guess=None) -> np.ndarray:
        """Return v1 = V(q, p1, c2) with ||p1 - dL/dv1||_inf <= newton_tol."""
        n, k = self.system.n, self.partition.k
        q = checked_vector(q, n, "q")
        p1 = checked_vector(p1, k, "p1")
        c2 = checked_vector(c2, n - k, "c2")
        if k == 0:
            return np.zeros(0)

        v1 = np.array(v1_guess, dtype=float) if v1_guess is not None else (
            self.default_guess()
        )
        # (q, v) with v2 = c2 fixed; each trial overwrites only the v1 slots
        point = np.empty(2 * n)
        point[:n] = q
        point[n + self._nonreg] = c2
        v1_slots = n + self._reg
        point[v1_slots] = v1
        lag, active = self.system.lagrangian, self._v1_active
        d = eval_dual2(lag, point, active)
        r = p1 - d.grad
        history = []
        for _ in range(self.max_iter):
            rnorm = _inf_norm(r)
            history.append(rnorm)
            if rnorm <= self.newton_tol:
                return v1
            check_w11(d.hess, self.partition.rank_tolerance,
                      "W11 is singular at Newton iterate", v1=v1)
            delta = solve_block(d.hess, r)
            alpha = 1.0
            for _ in range(self.max_backtracks + 1):
                trial = v1 + alpha * delta
                point[v1_slots] = trial
                try:
                    d_trial = eval_dual2(lag, point, active)
                except EvalDomainError:
                    # halving cannot make a non-finite step finite
                    if not np.isfinite(trial).all():
                        raise
                else:
                    r_trial = p1 - d_trial.grad
                    if _inf_norm(r_trial) < rnorm:
                        break
                alpha *= 0.5
            else:
                raise NewtonDivergedError(
                    "backtracking could not reduce the envelope residual", history
                )
            # the accepted trial's evaluation serves the next iterate
            v1, d, r = trial, d_trial, r_trial
        raise NewtonDivergedError(
            f"no convergence within {self.max_iter} Newton iterations", history
        )

    def solve_many(self, q, p1, c2, v1_guess=None) -> np.ndarray:
        """:meth:`solve` at every row of q (count, n), p1 (count, k) and c2
        (count, n - k), with an optional (count, k) guess.

        Each lane runs :meth:`solve`'s iteration (same damping, backtracking,
        tolerance and limits), so row i of the result equals ``solve`` at row
        i bit for bit.  Every Newton iteration makes one stacked evaluation
        and one stacked W11 check and solve over the lanes still iterating.
        It raises where :meth:`solve` raises on some lane, and also where a
        trial evaluation fails on some lane: :meth:`solve` would reject that
        trial and halve the step, so a caller that needs its outcome reruns
        the lanes through it.  Residual histories are not kept.
        """
        n, k = self.system.n, self.partition.k
        q = checked_rows(q, n, "q")
        count = len(q)
        p1 = checked_rows(p1, k, "p1", count)
        c2 = checked_rows(c2, n - k, "c2", count)
        if k == 0:
            return np.zeros((count, 0))
        v1 = (checked_rows(v1_guess, k, "v1_guess", count).copy()
              if v1_guess is not None
              else np.tile(self.default_guess(), (count, 1)))
        slots = n + self._reg
        point = np.empty((count, 2 * n))
        point[:, :n] = q
        point[:, n + self._nonreg] = c2
        point[:, slots] = v1
        lag, active = self.system.lagrangian, self._v1_active
        d = eval_dual2_many(lag, point, active)
        r = p1 - d.grad
        hess = d.hess
        out = v1.copy()
        lanes = np.arange(count)  # original row of each lane still iterating
        for _ in range(self.max_iter):
            rnorm = np.abs(r).max(axis=1)
            live = ~(rnorm <= self.newton_tol)  # a NaN residual stays live
            if not live.all():
                out[lanes[~live]] = v1[~live]
                lanes, v1, r, hess, rnorm, point, p1 = (
                    x[live] for x in (lanes, v1, r, hess, rnorm, point, p1))
                if not lanes.size:
                    return out
            check_w11(hess, self.partition.rank_tolerance,
                      "W11 is singular at Newton iterate", v1=v1)
            delta = solve_block(hess, r[:, :, None])[:, :, 0]
            alpha = np.ones(len(lanes))
            pending = np.arange(len(lanes))  # lanes still backtracking
            for _ in range(self.max_backtracks + 1):
                trial = v1[pending] + alpha[pending, None] * delta[pending]
                trial_point = point[pending]
                trial_point[:, slots] = trial
                d_trial = eval_dual2_many(lag, trial_point, active)
                r_trial = p1[pending] - d_trial.grad
                better = np.abs(r_trial).max(axis=1) < rnorm[pending]
                done = pending[better]
                # the accepted trial's evaluation serves the next iterate
                v1[done] = trial[better]
                r[done] = r_trial[better]
                hess[done] = d_trial.hess[better]
                pending = pending[~better]
                if not pending.size:
                    break
                alpha[pending] *= 0.5
            else:
                raise NewtonDivergedError(
                    "backtracking could not reduce the envelope residual", []
                )
            point[:, slots] = v1
        raise NewtonDivergedError(
            f"no convergence within {self.max_iter} Newton iterations", []
        )


@dataclass
class MixedHamiltonian:
    """The transform of one partitioned Lagrangian, with all derived maps."""

    system: LagrangianSystem
    partition: HessianPartition
    solver: EnvelopeSolver = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.solver is None:
            self.solver = EnvelopeSolver(self.system, self.partition)
        n = self.system.n
        self._reg = np.array(self.partition.regular, dtype=int)
        self._nonreg = np.array(self.partition.nonregular, dtype=int)
        self._v_active = tuple(range(n, 2 * n))

    @classmethod
    def from_system(
        cls,
        system: LagrangianSystem,
        *,
        num_samples: int = 64,
        seed: int = 0,
        rel_tol: float = 1e-9,
    ) -> "MixedHamiltonian":
        part = partition_indices(system, num_samples, seed, rel_tol)
        return cls(system, part)

    # -- index helpers ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def k(self) -> int:
        return self.partition.k

    def split_momenta(self, p):
        p = checked_vector(p, self.n, "p")
        return p[self._reg], p[self._nonreg]

    def assemble_velocity(self, v1, v2) -> np.ndarray:
        v = np.empty(self.n)
        v[self._reg] = v1
        v[self._nonreg] = v2
        return v

    def default_probe(self) -> np.ndarray:
        """Default c2 probe: center of the unresolved-velocity box."""
        return self.system.center()[self.n + self._nonreg]

    # -- core maps ----------------------------------------------------------

    def solve_velocity(self, q, p1, v2, v1_guess=None) -> np.ndarray:
        """V(q, p1, v2): the envelope solution for the regular velocities."""
        return self.solver.solve(q, p1, v2, v1_guess)

    def value(self, q, p, v2, v1_guess=None) -> float:
        """H(q, p, v2) = p1*V + p2*v2 - L(q, V, v2)."""
        v2 = np.asarray(v2, dtype=float)
        p1, p2 = self.split_momenta(p)
        v1 = self.solve_velocity(q, p1, v2, v1_guess)
        lval = evaluate(self.system.lagrangian, self.system.point(
            q, self.assemble_velocity(v1, v2)
        ))
        return float(p1 @ v1 + p2 @ v2 - lval)

    def psi(self, q, p1, v2_probe=None, v1_guess=None) -> np.ndarray:
        """Psi(q, p1) = dL/dv2 on the envelope; independent of the probe."""
        probe = (
            np.asarray(v2_probe, dtype=float)
            if v2_probe is not None
            else self.default_probe()
        )
        v1 = self.solve_velocity(q, p1, probe, v1_guess)
        x = self.system.point(q, self.assemble_velocity(v1, probe))
        grad_v = eval_dual2(self.system.lagrangian, x, self._v_active).grad
        return grad_v[self._nonreg]

    def phi(self, q, p, v2_probe=None, v1_guess=None) -> np.ndarray:
        """Primary constraints Phi(q, p) = p2 - Psi(q, p1)."""
        p1, p2 = self.split_momenta(p)
        return p2 - self.psi(q, p1, v2_probe, v1_guess)

    def h_zero(self, q, p1, c2_probe=None) -> float:
        """H0(q, p1) = p1*V + c2*Psi - L(q, V, c2), any probe c2."""
        c2 = (
            np.asarray(c2_probe, dtype=float)
            if c2_probe is not None
            else self.default_probe()
        )
        v1 = self.solve_velocity(q, np.asarray(p1, dtype=float), c2)
        x = self.system.point(q, self.assemble_velocity(v1, c2))
        d = eval_dual2(self.system.lagrangian, x, self._v_active)
        psi_here = d.grad[self._nonreg]
        return float(np.asarray(p1, float) @ v1 + c2 @ psi_here - d.value)

    # -- diagnostics ---------------------------------------------------------

    def clairaut_residual(self, q, p, v2) -> float:
        """|H - p*dH/dp + L(dH/dp)| with dH/dp by central differences.

        The momentum derivatives are taken at fixed v2 with per-component
        step 1e-6*(1+|p_i|); the velocity argument handed to L is the full
        derivative vector in original index order.
        """
        p = np.asarray(p, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        p1, _ = self.split_momenta(p)
        v1_warm = self.solve_velocity(q, p1, v2)
        h_val = self.value(q, p, v2, v1_guess=v1_warm)
        dhdp = np.empty(self.n)
        for i in range(self.n):
            step = FD_MOMENTUM_STEP * (1.0 + abs(p[i]))
            plus = p.copy()
            plus[i] += step
            minus = p.copy()
            minus[i] -= step
            dhdp[i] = (
                self.value(q, plus, v2, v1_guess=v1_warm)
                - self.value(q, minus, v2, v1_guess=v1_warm)
            ) / (2.0 * step)
        lval = evaluate(self.system.lagrangian, self.system.point(q, dhdp))
        return float(abs(h_val - p @ dhdp + lval))

    def inverse_transform(self, q, v, p2, p1_guess=None) -> float:
        """Transform H back: value of v1*P + v2*p2 - H(q, P, p2, v2).

        P(q, v, p2) solves the momentum-side stationarity v1 = dH/dp1 by
        damped Newton; since dV/dp1 = W11^{-1}, the Newton step is a plain
        multiplication by W11 evaluated on the current envelope point.
        """
        v = checked_vector(v, self.n, "v")
        p2 = checked_vector(p2, self.n - self.k, "p2")
        v1 = v[self._reg]
        v2 = v[self._nonreg]
        solver = self.solver
        p1 = (
            np.array(p1_guess, dtype=float)
            if p1_guess is not None
            else np.zeros(self.k)
        )
        history = []
        v_cur = None
        if self.k:
            v_cur = self.solve_velocity(q, p1, v2)
            converged = False
            for _ in range(solver.max_iter):
                rho = v1 - v_cur
                rnorm = _inf_norm(rho)
                history.append(rnorm)
                if rnorm <= solver.newton_tol:
                    converged = True
                    break
                x = self.system.point(q, self.assemble_velocity(v_cur, v2))
                w11 = eval_dual2(
                    self.system.lagrangian, x, solver._v1_active
                ).hess
                delta = w11 @ rho
                alpha = 1.0
                for _ in range(solver.max_backtracks + 1):
                    trial = p1 + alpha * delta
                    v_trial = self.solve_velocity(q, trial, v2, v1_guess=v_cur)
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
        p_full = np.empty(self.n)
        p_full[self._reg] = p1
        p_full[self._nonreg] = p2
        h_val = self.value(q, p_full, v2, v1_guess=v_cur)
        return float(v1 @ p1 + v2 @ p2 - h_val)


    # -- stacked maps -----------------------------------------------------------
    #
    # Each ``*_many`` map takes one row per point (q as (count, n), and so
    # on) and runs the single-point map's arithmetic on every row at once,
    # so row i equals the single-point map at row i bit for bit (row-wise
    # dot products use ``np.vecdot``, which matches ``a @ b``).  They raise
    # wherever the single-point map raises on some row, and may also raise
    # where its Newton solve would reject a trial and halve the step (see
    # ``EnvelopeSolver.solve_many``).

    def _points(self, q, v1, v2) -> np.ndarray:
        """Rows (q, v) with the regular/nonregular velocity columns set."""
        n = self.n
        x = np.empty((len(q), 2 * n))
        x[:, :n] = q
        x[:, n + self._reg] = v1
        x[:, n + self._nonreg] = v2
        return x

    def _probes(self, probe, count) -> np.ndarray:
        if probe is None:
            return np.broadcast_to(self.default_probe(), (count, self.n - self.k))
        return checked_rows(probe, self.n - self.k, "v2 probe", count)

    def value_many(self, q, p, v2, v1_guess=None) -> np.ndarray:
        """:meth:`value` at every row."""
        p = checked_rows(p, self.n, "p")
        p1, p2 = p[:, self._reg], p[:, self._nonreg]
        v1 = self.solver.solve_many(q, p1, v2, v1_guess)
        lval = evaluate_many(self.system.lagrangian, self._points(q, v1, v2))
        return np.vecdot(p1, v1) + np.vecdot(p2, v2) - lval

    def psi_many(self, q, p1, v2_probe=None, v1_guess=None) -> np.ndarray:
        """:meth:`psi` at every row; the default probe serves every row."""
        probe = self._probes(v2_probe, len(q))
        v1 = self.solver.solve_many(q, p1, probe, v1_guess)
        x = self._points(q, v1, probe)
        grad_v = eval_dual2_many(self.system.lagrangian, x, self._v_active).grad
        return grad_v[:, self._nonreg]

    def phi_many(self, q, p, v2_probe=None, v1_guess=None) -> np.ndarray:
        """:meth:`phi` at every row."""
        p = checked_rows(p, self.n, "p")
        psi = self.psi_many(q, p[:, self._reg], v2_probe, v1_guess)
        return p[:, self._nonreg] - psi

    def h_zero_many(self, q, p1, c2_probe=None) -> np.ndarray:
        """:meth:`h_zero` at every row; the default probe serves every row."""
        c2 = self._probes(c2_probe, len(q))
        p1 = np.asarray(p1, dtype=float)
        v1 = self.solver.solve_many(q, p1, c2)
        x = self._points(q, v1, c2)
        d = eval_dual2_many(self.system.lagrangian, x, self._v_active)
        psi_here = d.grad[:, self._nonreg]
        return np.vecdot(p1, v1) + np.vecdot(c2, psi_here) - d.value

    def momentum_gradient_many(self, q, p, v2):
        """(V, H, dH/dp) at every row: V and H at (q, p, v2), and dH/dp by
        the central differences of :meth:`clairaut_residual`.

        H at p and at the 2n shifted momenta of every row is one stacked
        :meth:`value_many` call, warm-started from V at p as in the
        single-point map.
        """
        q = checked_rows(q, self.n, "q")
        p = checked_rows(p, self.n, "p", len(q))
        v2 = checked_rows(v2, self.n - self.k, "v2", len(q))
        n, count = self.n, len(q)
        v1_warm = self.solver.solve_many(q, p[:, self._reg], v2)
        step = FD_MOMENTUM_STEP * (1.0 + np.abs(p))
        shifted = np.repeat(p[None], 2 * n + 1, axis=0)  # p, then +e_i, -e_i
        for i in range(n):
            shifted[1 + i, :, i] += step[:, i]
            shifted[1 + n + i, :, i] -= step[:, i]
        blocks = 2 * n + 1
        h_all = self.value_many(
            np.tile(q, (blocks, 1)), shifted.reshape(blocks * count, n),
            np.tile(v2, (blocks, 1)), v1_guess=np.tile(v1_warm, (blocks, 1)),
        ).reshape(blocks, count)
        dhdp = np.empty((count, n))
        for i in range(n):
            dhdp[:, i] = (h_all[1 + i] - h_all[1 + n + i]) / (2.0 * step[:, i])
        return v1_warm, h_all[0], dhdp

    def clairaut_residual_many(self, q, p, v2) -> np.ndarray:
        """:meth:`clairaut_residual` at every row."""
        _, h_val, dhdp = self.momentum_gradient_many(q, p, v2)
        q = np.asarray(q, dtype=float)
        lval = evaluate_many(self.system.lagrangian,
                             np.concatenate([q, dhdp], axis=1))
        return np.abs(h_val - np.vecdot(np.asarray(p, dtype=float), dhdp)
                      + lval)

    def inverse_transform_many(self, q, v, p2, p1_guess=None) -> np.ndarray:
        """:meth:`inverse_transform` at every row: the outer Newton on P runs
        lane by lane as in the single-point map, each iteration one stacked
        W11 evaluation and one stacked nested solve per backtracking round.
        """
        q = checked_rows(q, self.n, "q")
        count = len(q)
        v = checked_rows(v, self.n, "v", count)
        p2 = checked_rows(p2, self.n - self.k, "p2", count)
        v1 = v[:, self._reg]
        v2 = v[:, self._nonreg]
        solver = self.solver
        p1 = (checked_rows(p1_guess, self.k, "p1_guess", count).copy()
              if p1_guess is not None else np.zeros((count, self.k)))
        v_cur = None
        if self.k:
            v_cur = solver.solve_many(q, p1, v2)
            out_p1, out_v = p1.copy(), v_cur.copy()
            lanes = np.arange(count)
            lq, lv1, lv2 = q, v1, v2
            for _ in range(solver.max_iter):
                rho = lv1 - v_cur
                rnorm = np.abs(rho).max(axis=1)
                live = ~(rnorm <= solver.newton_tol)
                if not live.all():
                    out_p1[lanes[~live]] = p1[~live]
                    out_v[lanes[~live]] = v_cur[~live]
                    lanes, lq, lv1, lv2, p1, v_cur, rho, rnorm = (
                        x[live]
                        for x in (lanes, lq, lv1, lv2, p1, v_cur, rho, rnorm))
                    if not lanes.size:
                        break
                x = self._points(lq, v_cur, lv2)
                w11 = eval_dual2_many(
                    self.system.lagrangian, x, solver._v1_active
                ).hess
                delta = np.matmul(w11, rho[:, :, None])[:, :, 0]
                alpha = np.ones(len(lanes))
                pending = np.arange(len(lanes))
                for _ in range(solver.max_backtracks + 1):
                    trial = p1[pending] + alpha[pending, None] * delta[pending]
                    v_trial = solver.solve_many(
                        lq[pending], trial, lv2[pending],
                        v1_guess=v_cur[pending],
                    )
                    better = (np.abs(lv1[pending] - v_trial).max(axis=1)
                              < rnorm[pending])
                    done = pending[better]
                    p1[done] = trial[better]
                    v_cur[done] = v_trial[better]
                    pending = pending[~better]
                    if not pending.size:
                        break
                    alpha[pending] *= 0.5
                else:
                    raise NewtonDivergedError(
                        "backtracking could not reduce the inverse-transform "
                        "residual",
                        [],
                    )
            else:
                raise NewtonDivergedError(
                    f"no convergence within {solver.max_iter} Newton iterations "
                    "of the inverse transform",
                    [],
                )
            p1, v_cur = out_p1, out_v
        p_full = np.empty((count, self.n))
        p_full[:, self._reg] = p1
        p_full[:, self._nonreg] = p2
        h_val = self.value_many(q, p_full, v2, v1_guess=v_cur)
        return np.vecdot(v1, p1) + np.vecdot(v2, p2) - h_val


# --------------------------------------------------------------------------
# generic (q-free) entry points
# --------------------------------------------------------------------------

def general_solution(F: Expression, p, c) -> float:
    """The Clairaut general solution G~(p, c) = p*c - F(c), pointwise."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    m = len(F.variables)
    if p.shape != (m,) or c.shape != (m,):
        raise ValueError(
            f"p and c must each have {m} entries for F over {F.variables}"
        )
    return float(p @ c - evaluate(F, c))


def _as_lagrangian(F: Expression, domain) -> LagrangianSystem:
    """Wrap a q-free function of n variables as an n-dof Lagrangian."""
    n = len(F.variables)
    if n == 0:
        raise ValueError("F must depend on at least one variable")
    names = qv_names(n)
    remapped = with_variables(F, names, {i: n + i for i in range(n)})
    if domain is None:
        bounds = [(-1.0, 1.0)] * n
    elif isinstance(domain, dict):
        bounds = [domain.get(name, (-1.0, 1.0)) for name in F.variables]
    else:
        lo, hi = domain
        bounds = [(float(lo), float(hi))] * n
    lo = np.array([-1.0] * n + [b[0] for b in bounds])
    hi = np.array([1.0] * n + [b[1] for b in bounds])
    return LagrangianSystem(n, remapped, lo, hi)


def generic_transform(
    F: Expression,
    p,
    c2=(),
    *,
    domain=None,
    num_samples: int = 64,
    seed: int = 0,
) -> float:
    """Mixed transform of a coordinate-free function F over its box.

    ``domain`` bounds F's variables: a {name: (lo, hi)} mapping, one (lo, hi)
    pair for all of them, or None for the unit box.  ``c2`` supplies the
    general-solution parameters for the n - k nonregular variables (their
    count is checked after partitioning).  Returns the transform value at
    momentum vector ``p``.
    """
    system = _as_lagrangian(F, domain)
    ham = MixedHamiltonian.from_system(
        system, num_samples=num_samples, seed=seed
    )
    c2 = np.asarray(c2, dtype=float)
    expected = len(ham.partition.nonregular)
    if c2.shape != (expected,):
        raise ValueError(
            f"c2 has shape {c2.shape} but the Hessian of F has rank "
            f"{ham.k} of {ham.n}, so {expected} parameters are required"
        )
    q = system.center()[: system.n]
    return ham.value(q, p, c2)
