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

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    EvalDomainError,
    Expression,
    eval_dual2,
    evaluate,
    with_variables,
)
from .partition import (
    HessianPartition,
    LagrangianSystem,
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


def check_w11(w11: np.ndarray, tol: float, where: str, **at) -> None:
    """Raise ``SingularJacobianError`` if W11's smallest singular value is at
    most ``tol * max(largest, 1)``.  The message is ``where`` followed by
    the ``name=value`` pairs of ``at``, built only on failure."""
    sv = np.linalg.svd(w11, compute_uv=False)
    if sv[-1] <= tol * max(sv[0], 1.0):
        point = ", ".join(f"{name}={x.tolist()}" for name, x in at.items())
        raise SingularJacobianError(
            f"{where} {point} (smallest singular value {sv[-1]:.3e})"
        )


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
            delta = np.linalg.solve(d.hess, r)
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
