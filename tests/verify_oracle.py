"""The sample-by-sample property suite, kept as the reference.

This is ``legclair.verify`` as it was before the suite ran each property on
stacked samples: every sample is drawn with its own ``Generator.uniform``
calls and sent through the single-point maps one at a time: the scalar
``solve_velocity`` and ``psi`` of ``MixedHamiltonian``, and the reference
bodies of the others in ``maps_oracle.py``.  ``tests/test_verify.py``
requires the stacked suite to report the same statuses, sample counts and
worst values, and the CLI to end in the same error on inputs where a
property fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import maps_oracle
from helpers import lr_dot
from legclair.clairaut import MixedHamiltonian, NewtonDivergedError
from legclair.expr import eval_dual2, evaluate


def _fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return out


def _full_newton_legendre(system, q, p, tol=1e-12, max_iter=60):
    """Classical transform via plain full-Hessian Newton (self-check only).

    Independent of the envelope machinery: no partition, no damping.
    """
    n = system.n
    v = np.zeros(n)
    for _ in range(max_iter):
        d = eval_dual2(
            system.lagrangian, system.point(q, v), range(n, 2 * n)
        )
        r = np.asarray(p, float) - d.grad
        if np.max(np.abs(r)) <= tol:
            return float(lr_dot(p, v) - d.value)
        v = v + np.linalg.solve(d.hess, r)
    raise NewtonDivergedError("classical transform did not converge", [])


@dataclass
class PropertyResult:
    name: str
    samples: int
    worst: float  # NaN marks a vacuous property
    tol: float
    status: str


def run_property_suite(ham: MixedHamiltonian, samples, seed,
                       tol_residual, tol_involution):
    """Numerical checks of the transform's defining identities.

    Every check draws fresh points from the declared domain; momenta are
    drawn from the matching velocity ranges.  Worst values are normalized
    where the property is relative.
    """
    system = ham.system
    n, k = ham.n, ham.k
    reg = list(ham.partition.regular)
    nonreg = list(ham.partition.nonregular)
    rng = np.random.default_rng(seed)
    vlo, vhi = system.domain_lo[n:], system.domain_hi[n:]
    results = []

    def record(name, count, worst, tol):
        status = "PASS" if worst <= tol else "FAIL"
        results.append(PropertyResult(name, count, float(worst), tol, status))

    def vacuous(name, reason):
        results.append(
            PropertyResult(name, 0, float("nan"), float("nan"),
                           f"vacuous ({reason})")
        )

    def draw():
        x = system.sample(rng, 1)[0]
        q = x[:n]
        p = rng.uniform(vlo, vhi)
        v2 = x[n:][nonreg,]
        return q, p, v2

    worst = 0.0
    for _ in range(samples):
        q, p, v2 = draw()
        worst = max(worst, maps_oracle.clairaut_residual(ham, q, p, v2))
    record("clairaut_residual", samples, worst, tol_residual)

    grad_samples = min(samples, 50)
    worst_p1, worst_p2 = 0.0, 0.0
    for _ in range(grad_samples):
        q, p, v2 = draw()
        v1 = ham.solve_velocity(q, p[reg,], v2)
        for i in range(n):
            h = 1e-6 * (1.0 + abs(p[i]))
            plus, minus = p.copy(), p.copy()
            plus[i] += h
            minus[i] -= h
            slope = (
                maps_oracle.value(ham, q, plus, v2, v1_guess=v1)
                - maps_oracle.value(ham, q, minus, v2, v1_guess=v1)
            ) / (2 * h)
            if i in reg:
                worst_p1 = max(worst_p1, abs(slope - v1[reg.index(i)]))
            else:
                worst_p2 = max(
                    worst_p2, abs(slope - v2[nonreg.index(i)])
                )
    record("envelope_grad_p1", grad_samples, worst_p1, 1e-6)
    if k < n:
        record("envelope_grad_p2", grad_samples, worst_p2, 1e-8)
    else:
        vacuous("envelope_grad_p2", "k = n")

    if k < n:
        ind_samples = min(samples, 25)
        worst = 0.0
        lo2 = vlo[nonreg,]
        hi2 = vhi[nonreg,]
        for _ in range(ind_samples):
            q, p, _ = draw()
            p1 = p[reg,]
            psi_ref = maps_oracle.psi(ham, q, p1)
            h0_ref = maps_oracle.h_zero(ham, q, p1)
            scale = 1.0 + float(np.max(np.abs(psi_ref)))
            for _ in range(5):
                probe = rng.uniform(lo2, hi2)
                dpsi = float(np.max(np.abs(maps_oracle.psi(ham, q, p1, probe)
                                           - psi_ref)))
                dh0 = abs(maps_oracle.h_zero(ham, q, p1, probe) - h0_ref)
                worst = max(
                    worst, dpsi / scale, dh0 / (1.0 + abs(h0_ref))
                )
        record("probe_independence", ind_samples, worst, 1e-8)
    else:
        vacuous("probe_independence", "k = n")

    worst = 0.0
    for _ in range(samples):
        q, p, v2 = draw()
        h = maps_oracle.value(ham, q, p, v2)
        split = (maps_oracle.h_zero(ham, q, p[reg,])
                 + float(lr_dot(v2, maps_oracle.phi(ham, q, p))))
        worst = max(worst, abs(h - split) / (1.0 + abs(h)))
    record("decomposition", samples, worst, 1e-8)

    worst = 0.0
    for _ in range(samples):
        x = system.sample(rng, 1)[0]
        q, v = x[:n], x[n:]
        p2 = rng.uniform(vlo[nonreg,], vhi[nonreg,])
        lval = evaluate(system.lagrangian, x)
        back = maps_oracle.inverse_transform(ham, q, v, p2)
        worst = max(worst, abs(back - lval) / (1.0 + abs(lval)))
    record("involutivity", samples, worst, tol_involution)

    rank_samples = min(samples, 8)
    worst = 0
    for _ in range(rank_samples):
        q, _, v2 = draw()
        p0 = rng.uniform(-1, 1, size=n)
        hess = _fd_hessian(lambda pp: maps_oracle.value(ham, q, pp, v2), p0)
        sv = np.linalg.svd(hess, compute_uv=False)
        rank = int(np.sum(sv > 1e-6 * max(float(sv[0]), 1.0)))
        worst = max(worst, abs(rank - k))
    record("rank_agreement", rank_samples, float(worst), 0.0)

    if k == n:
        red_samples = min(samples, 50)
        worst = 0.0
        for _ in range(red_samples):
            q, p, _ = draw()
            classical = _full_newton_legendre(system, q, p)
            mixed = maps_oracle.value(ham, q, p, np.zeros(0))
            worst = max(
                worst, abs(mixed - classical) / (1.0 + abs(classical))
            )
        record("regular_reduction", red_samples, worst, 1e-9)
    else:
        vacuous("regular_reduction", "k < n")

    return results
