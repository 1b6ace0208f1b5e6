"""The numerical property suite behind ``legclair verify``.

Each property samples the declared domain box and measures how far the
transform is from one of its defining identities: the Clairaut equation,
the envelope gradients dH/dp = (V, v2), probe independence of Psi and H0,
the split H = H0 + v2*Phi, involutivity, the rank of H's momentum Hessian
and, for k = n, agreement with a plain classical Legendre transform.

Each property runs on stacked samples: a chunk of up to ``CHUNK_ROWS``
samples is drawn with one ``Generator.uniform`` call and evaluated by the
stacked maps of ``MixedHamiltonian`` (``value_many`` and the rest), so a
Newton iteration is one kernel call and one batched solve for the whole
chunk.  A sample row holds the numbers in the order the sample-by-sample
suite drew them, so the stream, the samples and the worst values are the
same.  The stacked maps are the only bodies of the maps (``value`` and
the rest are their one-row calls), so a row alone raises that sample's own
error.  A property calls several maps in turn, and a later sample may fail
in an earlier map than the first failing sample does, so a chunk that
raises is rerun one row at a time through the same body: the first failing
sample's error is raised, as the sample-by-sample suite raised it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    contract,
)
from .expr import eval_dual2_many, evaluate_many

__all__ = ["PropertyResult", "run_property_suite"]

CHUNK_ROWS = 128  # samples evaluated together: bounds the suite's memory


def _fd_hessian(f, x, h=1e-4):
    """Central-difference Hessians of f at every row of x (count, d).

    ``f`` maps stencil points (count, m, d) to their values (count, m).
    Each row's m points come in the order x, then for each i: x + e_i,
    x - e_i, and x + e_i + e_j, x + e_i - e_j, x - e_i + e_j, x - e_i - e_j
    for j > i.
    """
    x = np.asarray(x, dtype=float)
    count, d = x.shape
    stencil = [x]
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        stencil += [x + ei, x - ei]
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            stencil += [x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej]
    values = f(np.stack(stencil, axis=1))
    f0 = values[:, 0]
    out = np.empty((count, d, d))
    at = 1
    for i in range(d):
        out[:, i, i] = (values[:, at] - 2.0 * f0 + values[:, at + 1]) / (h * h)
        at += 2
        for j in range(i + 1, d):
            pp, pm, mp, mm = values[:, at:at + 4].T
            out[:, i, j] = out[:, j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
            at += 4
    return out


def _full_newton_legendre(system, q, p, tol=1e-12, max_iter=60):
    """Classical transform at every row of q, p (count, n) via plain
    full-Hessian Newton (self-check only).

    Independent of the envelope machinery: no partition, no damping.  Lanes
    leave as they converge; one that does not converge, or meets a singular
    velocity Hessian, fails the call.
    """
    n = system.n
    p = np.asarray(p, dtype=float)
    count = len(p)
    x = np.zeros((count, 2 * n))
    x[:, :n] = q
    v = x[:, n:].copy()
    out = np.empty(count)
    lanes = np.arange(count)
    for _ in range(max_iter):
        d = eval_dual2_many(system.lagrangian, x, range(n, 2 * n))
        r = p - d.grad
        done = np.abs(r).max(axis=1) <= tol
        hess = d.hess
        if done.any():
            out[lanes[done]] = contract(p[done].T, v[done].T) - d.value[done]
            lanes, x, v, p, r, hess = (a[~done]
                                       for a in (lanes, x, v, p, r, hess))
            if not lanes.size:
                return out
        try:
            v = v + np.linalg.solve(hess, r[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for lane in range(len(v)):  # name the first singular lane
                try:
                    np.linalg.solve(hess[lane], r[lane])
                except np.linalg.LinAlgError:
                    raise SingularJacobianError(
                        "velocity Hessian is singular at classical Newton "
                        f"iterate v={v[lane].tolist()}"
                    ) from None
            raise
        x[:, n:] = v
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
    lo, hi = system.domain_lo, system.domain_hi
    vlo, vhi = lo[n:], hi[n:]
    lo2, hi2 = vlo[nonreg,], vhi[nonreg,]
    results = []

    def record(name, count, worst, tol):
        status = "PASS" if worst <= tol else "FAIL"
        results.append(PropertyResult(name, count, float(worst), tol, status))

    def vacuous(name, reason):
        results.append(
            PropertyResult(name, 0, float("nan"), float("nan"),
                           f"vacuous ({reason})")
        )

    def sweep(count, low, high, stacked):
        """Worst value of one property (per column, if it has several)
        over ``count`` samples, each one row drawn from [low, high)."""
        low, high = np.concatenate(low), np.concatenate(high)
        worst = 0.0
        for start in range(0, count, CHUNK_ROWS):
            size = (min(CHUNK_ROWS, count - start), len(low))
            rows = rng.uniform(low, high, size=size)
            try:
                values = stacked(rows)
            except Exception:
                # the first sample that fails on its own raises its error
                for row in rows:
                    stacked(row[None])
                raise
            # NaN never becomes the worst value, as with max(worst, value)
            worst = np.fmax(worst, np.fmax.reduce(values, axis=0, initial=0.0))
        return worst

    def parts(rows):
        """(q, p, v2) of a row, or of every row of a chunk."""
        return rows[..., :n], rows[..., 2 * n:3 * n], rows[..., n:2 * n][..., nonreg]

    # one row of the sample-by-sample suite's draw(): (q, v), then p
    drawn = ([lo, vlo], [hi, vhi])

    worst = sweep(samples, *drawn,
                  lambda rows: ham.clairaut_residual_many(*parts(rows)))
    record("clairaut_residual", samples, worst, tol_residual)

    def grad(rows):
        q, p, v2 = parts(rows)
        v1, _, slope = ham.momentum_gradient_many(q, p, v2)
        return np.stack([
            np.fmax.reduce(np.abs(slope[:, reg] - v1), axis=1, initial=0.0),
            np.fmax.reduce(np.abs(slope[:, nonreg] - v2), axis=1, initial=0.0),
        ], axis=1)

    grad_samples = min(samples, 50)
    worst_p1, worst_p2 = sweep(grad_samples, *drawn, grad)
    record("envelope_grad_p1", grad_samples, worst_p1, 1e-6)
    if k < n:
        record("envelope_grad_p2", grad_samples, worst_p2, 1e-8)
    else:
        vacuous("envelope_grad_p2", "k = n")

    if k < n:
        def independence(rows):
            q, p, _ = parts(rows)
            count = len(rows)
            p1 = p[:, reg]
            psi_ref = ham.psi_many(q, p1)
            h0_ref = ham.h_zero_many(q, p1)
            # block j holds probe j of every row
            probes = rows[:, 3 * n:].reshape(count, 5, n - k).swapaxes(0, 1)
            probes = probes.reshape(5 * count, n - k)
            qs, p1s = np.tile(q, (5, 1)), np.tile(p1, (5, 1))
            psi = ham.psi_many(qs, p1s, probes).reshape(5, count, n - k)
            h0 = ham.h_zero_many(qs, p1s, probes).reshape(5, count)
            dpsi = np.abs(psi - psi_ref).max(axis=2)
            scale = 1.0 + np.abs(psi_ref).max(axis=1)
            dh0 = np.abs(h0 - h0_ref)
            return np.fmax.reduce(
                [dpsi / scale, dh0 / (1.0 + np.abs(h0_ref))], axis=(0, 1)
            )

        ind_samples = min(samples, 25)
        worst = sweep(ind_samples, drawn[0] + [lo2] * 5, drawn[1] + [hi2] * 5,
                      independence)
        record("probe_independence", ind_samples, worst, 1e-8)
    else:
        vacuous("probe_independence", "k = n")

    def decomposition(rows):
        q, p, v2 = parts(rows)
        h = ham.value_many(q, p, v2)
        split = (ham.h_zero_many(q, p[:, reg])
                 + contract(v2.T, ham.phi_many(q, p).T))
        return np.abs(h - split) / (1.0 + np.abs(h))

    worst = sweep(samples, *drawn, decomposition)
    record("decomposition", samples, worst, 1e-8)

    def involution(rows):
        x, p2 = rows[:, :2 * n], rows[:, 2 * n:]
        lval = evaluate_many(system.lagrangian, x)
        back = ham.inverse_transform_many(x[:, :n], x[:, n:], p2)
        return np.abs(back - lval) / (1.0 + np.abs(lval))

    worst = sweep(samples, [lo, lo2], [hi, hi2], involution)
    record("involutivity", samples, worst, tol_involution)

    def rank(rows):
        q, _, v2 = parts(rows)
        m = 2 * n * n + 1  # stencil points per row

        def values(points):
            flat = points.reshape(-1, n)
            return ham.value_many(np.repeat(q, m, axis=0), flat,
                                  np.repeat(v2, m, axis=0)).reshape(-1, m)

        hess = _fd_hessian(values, rows[:, 3 * n:])
        sv = np.linalg.svd(hess, compute_uv=False)
        cut = 1e-6 * np.maximum(sv[:, :1], 1.0)
        return np.abs(np.count_nonzero(sv > cut, axis=1) - k).astype(float)

    rank_samples = min(samples, 8)
    ones = np.ones(n)
    worst = sweep(rank_samples, drawn[0] + [-ones], drawn[1] + [ones], rank)
    record("rank_agreement", rank_samples, float(worst), 0.0)

    if k == n:
        def reduction(rows):
            q, p, v2 = parts(rows)
            classical = _full_newton_legendre(system, q, p)
            mixed = ham.value_many(q, p, v2)
            return np.abs(mixed - classical) / (1.0 + np.abs(classical))

        red_samples = min(samples, 50)
        worst = sweep(red_samples, *drawn, reduction)
        record("regular_reduction", red_samples, worst, 1e-9)
    else:
        vacuous("regular_reduction", "k < n")

    return results
