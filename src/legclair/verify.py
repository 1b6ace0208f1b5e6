"""The numerical property suite behind ``legclair verify``.

Each property samples the declared domain box and measures how far the
transform is from one of its defining identities: the Clairaut equation,
the envelope gradients dH/dp = (V, v2), probe independence of Psi and H0,
the split H = H0 + v2*Phi, involutivity, the rank of H's momentum Hessian
and, for k = n, agreement with a plain classical Legendre transform.

The suite runs in three steps, on stacked samples:

1. **Draw.**  Each property draws its samples a chunk of up to
   ``clairaut.CHUNK_ROWS`` at a time, one ``Generator.uniform`` call per
   chunk, the properties in turn.  A sample row holds the numbers in the
   order the sample-by-sample suite drew them, so the stream, the samples
   and the worst values are the same.
2. **Solve.**  Every envelope row of the drawn chunks that starts from
   the default guess (a cold row) goes to one stacked solve, and the +-p1
   stencil rows of the Clairaut residual and ``envelope_grad``,
   warm-started from that V, to one more.  Chunks join one batch until its
   cold rows would pass ``LANE_CHUNKS * clairaut.CHUNK_ROWS``, and no
   solve takes more rows, so memory does not grow with ``samples``.
3. **Finish.**  Each chunk forms its property from its slice of V through
   the solve-free bodies of the maps of ``MixedHamiltonian``
   (``value_at``, ``envelope_at``, ``clairaut_residual_at``,
   ``momentum_gradient_at`` and ``inverse_transform_at``), chunk after
   chunk in the order they were drawn.

A lane ends as ``solve`` ends at its row, so a row of a merged solve has
the bits and the error of the row alone.  A finish takes V through
``_Solved.take``, which raises the error of the first row that failed, in
the order its map solves them, so a row alone raises that sample's own
error, in its map order.  A property calls several maps in turn, and a
later sample may fail in an earlier map than the first failing sample does,
so a chunk that raises is bisected by :func:`~legclair.clairaut.row_failures`,
on the V already solved, down to the lowest sample that raises alone, whose
error is raised, as the sample-by-sample suite raised it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import clairaut
from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    contract,
    row_failures,
)
from .expr import eval_dual2_many, evaluate_many

__all__ = ["PropertyResult", "run_property_suite"]

# a stacked envelope solve of the suite takes at most LANE_CHUNKS *
# clairaut.CHUNK_ROWS rows, so its memory does not grow with the samples
# either
LANE_CHUNKS = 4


def _fd_stencil(x, h=1e-4):
    """The central-difference stencil points at every row of x (count, d),
    as (count, m, d): x, then for each i: x + e_i, x - e_i, and x + e_i +
    e_j, x + e_i - e_j, x - e_i + e_j, x - e_i - e_j for j > i."""
    x = np.asarray(x, dtype=float)
    d = x.shape[1]
    stencil = [x]
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        stencil += [x + ei, x - ei]
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            stencil += [x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej]
    return np.stack(stencil, axis=1)


def _fd_hessian(values, d, h=1e-4):
    """Central-difference Hessians (count, d, d) from the values (count, m)
    of a function at the points of :func:`_fd_stencil`."""
    f0 = values[:, 0]
    out = np.empty((len(values), d, d))
    at = 1
    for i in range(d):
        out[:, i, i] = (values[:, at] - 2.0 * f0 + values[:, at + 1]) / (h * h)
        at += 2
        for j in range(i + 1, d):
            pp, pm, mp, mm = values[:, at:at + 4].T
            out[:, i, j] = out[:, j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
            at += 4
    return out


def _distinct_rows(x):
    """(first, inverse) for the rows of x, compared bit for bit: ``first``
    indexes each distinct row's first occurrence, in the order they occur,
    and ``x[first][inverse]`` is x."""
    ids = {}
    inverse = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in x],
                       dtype=int)
    return np.unique(inverse, return_index=True)[1], inverse


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


@dataclass
class _Solved:
    """V at a block of envelope rows, NaN at the rows whose solve failed,
    and ``{row: error}`` for those rows."""

    v1: np.ndarray
    failed: dict

    def part(self, rows):
        """V at ``rows`` (an index array) and ``{i: error}`` for each
        ``rows[i]`` that failed."""
        failed = {i: self.failed[row] for i, row in enumerate(rows.tolist())
                  if row in self.failed} if self.failed else {}
        return self.v1[rows], failed

    def take(self, rows, count=None):
        """V at ``rows``; raises the error of the first of them that failed.
        With ``count``, the block is a stack of ``count``-row blocks, and
        ``rows`` is taken from each, block after block."""
        if count is not None:
            blocks = np.arange(len(self.v1) // count)[:, None]
            rows = (blocks * count + rows).ravel()
        v1, failed = self.part(rows)
        if failed:
            raise failed[min(failed)]
        return v1


def _solve(solver, blocks, bound):
    """Solve the envelope rows of ``blocks``, each (q, p1, c2) or (q, p1,
    c2, guess) arrays, together, in stacked solves of at most ``bound``
    rows: one :class:`_Solved` per block.  A lane ends as ``solve`` ends at
    its row, so each row has its bits and its error alone."""
    sizes = [len(block[0]) for block in blocks]
    stacked = [np.concatenate(x) for x in zip(*blocks)]
    v1, failed = np.empty((sum(sizes), solver.partition.k)), {}
    for start in range(0, len(v1), bound):
        v1[start:start + bound], bad = solver.solve_lanes(
            *(x[start:start + bound] for x in stacked))
        failed.update((start + lane, error) for lane, error in bad.items())
    out, start = [], 0
    for size in sizes:
        out.append(_Solved(v1[start:start + size],
                           {row - start: error for row, error in failed.items()
                            if start <= row < start + size}))
        start += size
    return out


@dataclass
class _Chunk:
    """One drawn chunk of a property: ``cold`` holds the (q, p1, c2)
    blocks of its rows solved from the default start, and ``warm``, if
    any, gives the (q, p1, c2, guess) block warm-started from the first
    cold block's V.  ``finish(solved, sel)`` forms the property's values at
    the rows ``sel`` of the chunk from the :class:`_Solved` of its blocks,
    cold then warm."""

    cold: list
    finish: Callable
    warm: Callable | None = None


def _sweep(solver, rng, sweeps):
    """The worst value of each sweep (per column, if it has several), a
    sweep being (count, low, high, chunk): ``count`` samples drawn, up to
    ``clairaut.CHUNK_ROWS`` rows at a time, from [low, high), and made into a
    :class:`_Chunk` by ``chunk(rows)``; the chunks are drawn, solved and
    finished in batches, as the module docstring says."""
    bound = LANE_CHUNKS * clairaut.CHUNK_ROWS
    worst = [0.0] * len(sweeps)
    batch, held = [], 0

    def flush():
        cold = iter(_solve(solver, [b for _, c, _ in batch for b in c.cold],
                           bound))
        solved = [[next(cold) for _ in c.cold] for _, c, _ in batch]
        warm = [(s, c.warm(s[0].v1))
                for s, (_, c, _) in zip(solved, batch) if c.warm]
        for (s, _), w in zip(warm, _solve(solver, [b for _, b in warm],
                                          bound)):
            s.append(w)
        for (i, c, size), s in zip(batch, solved):
            values = []
            for _, error in row_failures(
                    lambda sel: values.append(c.finish(s, sel)),
                    np.arange(size)):
                raise error  # the lowest sample that fails on its own
            # NaN never becomes the worst value, as with max(worst, value)
            worst[i] = np.fmax(worst[i], np.fmax.reduce(
                np.concatenate(values), axis=0, initial=0.0))

    for i, (count, low, high, chunk) in enumerate(sweeps):
        low, high = np.concatenate(low), np.concatenate(high)
        for start in range(0, count, clairaut.CHUNK_ROWS):
            size = min(clairaut.CHUNK_ROWS, count - start)
            c = chunk(rng.uniform(low, high, size=(size, len(low))))
            lanes = sum(len(block[0]) for block in c.cold)
            if batch and held + lanes > bound:
                flush()
                batch, held = [], 0
            batch.append((i, c, size))
            held += lanes
    if batch:
        flush()
    return worst


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

    def parts(rows):
        """(q, p, v2) of a row, or of every row of a chunk."""
        return rows[..., :n], rows[..., 2 * n:3 * n], rows[..., n:2 * n][..., nonreg]

    def at_probe(q, p1):
        """(q, p1, c2) rows at the default probe."""
        return q, p1, np.broadcast_to(ham.default_probe(), (len(q), n - k))

    def momentum(finish):
        """A chunk whose property ``finish(q, p, v2, v1, v1_stencil)`` takes
        V at (q, p1, v2) and at the rows of ``ham.momentum_stencil``."""
        def chunk(rows):
            q, p, v2 = parts(rows)

            def done(solved, sel):
                cold, warm = solved
                v1 = cold.take(sel)
                return finish(*parts(rows[sel]), v1,
                              warm.take(sel, len(rows)))

            return _Chunk([(q, p[:, reg], v2)], done,
                          lambda v1: ham.momentum_stencil(q, p, v2, v1))
        return chunk

    # one row of the sample-by-sample suite's draw(): (q, v), then p
    drawn = ([lo, vlo], [hi, vhi])
    sweeps = [(samples, *drawn, momentum(ham.clairaut_residual_at))]

    def grad(q, p, v2, v1, v1_stencil):
        _, slope = ham.momentum_gradient_at(q, p, v2, v1, v1_stencil)
        return np.stack([
            np.fmax.reduce(np.abs(slope[:, reg] - v1), axis=1, initial=0.0),
            np.fmax.reduce(np.abs(slope[:, nonreg] - v2), axis=1, initial=0.0),
        ], axis=1)

    grad_samples = min(samples, 50)
    sweeps.append((grad_samples, *drawn, momentum(grad)))

    def independence(rows):
        def stacks(rows):
            """(q, p1) rows, then (q, p1, c2) rows with probe j of every
            row in block j."""
            q, p, _ = parts(rows)
            count, p1 = len(rows), p[:, reg]
            probes = rows[:, 3 * n:].reshape(count, 5, n - k).swapaxes(0, 1)
            return (q, p1), (np.tile(q, (5, 1)), np.tile(p1, (5, 1)),
                             probes.reshape(5 * count, n - k))

        def finish(solved, sel):
            (q, p1), probed = stacks(rows[sel])
            count = len(sel)
            psi_ref, h0_ref = ham.envelope_at(*at_probe(q, p1),
                                              solved[0].take(sel))
            psi, h0 = ham.envelope_at(*probed, solved[1].take(sel, len(rows)))
            psi, h0 = psi.reshape(5, count, n - k), h0.reshape(5, count)
            dpsi = np.abs(psi - psi_ref).max(axis=2)
            scale = 1.0 + np.abs(psi_ref).max(axis=1)
            dh0 = np.abs(h0 - h0_ref)
            return np.fmax.reduce(
                [dpsi / scale, dh0 / (1.0 + np.abs(h0_ref))], axis=(0, 1)
            )

        (q, p1), probed = stacks(rows)
        return _Chunk([at_probe(q, p1), probed], finish)

    ind_samples = min(samples, 25)
    if k < n:
        sweeps.append((ind_samples, drawn[0] + [lo2] * 5,
                       drawn[1] + [hi2] * 5, independence))

    def decomposition(rows):
        def finish(solved, sel):
            q, p, v2 = parts(rows[sel])
            h = ham.value_at(q, p, v2, solved[0].take(sel))
            psi, h0 = ham.envelope_at(*at_probe(q, p[:, reg]),
                                      solved[1].take(sel))
            split = h0 + contract(v2.T, (p[:, nonreg] - psi).T)
            return np.abs(h - split) / (1.0 + np.abs(h))

        q, p, v2 = parts(rows)
        return _Chunk([(q, p[:, reg], v2), at_probe(q, p[:, reg])], finish)

    sweeps.append((samples, *drawn, decomposition))

    def involution(rows):
        def finish(solved, sel):
            x, p2 = rows[sel, :2 * n], rows[sel, 2 * n:]
            lval = evaluate_many(system.lagrangian, x)
            back = ham.inverse_transform_at(
                x[:, :n], x[:, n:], p2, np.zeros((len(sel), k)),
                *solved[0].part(sel))
            return np.abs(back - lval) / (1.0 + np.abs(lval))

        # the inverse transform's start, p1 = 0, solved cold
        v2 = rows[:, n:2 * n][:, nonreg]
        return _Chunk([(rows[:, :n], np.zeros((len(rows), k)), v2)], finish)

    sweeps.append((samples, [lo, lo2], [hi, hi2], involution))

    m = 2 * n * n + 1  # points of H's momentum-Hessian stencil per row

    def rank(rows):
        def finish(solved, sel):
            # H at every stencil point, as value_many forms it, at the V of
            # its distinct row: the first failing point's error is raised,
            # as value_many raises
            at = (sel[:, None] * m + np.arange(m)).ravel()
            v1 = solved[0].take(inverse[at])
            values = ham.value_at(qs[at], p[at], v2s[at], v1).reshape(-1, m)
            hess = _fd_hessian(values, n)
            sv = np.linalg.svd(hess, compute_uv=False)
            cut = 1e-6 * np.maximum(sv[:, :1], 1.0)
            return np.abs(np.count_nonzero(sv > cut, axis=1) - k).astype(float)

        # points that differ only in p2 share (q, p1, v2), so V is solved
        # once per such row, the rows in the order they first occur
        q, _, v2 = parts(rows)
        qs, v2s = np.repeat(q, m, axis=0), np.repeat(v2, m, axis=0)
        p = _fd_stencil(rows[:, 3 * n:]).reshape(-1, n)
        first, inverse = _distinct_rows(np.concatenate([qs, p[:, reg], v2s],
                                                       axis=1))
        return _Chunk([(qs[first], p[first][:, reg], v2s[first])], finish)

    rank_samples = min(samples, 8)
    ones = np.ones(n)
    sweeps.append((rank_samples, drawn[0] + [-ones], drawn[1] + [ones], rank))

    def reduction(rows):
        def finish(solved, sel):
            q, p, v2 = parts(rows[sel])
            classical = _full_newton_legendre(system, q, p)
            mixed = ham.value_at(q, p, v2, solved[0].take(sel))
            return np.abs(mixed - classical) / (1.0 + np.abs(classical))

        q, p, v2 = parts(rows)
        return _Chunk([(q, p[:, reg], v2)], finish)

    red_samples = min(samples, 50)
    if k == n:
        sweeps.append((red_samples, *drawn, reduction))

    worst = iter(_sweep(ham.solver, rng, sweeps))
    record("clairaut_residual", samples, next(worst), tol_residual)
    worst_p1, worst_p2 = next(worst)
    record("envelope_grad_p1", grad_samples, worst_p1, 1e-6)
    if k < n:
        record("envelope_grad_p2", grad_samples, worst_p2, 1e-8)
        record("probe_independence", ind_samples, next(worst), 1e-8)
    else:
        vacuous("envelope_grad_p2", "k = n")
        vacuous("probe_independence", "k = n")
    record("decomposition", samples, next(worst), 1e-8)
    record("involutivity", samples, next(worst), tol_involution)
    record("rank_agreement", rank_samples, next(worst), 0.0)
    if k == n:
        record("regular_reduction", red_samples, next(worst), 1e-9)
    else:
        vacuous("regular_reduction", "k < n")
    return results
