"""The sample-by-sample rank certification, kept as the reference.

This is ``legclair.partition.partition_indices`` as it was before the
sampled Hessians were certified from one batched eigendecomposition: each
sample takes a full SVD for its rank, ``eigvalsh`` for its inertia and, when
k > 0, another full SVD for the scale of the final W11 check.
``tests/test_partition.py`` requires the batched function to return an equal
``HessianPartition``, or to raise the same error type with the same message
and witness points.
"""

from __future__ import annotations

import numpy as np

from legclair.expr import eval_dual2
from legclair.partition import (
    DEFAULT_RANK_TOL,
    DEFAULT_SAMPLES,
    HessianPartition,
    LagrangianSystem,
    NoValidMinorError,
    RankNotConstantError,
    numerical_rank,
)


def _inertia(w: np.ndarray, rel_tol: float) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts above the relative cutoff."""
    eig = np.linalg.eigvalsh(w)
    scale = float(np.max(np.abs(eig))) if eig.size else 0.0
    if scale == 0.0:
        return (0, 0)
    cut = rel_tol * scale
    return (int(np.count_nonzero(eig > cut)), int(np.count_nonzero(eig < -cut)))


def _smallest_singular_value(matrix: np.ndarray) -> float:
    sv = np.linalg.svd(matrix, compute_uv=False)
    return float(sv[-1])


def partition_indices(
    system: LagrangianSystem,
    num_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> HessianPartition:
    if num_samples < 2:
        raise ValueError("need at least two samples to certify constancy")
    rng = np.random.default_rng(seed)
    points = system.sample(rng, num_samples)
    n = system.n

    hessians = np.empty((num_samples, n, n))
    ranks = np.empty(num_samples, dtype=int)
    signatures = []
    for s, x in enumerate(points):
        w = eval_dual2(system.lagrangian, x, range(n, 2 * n)).hess
        hessians[s] = w
        ranks[s] = numerical_rank(w, rel_tol)
        signatures.append(_inertia(w, rel_tol))

    for s in range(1, num_samples):
        if ranks[s] != ranks[0]:
            raise RankNotConstantError(
                f"Hessian rank is not constant over the domain: rank {ranks[0]} "
                f"at (q, v) = {points[0].tolist()} but rank {ranks[s]} at "
                f"(q, v) = {points[s].tolist()}",
                points[0],
                points[s],
            )
        if signatures[s] != signatures[0]:
            raise RankNotConstantError(
                "Hessian inertia is not constant over the domain (an eigenvalue "
                f"crosses zero inside the box): signature {signatures[0]} at "
                f"(q, v) = {points[0].tolist()} but {signatures[s]} at "
                f"(q, v) = {points[s].tolist()}",
                points[0],
                points[s],
            )

    k = int(ranks[0])
    mean_w = hessians.mean(axis=0)

    chosen: list[int] = []
    for _ in range(k):
        best_j = -1
        best_s = -np.inf
        for j in range(n):
            if j in chosen:
                continue
            idx = chosen + [j]
            s_min = _smallest_singular_value(mean_w[np.ix_(idx, idx)])
            if s_min > best_s:
                best_j, best_s = j, s_min
        chosen.append(best_j)

    regular = tuple(sorted(chosen))
    nonregular = tuple(i for i in range(n) if i not in regular)

    if k > 0:
        reg = np.array(regular)
        for s in range(num_samples):
            w = hessians[s]
            block = w[np.ix_(reg, reg)]
            scale = float(np.linalg.svd(w, compute_uv=False)[0])
            if _smallest_singular_value(block) <= rel_tol * scale:
                raise NoValidMinorError(
                    f"the k x k block on indices {regular} is singular at "
                    f"(q, v) = {points[s].tolist()} although the sampled rank "
                    f"is {k}; no valid minor found"
                )

    return HessianPartition(
        k=k,
        regular=regular,
        nonregular=nonregular,
        rank_tolerance=rel_tol,
        samples_checked=num_samples,
    )
