"""Velocity-Hessian rank analysis and the regular/nonregular index split.

For a Lagrangian L(q, v) the velocity Hessian W = d2L/dv dv decides which
velocities the Legendre map can invert.  This module samples W over the
declared domain box, insists its rank (and inertia) is constant, and picks a
maximal nonsingular principal block W11.  Indices in that block are the
*regular* velocities; the rest stay unresolved downstream.  The sampled
Hessians come from one call of L's stacked kernel with every velocity
active (the kernel the commands' envelope maps run as well), and one
symmetric eigendecomposition per sample, all in one batched call, gives the
rank, the inertia and the scale the certificate needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import Expression, eval_dual2_many, parse

__all__ = [
    "LagrangianSystem",
    "HessianPartition",
    "RankNotConstantError",
    "NoValidMinorError",
    "qv_names",
    "numerical_rank",
    "partition_indices",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_SAMPLES = 64


class RankNotConstantError(Exception):
    """W's rank or inertia differs between two sampled domain points."""

    def __init__(self, message, point_a, point_b):
        super().__init__(message)
        self.point_a = np.asarray(point_a, dtype=float)
        self.point_b = np.asarray(point_b, dtype=float)


class NoValidMinorError(Exception):
    """No index choice keeps W11 nonsingular at every sampled point."""


def qv_names(n: int) -> tuple[str, ...]:
    """Canonical variable table for an n-dof Lagrangian: q1..qn, v1..vn."""
    return tuple(f"q{i + 1}" for i in range(n)) + tuple(
        f"v{i + 1}" for i in range(n)
    )


@dataclass
class LagrangianSystem:
    """A Lagrangian and its sampling box.

    ``domain_lo``/``domain_hi`` are aligned with the variable table
    (q1..qn, v1..vn); every interval must have finite bounds and a positive,
    finite width.
    """

    n: int
    lagrangian: Expression
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    # the compiled stage kernels and RK4 loops of the flows (dynamics._stage,
    # dynamics._rk4) and the envelope Newton kernel
    _stages: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def __post_init__(self):
        names = qv_names(self.n)
        if self.lagrangian.variables != names:
            raise ValueError(
                f"lagrangian must use the variable table {names}, "
                f"got {self.lagrangian.variables}"
            )
        self.domain_lo = np.asarray(self.domain_lo, dtype=float)
        self.domain_hi = np.asarray(self.domain_hi, dtype=float)
        if self.domain_lo.shape != (2 * self.n,) or self.domain_hi.shape != (
            2 * self.n,
        ):
            raise ValueError("domain bounds must each have one entry per variable")
        if not (np.isfinite(self.domain_lo).all()
                and np.isfinite(self.domain_hi).all()):
            raise ValueError("domain bounds must be finite")
        if not np.all(self.domain_lo < self.domain_hi):
            raise ValueError("every domain interval needs lo < hi")
        with np.errstate(over="ignore"):
            width = self.domain_hi - self.domain_lo
        if not np.isfinite(width).all():
            raise ValueError("every domain interval needs a finite width")

    @classmethod
    def from_source(cls, n: int, source: str, domain: dict | None = None,
                    default_bounds=(-2.0, 2.0)) -> "LagrangianSystem":
        """Build from Lagrangian source text and a {name: (lo, hi)} box."""
        names = qv_names(n)
        lag = parse(source, names)
        domain = dict(domain or {})
        lo = np.empty(2 * n)
        hi = np.empty(2 * n)
        for i, name in enumerate(names):
            lo[i], hi[i] = domain.pop(name, default_bounds)
        if domain:
            raise ValueError(f"domain mentions unknown variables {sorted(domain)}")
        return cls(n, lag, lo, hi)

    def center(self) -> np.ndarray:
        return 0.5 * (self.domain_lo + self.domain_hi)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform (count, 2n) samples of (q, v) in the box."""
        return rng.uniform(self.domain_lo, self.domain_hi, size=(count, 2 * self.n))

    def point(self, q, v) -> np.ndarray:
        return np.concatenate([np.asarray(q, float), np.asarray(v, float)])


@dataclass(frozen=True)
class HessianPartition:
    """Index bookkeeping for the split of velocities into v1 (regular) / v2.

    ``sigma`` is the permutation (regular indices ascending, then nonregular
    ascending): applying it to W's rows and columns puts the certified
    nonsingular k x k block in the top-left corner.
    """

    k: int
    regular: tuple[int, ...]
    nonregular: tuple[int, ...]
    rank_tolerance: float
    samples_checked: int

    @property
    def sigma(self) -> tuple[int, ...]:
        return self.regular + self.nonregular


def checked_vector(x, size: int, name: str) -> np.ndarray:
    """``x`` as a float vector, or ValueError naming it unless it has ``size``
    entries."""
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({size},)")
    return x


def checked_rows(x, size: int, name: str, count=None) -> np.ndarray:
    """``x`` as a float (count, size) array, or ValueError naming it; any
    count is accepted when ``count`` is None."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != size or count not in (None, len(x)):
        rows = "count" if count is None else count
        raise ValueError(f"{name} has shape {x.shape}, expected ({rows}, {size})")
    return x


def numerical_rank(matrix, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol times the largest.

    Total on every square matrix; an all-zero matrix has rank 0.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def partition_indices(
    system: LagrangianSystem,
    num_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> HessianPartition:
    """Sample W over the box and choose the regular index set.

    One symmetric eigendecomposition per sample gives its scale (the largest
    |eigenvalue|), its inertia (the eigenvalues above ``rel_tol`` times the
    scale, and those below minus that) and its rank (their sum).  The rank
    must be identical at every sample, and so must the inertia signature: a
    sign flip of some eigenvalue between two samples proves (by continuity)
    that it crosses zero inside the box even when no sample lands exactly on
    the crossing, so borderline systems are rejected rather than silently
    partitioned.  Regular indices are grown greedily on the sample-averaged
    Hessian, each step taking the candidate that maximizes the smallest
    singular value of the block (ties to the lowest index), and the final
    block is re-checked for nonsingularity at every sample.
    """
    if num_samples < 2:
        raise ValueError("need at least two samples to certify constancy")
    rng = np.random.default_rng(seed)
    points = system.sample(rng, num_samples)
    n = system.n

    # the lowest failing sample raises its own error, as a scalar loop would
    hessians = eval_dual2_many(system.lagrangian, points, range(n, 2 * n)).hess
    eig = np.linalg.eigvalsh(hessians)
    scale = np.abs(eig).max(axis=1)
    cut = rel_tol * scale[:, None]
    positive = np.count_nonzero(eig > cut, axis=1)
    negative = np.count_nonzero(eig < -cut, axis=1)
    ranks = positive + negative

    differs = (positive != positive[0]) | (negative != negative[0])
    if differs.any():
        s = int(np.argmax(differs))
        if ranks[s] != ranks[0]:
            raise RankNotConstantError(
                f"Hessian rank is not constant over the domain: rank {ranks[0]} "
                f"at (q, v) = {points[0].tolist()} but rank {ranks[s]} at "
                f"(q, v) = {points[s].tolist()}",
                points[0],
                points[s],
            )
        first, other = ((int(positive[i]), int(negative[i])) for i in (0, s))
        raise RankNotConstantError(
            "Hessian inertia is not constant over the domain (an eigenvalue "
            f"crosses zero inside the box): signature {first} at "
            f"(q, v) = {points[0].tolist()} but {other} at "
            f"(q, v) = {points[s].tolist()}",
            points[0],
            points[s],
        )

    k = int(ranks[0])
    with np.errstate(over="ignore"):
        mean_w = hessians.mean(axis=0)
    if not np.isfinite(mean_w).all():
        # the sum of entries near the largest float overflowed: average
        # each sample scaled by its largest |eigenvalue| instead
        mean_w = (hessians / scale[:, None, None]).mean(axis=0)

    chosen: list[int] = []
    for _ in range(k):
        best_j = -1
        best_s = -np.inf
        for j in range(n):
            if j in chosen:
                continue
            idx = chosen + [j]
            block = mean_w[np.ix_(idx, idx)]
            s_min = np.linalg.svd(block, compute_uv=False)[-1]
            if s_min > best_s:
                best_j, best_s = j, s_min
        chosen.append(best_j)

    regular = tuple(sorted(chosen))
    nonregular = tuple(i for i in range(n) if i not in regular)

    if k > 0:
        reg = np.array(regular)
        smallest = np.linalg.svd(
            hessians[:, reg[:, None], reg], compute_uv=False
        )[:, -1]
        singular = smallest <= rel_tol * scale
        if singular.any():
            s = int(np.argmax(singular))
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
