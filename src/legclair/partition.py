"""Velocity-Hessian rank analysis and the regular/nonregular index split.

For a Lagrangian L(q, v) the velocity Hessian W = d2L/dv dv decides which
velocities the Legendre map can invert.  This module samples W over the
declared domain box, insists its rank (and inertia) is constant, and picks a
maximal nonsingular principal block W11.  Indices in that block are the
*regular* velocities; the rest stay unresolved downstream.  The sampled
Hessians come from one call of L's stacked kernel with every velocity
active (the kernel the commands' envelope maps run as well), and one
symmetric eigendecomposition per sample, all in one batched call, gives the
rank, the inertia and the scale the certificate needs.  The closed form
that checks a 1×1 or 2×2 W11 block before any SVD lives here too, shared
with the envelope solver's checks in ``clairaut``.
"""

from __future__ import annotations

import sys
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
# the closed forms decide only outside this many ulps of the larger
# singular value, which is floored at the least normal float (see
# clairaut.check_w11)
W11_MARGIN = 16 * sys.float_info.epsilon
_LEAST_NORMAL = sys.float_info.min


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
    # dynamics._rk4)
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


def _closed_form(w11, ops):
    """(smallest, largest, margin) of a 1×1 or 2×2 block's rows by the
    closed form of :func:`clairaut.check_w11`: entries are floats (``ops``
    has ``math.hypot`` and ``max``) or numpy columns, one entry per block of
    a stack (``ops`` is ``np``).  The SVD's singular values lie within
    ``margin`` of these, so a block whose smallest one clears a threshold
    by ``margin`` clears it on the SVD; a non-finite entry or an overflow
    leaves NaN or inf, which clears nothing."""
    if len(w11) == 1:
        smallest = largest = abs(w11[0][0])
    else:
        (a, b), (c, d) = w11
        s, t = ops.hypot(a + d, c - b), ops.hypot(a - d, c + b)
        smallest, largest = abs(s - t) / 2, (s + t) / 2
    return smallest, largest, W11_MARGIN * ops.maximum(largest, _LEAST_NORMAL)


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
    singular value of the block (ties to the lowest index), from one
    batched SVD over every candidate's block; for k = n every index is
    regular and no SVD runs.  The final block is re-checked for
    nonsingularity at every sample: its smallest singular value must exceed
    ``rel_tol`` times the sample's scale.  A 1×1 or 2×2 block first meets
    the closed form of :func:`clairaut.check_w11`, which passes only the
    samples the SVD passes; one batched SVD decides the others, and larger
    blocks.
    """
    if num_samples < 2:
        raise ValueError("need at least two samples to certify constancy")
    rng = np.random.default_rng(seed)
    points = system.sample(rng, num_samples)
    n = system.n

    # the lowest failing sample raises its own error, as a scalar loop would
    hessians = eval_dual2_many(system.lagrangian, points, range(n, 2 * n)).hess
    eig = np.linalg.eigvalsh(hessians)  # each row ascending
    scale = np.maximum(-eig[:, 0], eig[:, -1])
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

    # each greedy step takes one batched SVD over its candidates' blocks,
    # the first largest smallest singular value winning; k = n needs none
    chosen = list(range(n)) if k == n else []
    while len(chosen) < k:
        rest = [j for j in range(n) if j not in chosen]
        idx = np.array([chosen + [j] for j in rest])
        s_min = np.linalg.svd(mean_w[idx[:, :, None], idx[:, None, :]],
                              compute_uv=False)[:, -1]
        chosen.append(rest[int(np.argmax(s_min))])

    regular = tuple(sorted(chosen))
    nonregular = tuple(i for i in range(n) if i not in regular)

    if k > 0:
        threshold = rel_tol * scale
        # the closed form passes the samples it can, the SVD decides the rest
        undecided = np.ones(num_samples, dtype=bool)
        if k < 3:
            with np.errstate(all="ignore"):  # overflowing samples
                smallest, _, margin = _closed_form(
                    [[hessians[:, i, j] for j in regular] for i in regular],
                    np)
            undecided = ~(smallest > threshold + margin)
        singular = np.zeros(num_samples, dtype=bool)
        if undecided.any():
            reg = np.array(regular)
            blocks = hessians[undecided][:, reg[:, None], reg]
            singular[undecided] = np.linalg.svd(
                blocks, compute_uv=False)[:, -1] <= threshold[undecided]
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
