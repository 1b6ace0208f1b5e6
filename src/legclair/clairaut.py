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

import contextlib
import functools
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    EvalDomainError,
    Expression,
    _Codegen,
    _Term,
    _columns,
    _evaluates,
    eval_dual2,
    eval_dual2_many,
    evaluate,
    evaluate_many,
    with_variables,
)
from .partition import (
    HessianPartition,
    LagrangianSystem,
    _closed_form,
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
    "analyze_report",
    "transform_table",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_BACKTRACKS = 20
FD_MOMENTUM_STEP = 1e-6
# rows evaluated together by analyze, transform and verify: bounds their
# memory (one verify of deg3 at 1,024 samples peaks at 3.4 MB under
# tracemalloc)
CHUNK_ROWS = 1024


class NewtonDivergedError(Exception):
    """Newton failed to reach tolerance; carries the residual-norm history."""

    def __init__(self, message, residual_history):
        history = [float(r) for r in residual_history]
        super().__init__(f"{message}; residual history {history}")
        self.residual_history = history


class SingularJacobianError(Exception):
    """The W11 block dropped below tolerance at a Newton iterate."""


def _inf_norm(x) -> float:
    """max |x_i| of a float list, NaN if an entry is NaN (as ``np.max``
    has it, where Python's ``max`` may skip it), 0.0 if it is empty."""
    norm = 0.0
    for value in x:
        value = abs(value)
        if not value <= norm:  # larger, or NaN
            if value != value:
                return value
            norm = value
    return norm


def contract(a, b):
    """0.0 + a1*b1 + a2*b2 + ... left to right, on floats or numpy columns
    (a stacked row has a point's bits): a BLAS product's bits follow the
    CPU's kernel, and ``sum`` compensates float sums from Python 3.12 on."""
    total = 0.0
    for x, y in zip(a, b):
        total = total + x * y
    return total


# the numpy functions _closed_form and _clears call, for float entries
_FLOAT_OPS = types.SimpleNamespace(hypot=math.hypot, maximum=max)


def check_w11(w11, tol: float, where: str, **at):
    """Raise ``SingularJacobianError`` if W11's smallest singular value is at
    most ``tol * max(largest, 1)``, else return (smallest, largest).  The
    message is ``where`` followed by the ``name=value`` pairs of ``at``
    (arrays or float lists), built only on failure.

    W11 is one block, as an array (k, k) or as k float rows; the lanes of a
    stacked solve are checked by :func:`singular_lanes`.  Every check is
    decided as ``np.linalg.svd`` decides it.  A 1×1 or 2×2 block first
    meets one closed form (:func:`_closed_form`, on floats for a block and
    on numpy columns for lanes), which only ever passes a block; the SVD
    takes every block it does not pass, and only those, and a failure's
    message shows the SVD's value:

    - 1×1 [[w]] has the singular value |w|.
    - 2×2 [[a, b], [c, d]] has the singular values (s ± t) / 2, where s =
      hypot(a + d, c - b) and t = hypot(a - d, c + b).  Since s² - t² =
      4 det, the larger is (s + t) / 2 and the smaller |s - t| / 2 for
      either sign of det.

    The block passes when the smaller exceeds ``tol * max(larger, 1)`` by
    ``W11_MARGIN * max(larger, tiny)``, 16ε of the larger (ε the machine
    epsilon, ``tiny`` the least normal float).  The margin covers both
    sides' errors, σ being the larger value:

    - 1×1: LAPACK returns |w| exactly, except that it rescales a block
      beyond about 1e±138 and then returns |w| to within 2 ulps.
    - 2×2: the sums round by ε/2 and hypot (Python's or the C library's)
      by under 1 ulp, so s and t are within 1.5ε relative and both closed
      forms within 2εσ.  LAPACK reduces the block to bidiagonal form by
      Householder reflections, whose backward error moves each singular
      value by a few εσ (Weyl's inequality), and takes the bidiagonal
      2×2's values to a few ε relative (``dlas2``; Demmel and Kahan, SIAM
      J. Sci. Stat. Comput. 11, 1990); against 200-bit arithmetic its
      error reached 3.7εσ on 30,000 random blocks.
    - The two thresholds differ by tol times these errors, less than the
      errors themselves, since for tol ≥ 1 no block passes here (smaller
      ≤ larger).  Subnormal roundings stay below ε·tiny.

    So every block passed here passes the SVD, and a lane's error and its
    message are the SVD's.  A non-finite entry, or an overflow, makes the
    comparison false.  Larger blocks always take the SVD.

    A block with a non-finite entry is singular, with NaN singular values;
    it never reaches LAPACK, which returns NaN or fails to converge there.
    """
    smallest, largest = _extremes(w11, tol)
    if not _clears(smallest, largest, tol, _FLOAT_OPS):  # NaN is singular too
        raise _singular(where, smallest, at)
    return smallest, largest


def _extremes(w11, tol):
    """(smallest, largest) singular value of one block, by the closed form
    where it passes the block, else by the SVD (see :func:`check_w11`)."""
    if len(w11) < 3:
        smallest, largest, margin = _closed_form(
            w11.tolist() if type(w11) is np.ndarray else w11, _FLOAT_OPS)
        if _clears(smallest, largest, tol, _FLOAT_OPS, margin):
            return smallest, largest
    sv = _singular_values(w11)
    return sv[-1], sv[0]


def singular_lanes(w11, count, tol, where, **at):
    """:func:`check_w11` on each of ``count`` lanes of a stacked solve:
    (smallest, largest) by lane, and ``{lane: the error check_w11 raises on
    that lane's block alone}`` for every singular one.

    W11's k rows hold lane columns, or for an entry known at generation its
    float, and each ``at`` value is a list of lane columns.  A block known
    at generation is decided once, on floats, as :func:`emit_check_w11`
    decides it, and its singular values are floats; otherwise the closed
    form runs on the columns and the SVD on the lanes it does not pass.
    """
    def error(j, smallest):
        return _singular(where, smallest,
                         {name: [c[j] for c in x] for name, x in at.items()})

    k = len(w11)
    if _known(w11):
        smallest, largest = _extremes(w11, tol)
        if _clears(smallest, largest, tol, _FLOAT_OPS):
            return smallest, largest, {}
        return smallest, largest, {j: error(j, smallest) for j in range(count)}
    if k < 3:
        with np.errstate(all="ignore"):  # non-finite and overflowing lanes
            smallest, largest, margin = _closed_form(w11, np)
            passes = _clears(smallest, largest, tol, np, margin)
    else:
        smallest, largest = np.empty(count), np.empty(count)
        passes = np.zeros(count, dtype=bool)
    rest = ~passes
    if not rest.any():
        return smallest, largest, {}
    blocks = np.stack([np.broadcast_to(x, count)[rest]
                       for row in w11 for x in row], axis=-1)
    sv = _singular_values(blocks.reshape(-1, k, k))
    smallest[rest], largest[rest] = sv[:, -1], sv[:, 0]
    singular = np.flatnonzero(~_clears(smallest, largest, tol, np))
    return smallest, largest, {int(j): error(j, smallest[j])
                               for j in singular}


def _singular(where, smallest, at) -> SingularJacobianError:
    point = ", ".join(f"{name}={np.asarray(x, dtype=float).tolist()}"
                      for name, x in at.items())
    return SingularJacobianError(
        f"{where} {point} (smallest singular value {smallest:.3e})")


def _clears(smallest, largest, tol, ops, margin=0.0):
    """smallest > tol * max(largest, 1) + margin, on floats (``ops`` is
    ``_FLOAT_OPS``) or numpy arrays (``ops`` is ``np``); false on NaN."""
    return smallest > tol * ops.maximum(largest, 1.0) + margin


def _singular_values(w11) -> np.ndarray:
    """``np.linalg.svd``'s singular values, NaN for a non-finite block."""
    w11 = np.asarray(w11, dtype=float)
    if np.isfinite(w11).all():
        return np.linalg.svd(w11, compute_uv=False)
    finite = np.isfinite(w11).all(axis=(-2, -1))
    sv = np.full(w11.shape[:-1], np.nan)
    sv[finite] = np.linalg.svd(w11[finite], compute_uv=False)
    return sv


def _eliminate(a, cols, pivot):
    """Solve the k rows ``a`` for the columns ``cols`` (lists of k entries,
    floats or numpy lane columns, mixed at will), in place, by Gaussian
    elimination with partial pivoting (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 9) in one order, so the bits depend
    on the inputs alone: ``pivot(a, cols, c)`` swaps the first row of
    largest |a_rc| into row c; each row r below takes f = a_rc / a_cc and
    its entries become x - f*y; back substitution takes s = b_i - a_ij*x_j
    over ascending j, then x_i = s / a_ii (so a 1×1 block with one column
    gives r / w)."""
    k = len(a)
    for c in range(k - 1):
        pivot(a, cols, c)
        for r in range(c + 1, k):
            row, top = a[r], a[c]
            f = row[c] / top[c]
            row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:], top[c + 1:])]
            for col in cols:
                col[r] = col[r] - f * col[c]
    for col in cols:
        for i in range(k - 1, -1, -1):
            s = col[i]
            for j in range(i + 1, k):
                s = s - a[i][j] * col[j]
            col[i] = s / a[i][i]
    return cols


def _pivot_floats(a, cols, c):
    p = max(range(c, len(a)), key=lambda r: abs(a[r][c]))  # the first largest
    a[c], a[p] = a[p], a[c]
    for col in cols:
        col[c], col[p] = col[p], col[c]


def _pivot_lanes(a, cols, c):
    """:func:`_pivot_floats` lane by lane, one row swap per lane; a pivot
    column of floats (entries known at generation) is the same in every
    lane and pivots as floats do."""
    if all(isinstance(row[c], float) for row in a[c:]):
        return _pivot_floats(a, cols, c)
    p, best = c, np.abs(a[c][c])
    for r in range(c + 1, len(a)):
        mag = np.abs(a[r][c])
        larger = mag > best
        p, best = np.where(larger, r, p), np.where(larger, mag, best)
    for r in range(c + 1, len(a)):
        lane = p == r
        if lane.any():
            top, row = a[c], a[r]
            for j in range(c, len(a)):  # no entry left of c is read again
                top[j], row[j] = (np.where(lane, row[j], top[j]),
                                  np.where(lane, top[j], row[j]))
            for col in cols:
                col[c], col[r] = (np.where(lane, col[r], col[c]),
                                  np.where(lane, col[c], col[r]))


def gepp(a, cols) -> list:
    """W11^{-1} b, a list, for each list b of ``cols``; W11 is k float rows."""
    return _eliminate([list(row) for row in a], [list(col) for col in cols],
                      _pivot_floats)


def abs_det_many(a: np.ndarray) -> np.ndarray:
    """|det| of each lane of a (count, k, k) stack: the product, left to
    right, of the pivots that :func:`_eliminate` leaves on the lane, so its
    bits depend on the lane alone.  A lane whose pivot is ever ±0 before
    the last column is singular and gives 0.0 (where Python's ``/`` would
    raise on floats); numpy's ``-``, ``*``, ``/`` and ``abs`` otherwise round
    and overflow as Python's do, so each lane has the bits of the same
    elimination on floats.
    """
    count, k = a.shape[:2]
    rows = [[a[:, i, j] for j in range(k)] for i in range(k)]
    singular = np.zeros(count, dtype=bool)

    def pivot(rows, cols, c):
        _pivot_lanes(rows, cols, c)
        singular[rows[c][c] == 0.0] = True

    det = np.ones(count)
    with np.errstate(all="ignore"):
        _eliminate(rows, [], pivot)
        for i, row in enumerate(rows):
            det = det * row[i]
    det = np.abs(det)
    det[singular] = 0.0
    return det


# --------------------------------------------------------------------------
# generated W11 algebra: the envelope Newton here, the flows' stage kernels
# in dynamics
# --------------------------------------------------------------------------

def _known(a) -> bool:
    return all(isinstance(x, float) for row in a for x in row)


def emit_check_w11(cg, w11, tol, where, **at):
    """``check_w11(w11, tol, where, **at)`` in the body ``cg`` writes, on
    its quantities: a block known at generation is decided here, once, and
    emits nothing if it passes."""
    if _known(w11):
        try:
            check_w11(w11, tol, "")
            return
        except SingularJacobianError:
            pass
    cg.ns["_check_w11"] = check_w11
    cg.lines.append(
        f"_check_w11({cg.list_source(map(cg.list_source, w11))}, "
        f"{cg.lit(tol)}, {where!r}, "
        + ", ".join(f"{name}={cg.list_source(x)}" for name, x in at.items())
        + ")")


def emit_gepp(cg, a, cols):
    """``gepp(a, cols)`` in the body ``cg`` writes: run on terms, i.e.
    unrolled in its pivot and operation order, for a block known at
    generation, and a call for any other."""
    if _known(a):
        try:
            return gepp(a, cols)
        except ZeroDivisionError:  # a known zero pivot: gepp raises
            pass
    cg.ns["_gepp"] = gepp

    def slots(rows):  # a placeholder per entry, for cg.op
        return cg.list_source(cg.list_source(["{}"] * len(r)) for r in rows)

    out = cg.op(f"_gepp({slots(a)}, {slots(cols)})",
                *(x for row in (*a, *cols) for x in row),
                fold=lambda *_: gepp(a, cols))
    return [[_Term(cg.op(f"{{}}[{c}][{i}]", out), cg) for i in range(len(a))]
            for c in range(len(cols))]


def _failed_newton(lag, active, point):
    """Raise the ``EvalDomainError`` of L's evaluation at ``point``, where
    the stage's envelope Newton failed to evaluate it, or return an
    AssertionError where ``eval_dual2`` passes."""
    eval_dual2(lag, point, active)
    return AssertionError("the envelope Newton failed where eval_dual2 passes")


def emit_newton(system, partition, cg):
    """The envelope Newton of (system, partition), then L's full triple at
    V, in the Hamiltonian stage kernel whose body ``cg`` writes
    (``dynamics._build_stage``): returns (``ev``, ``setup``, ``start``,
    ``out``).

    ``ev`` defines ``_ev(x0, x1, ...)``, which the stage puts at the top of
    its source: L's v1-active triple at the point (q, v) by the operations
    of ``eval_dual2(lag, point, active)``'s kernel, on locals s0, s1, ...,
    or None where ``eval_dual2`` raises (``_Codegen.guarded`` tests it).  It
    returns the locals the Newton reads (dL/dv1, and W11 unless it is known
    at generation), then those L's full triple reads.

    The body appended to ``cg.lines`` is the damped Newton of one lane of
    :meth:`EnvelopeSolver.solve_lanes` on Python floats, run on the stage's
    locals: the point as x0, x1, ..., whose v1 ones start at the warm start
    _v0, _v1, ... (nonlocal floats of the stage) and end at V, which the
    body stores back there; p1 as a0, a1, ...; and ``tol``, ``max_iter`` and
    ``max_backtracks``.  ``setup`` holds the lines of the enclosing factory,
    whose arguments include ``_v`` (the first warm start), ``max_iter`` and
    ``max_backtracks``: they set the warm start and build the loops' ranges
    once.  From a residual r = p1 - dL/dv1 with max-norm above ``tol``, W11
    is checked and the step solves W11 d = r, both as
    :func:`emit_check_w11` and :func:`emit_gepp` emit them; the step is
    halved, up to ``max_backtracks`` times, until the trial's residual norm
    is smaller.  A finite trial whose evaluation fails is halved too.  An
    evaluation that fails at the start or at a non-finite trial reruns as
    an ``eval_dual2`` call, to raise its exact error; a halving that runs
    out, or ``max_iter`` iterations, raise ``NewtonDivergedError`` with the
    residual norms of the iterates.

    ``out`` is L's full triple at V.  Its operations share ``cg``'s memo
    with ``_ev``'s, so each one ``_ev`` runs is read from the Newton's
    accepted evaluation (every evaluation unpacks all that ``_ev`` returns,
    and the accepted one's values overwrite a rejected trial's), and only
    the others are emitted, from line ``start`` on, where the host tests
    them as every evaluation is tested; a guard ``_ev`` passed is not
    emitted again.  The
    iteration's own locals are u0, u1, ..., d0, ..., w0, ..., ``e``,
    ``norm``, ``_r``, ``rnorm``, ``history`` and ``alpha``; its constants and
    functions join ``cg.ns``.
    """
    n, lag, tol = system.n, system.lagrangian, partition.rank_tolerance
    active = tuple(n + i for i in partition.regular)
    xs = [f"x{i}" for i in range(2 * n)]
    v1 = [xs[a] for a in active]
    here = f"[{', '.join(xs)}]"  # the point evaluated
    ev = _Codegen(active, checked=False)
    ev.ns, ev.temp = cg.ns, "s"
    _, grad, hess = out = ev.visit(lag.root)
    outputs = ev.flat(out)
    ev.guarded(0, outputs, "return None", f"_evaluates(_newton_fail, {here})")

    # L's full triple at V, on the operations _ev has not run: _ev's locals
    # hold the memo for its texts while L is visited, and keep it only
    # where the stage reads them from e (an operand or a guard's local the
    # visit emitted, in cg.read, or an output), so no later operation reads
    # others
    cg.memo.update(ev.memo)
    cg.passed = ev.tested
    at = len(cg.lines)
    full = cg.visit(lag.root)
    reads = cg.read | {x for x in cg.flat(full) if isinstance(x, str)}
    used = [x for x in dict.fromkeys(grad if _known(hess) else outputs[1:])
            if isinstance(x, str) and x not in xs]
    rest = [x for x in ev.memo.values() if x in reads and x not in used]
    for text, name in ev.memo.items():
        if name not in used and name not in reads:
            del cg.memo[text]
    ev.lines.append(f"return ({''.join(x + ', ' for x in used + rest)})")

    # the iteration's float algebra, on the outputs read from e
    it = _Codegen(active, checked=False)
    it.ns, it.temp = cg.ns, "u"

    def term(x):  # an output, tested finite
        return x if isinstance(x, float) else _Term(x, it, True)

    def unpack(names):
        return "".join(x + ", " for x in names) + "= e"

    r = [_Term(f"a{i}", it) - term(g) for i, g in enumerate(grad)]
    # then norm = _inf_norm(r): the largest |r_i|, the first NaN one if any
    rsrc = [str(it.lit(x)) for x in r]  # a term's + would emit
    residual = [*([unpack(used + rest)] if used + rest else []), *it.lines,
                f"norm = abs({rsrc[0]})"]
    for x in rsrc[1:]:
        residual += [f"_r = abs({x})",
                     "if not _r <= norm and norm == norm: norm = _r"]
    it.lines = []
    w11 = [[term(x) for x in row] for row in hess]
    emit_check_w11(it, w11, tol, "W11 is singular at Newton iterate", v1=v1)
    delta = emit_gepp(it, w11, [r])[0]
    step = it.lines + [f"d{i} = {it.lit(d)}" for i, d in enumerate(delta)]
    call = f"_ev({', '.join(xs)})"
    warm = ", ".join(f"_v{i}" for i in range(len(v1)))

    def block(depth, lines):
        return ["    " * depth + x for x in lines]

    body = [
        f"nonlocal {warm}",
        f"{', '.join(v1)} = {warm}",
        f"e = {call}",
        f"if e is None: raise _newton_fail({here})",
        *residual,
        "history = []",
        "for _ in _iters:",
        "    rnorm = norm",
        "    history.append(rnorm)",
        "    if rnorm <= tol: break",
        *block(1, step),
        "    " + "".join(f"w{i}, " for i in range(len(v1))) + "= "
        + "".join(x + ", " for x in v1),
        "    alpha = 1.0",
        "    for _ in _trials:",
        *block(2, [f"{x} = w{i} + alpha * d{i}" for i, x in enumerate(v1)]),
        f"        e = {call}",
        "        if e is not None:",
        *block(3, residual),
        "            if norm < rnorm: break",
        f"        elif not _finite({', '.join(v1)}):",
        f"            raise _newton_fail({here})",
        "        alpha *= 0.5",
        "    else:",
        "        raise _Diverged('backtracking could not reduce the envelope "
        "residual', history)",
        "else:",
        "    raise _Diverged(f'no convergence within {max_iter} Newton "
        "iterations', history)",
        f"{warm} = {', '.join(v1)}",
    ]
    cg.lines[at:at] = body
    cg.ns.update(_Diverged=NewtonDivergedError, _evaluates=_evaluates,
                 _newton_fail=functools.partial(_failed_newton, lag, active))
    src = [f"def _ev({', '.join(xs)}):", *("    " + x for x in ev.lines)]
    setup = [f"{warm}, = _v", "_iters = range(max_iter)",
             "_trials = range(max_backtracks + 1)"]
    return src, setup, at + len(body), full


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
        self._v1_cols = np.array(self._v1_active, dtype=int)
        self._v2_cols = n + np.array(self.partition.nonregular, dtype=int)

    def default_guess(self) -> np.ndarray:
        return self.system.center()[self._v1_cols]

    def _checked(self, q, p1, c2):
        """q, p1 and c2 as float vectors, or ValueError naming the first
        with the wrong shape."""
        n, k = self.system.n, self.partition.k
        return (checked_vector(q, n, "q"), checked_vector(p1, k, "p1"),
                checked_vector(c2, n - k, "c2"))

    def solve(self, q, p1, c2, v1_guess=None) -> np.ndarray:
        """Return v1 = V(q, p1, c2) with ||p1 - dL/dv1||_inf <= newton_tol:
        one row of :meth:`solve_many`, after the checks of a single point
        (a guess broadcasts to p1's shape)."""
        q, p1, c2 = self._checked(q, p1, c2)
        if not p1.size:
            return np.zeros(0)
        if v1_guess is not None:
            v1_guess = np.broadcast_to(np.asarray(v1_guess, dtype=float),
                                       p1.shape)[None]
        return self.solve_many(q[None], p1[None], c2[None], v1_guess)[0]

    def solve_many(self, q, p1, c2, v1_guess=None) -> np.ndarray:
        """:meth:`solve_lanes`'s solutions; raises the lowest row's error."""
        out, failed = self.solve_lanes(q, p1, c2, v1_guess)
        if failed:
            raise failed[min(failed)]
        return out

    def solve_lanes(self, q, p1, c2, v1_guess=None):
        """V at every row of q (count, n), p1 (count, k) and c2 (count,
        n - k), with an optional (count, k) guess, and ``{row: error}`` for
        the rows whose iteration fails.

        Each lane runs the damped Newton of its row and ends as the row
        alone ends, whatever the other rows: with the same bits, or NaN and
        the same error, residual history included; :meth:`solve` is one
        such row.  The iteration runs on lane columns
        (:meth:`_solve_columns`).
        """
        n, k = self.system.n, self.partition.k
        q = checked_rows(q, n, "q")
        count = len(q)
        p1 = checked_rows(p1, k, "p1", count)
        c2 = checked_rows(c2, n - k, "c2", count)
        if k == 0:
            return np.zeros((count, 0)), {}
        if v1_guess is not None:
            v1_guess = list(checked_rows(v1_guess, k, "v1_guess", count).T)
        v1, failed = self._solve_columns(self._point_columns(q, c2),
                                         list(np.array(p1.T)), v1_guess)
        return np.stack(v1, axis=1), failed

    def _solve_columns(self, point, p1, v1=None):
        """:meth:`solve_lanes` on lane columns: ``point`` is the (2n, count)
        array of the points (q, v) with q and v2 set, whose v1 rows it sets,
        and ``p1`` and the optional guess ``v1`` are lists of k lane
        columns.  Returns the k columns of V, NaN where a lane failed, and
        ``{lane: error}``.

        An iteration makes one stacked evaluation of L's v1-active kernel
        (:func:`~legclair.expr._columns`), whose W11 entries known at
        generation stay floats, one :func:`singular_lanes` check and one
        elimination of the step on the columns (see :func:`_newton_lanes`).
        """
        lag, active, k = self.system.lagrangian, self._v1_active, len(p1)
        tol = self.partition.rank_tolerance
        where = "W11 is singular at Newton iterate"
        if v1 is None:
            v1 = np.broadcast_to(self.default_guess()[:, None],
                                 (k, point.shape[1]))
        point[self._v1_cols] = v1

        def step(lanes, v1, r, hess):
            w11 = [hess[i * k:(i + 1) * k] for i in range(k)]
            # each singular lane ends in its own block's error, as alone
            _, _, ended = singular_lanes(w11, len(lanes), tol, where, v1=v1)
            if len(ended) == len(lanes):
                return None, ended
            with np.errstate(all="ignore"):  # singular lanes step nowhere
                return _eliminate(w11, [list(r)], _pivot_lanes)[0], ended

        def trial(rows, v1, _):
            every = len(rows) == point.shape[1]  # no gather needed
            x = point.copy() if every else point[:, rows]
            x[self._v1_cols] = v1
            out, bad = _columns(lag, x, active)
            if bad:
                # a finite trial that fails is halved, as its NaN residual
                # is never accepted (a gradient entry known at generation
                # would leave W11 a zero row, so no trial meets one);
                # halving cannot make a non-finite step finite, so such a
                # lane ends
                finite = np.logical_and.reduce([np.isfinite(c) for c in v1])
                bad = {j: err for j, err in bad.items() if not finite[j]}
            return ([(a if every else a[rows]) - g
                     for a, g in zip(p1, out[1:k + 1])], out[k + 1:], bad)

        out, failed = _columns(lag, point, active)
        v1, _, failed = _newton_lanes(
            self, [np.array(c) for c in v1],
            [a - g for a, g in zip(p1, out[1:k + 1])], out[k + 1:], failed,
            step, trial, "envelope", return_state=False)
        return v1, failed

    def _point_columns(self, q, v2, v1=None) -> np.ndarray:
        """The (2n, count) columns of the points (q, v) at rows q, v2 and
        v1; without v1, its rows are left for a solve to set."""
        n = self.system.n
        x = np.empty((2 * n, len(q)))
        x[:n] = np.transpose(q)
        x[self._v2_cols] = np.transpose(v2)
        if v1 is not None:
            x[self._v1_cols] = np.transpose(v1)
        return x


def _guess_row(x):
    """A per-point guess as one row, or None."""
    return None if x is None else np.asarray(x, dtype=float)[None]


def _take(cols, lanes):
    """The entries ``lanes`` of each lane column; a float is every lane's."""
    return [c if isinstance(c, float) else c[lanes] for c in cols]


def _put(cols, lanes, new, sel):
    """Set the entries ``lanes`` of each lane column of ``cols`` to the
    entries ``sel`` of its counterpart in ``new``.  A float in ``cols`` is
    an entry known at generation, which ``new`` holds too, so it stays."""
    for c, t in zip(cols, new):
        if not isinstance(c, float):
            c[lanes] = t if isinstance(t, float) else t[sel]


def _lane_norm(r):
    """max |r_i| of each lane, NaN where an entry is NaN."""
    norm = np.abs(r[0])
    for c in r[1:]:
        norm = np.maximum(norm, np.abs(c))
    return norm


def _newton_lanes(solver, x, r, state, failed, step, trial, residual, of="",
                  return_state=True):
    """Damped Newton on lane columns, each lane ending as one scalar
    iteration ends; the body behind :meth:`EnvelopeSolver.solve_lanes` and
    :meth:`MixedHamiltonian.inverse_transform_many`.

    ``x`` holds the k columns of the starting iterates and ``r`` those of
    their residuals, one entry per lane, ``state`` a list of lane columns
    (or floats, each every lane's entry) that an accepted trial replaces,
    all three updated in place, and ``failed`` ``{row: error}`` for the
    rows that have already failed, whose residuals are NaN.  The caller
    supplies the step and the trial:

    - ``step(lanes, x, r, state)`` returns the columns of the Newton steps
      of the live lanes, whose original rows are ``lanes``, and ``{lane:
      error}`` for the lanes that end there (every lane, with no steps);
    - ``trial(rows, x, state)`` returns the residual and state columns at
      the trial iterates ``x`` of the lanes at original ``rows``, and
      ``{lane: error}`` for the lanes that end there.  A trial whose
      residual is NaN is never accepted.

    A lane converges once its residual's max-norm is at most
    ``solver.newton_tol``.  Each iteration halves a lane's step, up to
    ``solver.max_backtracks`` times, until the trial residual's norm drops
    below the current one; a lane whose halving runs out, or that is still
    iterating after ``solver.max_iter`` iterations, files a
    ``NewtonDivergedError`` that names the ``residual`` (the iteration
    limit's message ends in ``of``) and carries its residual history.
    Returns the columns of x and (unless ``return_state`` is false) of the
    state where each lane converged, NaN elsewhere, and ``failed``, with
    every error under its lane's original row.
    """
    count = len(x[0])
    out = [np.full(count, np.nan) for _ in x]
    out_state = [np.full(count, np.nan) for _ in state if return_state]
    lanes = np.arange(count)  # original row of each lane still iterating
    ok = np.ones(count, dtype=bool)
    if failed:
        ok[list(failed)] = False
    norms = []  # (lanes, their residual norms) at every iteration
    for _ in range(solver.max_iter):
        # lanes leave here, converged or failed; a NaN residual stays live
        rnorm = _lane_norm(r)
        converged = rnorm <= solver.newton_tol
        live = ok & ~converged
        if not live.all():
            rows = lanes[converged]
            _put(out, rows, x, converged)
            _put(out_state, rows, state, converged)
            if not live.any():
                return out, out_state, failed
            lanes, rnorm = lanes[live], rnorm[live]
            x, r, state = _take(x, live), _take(r, live), _take(state, live)
            ok = np.ones(len(lanes), dtype=bool)
        norms.append((lanes, rnorm))
        delta, ended = step(lanes, x, r, state)
        for j, err in ended.items():
            failed[int(lanes[j])] = err
            ok[j] = False
        alpha = np.ones(len(lanes))
        pending = np.flatnonzero(ok)  # lanes still backtracking
        for _ in range(solver.max_backtracks + 1):
            if not pending.size:
                break
            # every lane pending (the common case) needs no gather
            sel = slice(None) if pending.size == len(lanes) else pending
            x_trial = [w + alpha[sel] * d
                       for w, d in zip(_take(x, sel), _take(delta, sel))]
            r_trial, s_trial, ended = trial(lanes[sel], x_trial,
                                            _take(state, sel))
            # a NaN residual is never better
            stop = _lane_norm(r_trial) < rnorm[sel]
            done = pending[stop]
            # the accepted trial's evaluation serves the next iterate
            _put(x, done, x_trial, stop)
            _put(r, done, r_trial, stop)
            _put(state, done, s_trial, stop)
            for j, err in ended.items():
                failed[int(lanes[pending[j]])] = err
                ok[pending[j]] = False
                stop[j] = True
            pending = pending[~stop]
            alpha[pending] *= 0.5
        if pending.size:
            _diverged(failed, lanes[pending], norms,
                      f"backtracking could not reduce the {residual} residual")
            ok[pending] = False
    _diverged(failed, lanes[ok], norms,
              f"no convergence within {solver.max_iter} Newton iterations{of}")
    return out, out_state, failed


def _diverged(failed, lanes, norms, message):
    """File a ``NewtonDivergedError`` under each of ``lanes``; its residual
    history comes from the (sorted lanes, norms) pair of every iteration."""
    for lane in lanes:
        history = [rn[np.searchsorted(ls, lane)] for ls, rn in norms]
        failed[int(lane)] = NewtonDivergedError(message, history)


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
        # the momentum stencil's blocks (p, then +e_i and -e_i for each i)
        # that are solved: the +-p1 ones; the unshifted block and the +-p2
        # ones take V at p.  _source gives each block's V: 0 for V at p, or
        # 1 + j for the j-th solved block
        self._solved = [b for i in self.partition.regular
                        for b in (1 + 2 * i, 2 + 2 * i)]
        self._source = [1 + self._solved.index(b) if b in self._solved else 0
                        for b in range(2 * n + 1)]

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

    def psi(self, q, p1, v2_probe=None, v1_guess=None) -> np.ndarray:
        """Psi(q, p1) = dL/dv2 on the envelope; independent of the probe."""
        probe = self.default_probe() if v2_probe is None else v2_probe
        rows = (x[None] for x in self.solver._checked(q, p1, probe))
        return self.envelope_many(*rows, _guess_row(v1_guess))[1][0]

    # The other single-point maps, like ``solve``, are one-row calls of
    # their stacked twins below, after ``solve``'s argument checks.

    def _row(self, q, p, c2):
        """q, p and c2 as one row each, checked as a single point: p as a
        full momentum vector, then q, p1 and c2 as in ``solve``."""
        p = checked_vector(p, self.n, "p")
        q, _, c2 = self.solver._checked(q, p[self._reg], c2)
        return q[None], p[None], c2[None]

    def value(self, q, p, v2, v1_guess=None) -> float:
        """H(q, p, v2) = p1*V + p2*v2 - L(q, V, v2)."""
        return float(self.value_many(*self._row(q, p, v2),
                                     _guess_row(v1_guess))[0])

    def phi(self, q, p, v2_probe=None, v1_guess=None) -> np.ndarray:
        """Primary constraints Phi(q, p) = p2 - Psi(q, p1)."""
        probe = self.default_probe() if v2_probe is None else v2_probe
        return self.phi_many(*self._row(q, p, probe), _guess_row(v1_guess))[0]

    def h_zero(self, q, p1, c2_probe=None) -> float:
        """H0(q, p1) = p1*V + c2*Psi - L(q, V, c2), any probe c2."""
        probe = self.default_probe() if c2_probe is None else c2_probe
        rows = (x[None] for x in self.solver._checked(q, p1, probe))
        return float(self.envelope_many(*rows)[2][0])

    # -- diagnostics ---------------------------------------------------------

    def clairaut_residual(self, q, p, v2) -> float:
        """|H - p*dH/dp + L(dH/dp)| with dH/dp by central differences.

        The momentum derivatives are taken at fixed v2 with per-component
        step 1e-6*(1+|p_i|); the velocity argument handed to L is the full
        derivative vector in original index order.
        """
        return float(self.clairaut_residual_many(*self._row(q, p, v2))[0])

    def inverse_transform(self, q, v, p2, p1_guess=None) -> float:
        """Transform H back: value of v1*P + v2*p2 - H(q, P, p2, v2).

        P(q, v, p2) solves the momentum-side stationarity v1 = dH/dp1 by
        damped Newton; since dV/dp1 = W11^{-1}, the Newton step is a plain
        multiplication by W11 evaluated on the current envelope point.
        """
        v = checked_vector(v, self.n, "v")
        p2 = checked_vector(p2, self.n - self.k, "p2")
        p1 = np.zeros(self.k) if p1_guess is None else p1_guess
        q, p1, _ = self.solver._checked(q, p1, v[self._nonreg])
        return float(self.inverse_transform_many(q[None], v[None], p2[None],
                                                 p1[None])[0])

    # -- stacked maps -----------------------------------------------------------
    #
    # Each ``*_many`` map takes one row per point (q as (count, n), and so
    # on) and is the one body of its map: the single-point map of its name
    # calls it on one row, and ``psi`` and ``h_zero`` call
    # ``envelope_many``, the one body of the envelope point, whose one
    # solve and one evaluation give V, Psi and H0 together.  A map that
    # solves is its solves and then a solve-free body that takes V as given
    # (``value_at``, ``envelope_at``, ``clairaut_residual_at``,
    # ``momentum_gradient_at`` and ``inverse_transform_at``), so
    # ``transform`` solves a row once for H, Psi and H0, and ``verify``
    # solves the rows of all its maps together.  No row depends on the
    # others: a Newton lane ends as its row alone (``solve_lanes``), and
    # row-wise dot products are :func:`contract` over columns.  A map raises
    # if some row fails, the lowest row's error; on one row it meets that
    # row's errors in a point's own order, as shifted momenta are stacked in
    # central-difference order.

    def value_many(self, q, p, v2, v1_guess=None) -> np.ndarray:
        """H = p1*V + p2*v2 - L(q, V, v2) at every row."""
        p = checked_rows(p, self.n, "p")
        v1 = self.solver.solve_many(q, p[:, self._reg], v2, v1_guess)
        return self.value_at(q, p, v2, v1)

    def value_at(self, q, p, v2, v1) -> np.ndarray:
        """:meth:`value_many`'s H, given V as ``v1``."""
        p, v2 = np.asarray(p, dtype=float), np.asarray(v2, dtype=float)
        p1, p2 = p[:, self._reg], p[:, self._nonreg]
        lval = evaluate_many(self.system.lagrangian,
                             self.solver._point_columns(q, v2, v1).T)
        return contract(p1.T, v1.T) + contract(p2.T, v2.T) - lval

    def envelope_many(self, q, p1, c2_probe=None, v1_guess=None):
        """(V, Psi, H0) at every row, from one envelope solve at (q, p1, c2)
        and one evaluation there: V = V(q, p1, c2), Psi = dL/dv2 and H0 =
        p1*V + c2*Psi - L(q, V, c2).  The default probe serves every row."""
        shape = (len(q), self.n - self.k)
        c2 = (np.broadcast_to(self.default_probe(), shape) if c2_probe is None
              else checked_rows(c2_probe, shape[1], "v2 probe", shape[0]))
        p1 = np.asarray(p1, dtype=float)
        v1 = self.solver.solve_many(q, p1, c2, v1_guess)
        return (v1, *self.envelope_at(q, p1, c2, v1))

    def envelope_at(self, q, p1, c2, v1):
        """:meth:`envelope_many`'s (Psi, H0), given V as ``v1``."""
        x = self.solver._point_columns(q, c2, v1).T
        d = eval_dual2_many(self.system.lagrangian, x, self._v_active)
        psi = d.grad[:, self._nonreg]
        h0 = contract(p1.T, v1.T) + contract(c2.T, psi.T) - d.value
        return psi, h0

    def phi_many(self, q, p, v2_probe=None, v1_guess=None) -> np.ndarray:
        """Phi = p2 - Psi(q, p1) at every row."""
        p = checked_rows(p, self.n, "p")
        _, psi, _ = self.envelope_many(q, p[:, self._reg], v2_probe, v1_guess)
        return p[:, self._nonreg] - psi

    def _stencil(self, p):
        """The central-difference momenta of :meth:`clairaut_residual` at
        every row of p, (2n + 1, count, n): p, then +e_i and -e_i for each
        i, the order a point meets errors in; and the steps, (count, n)."""
        step = FD_MOMENTUM_STEP * (1.0 + np.abs(p))
        shifted = np.repeat(p[None], 2 * self.n + 1, axis=0)
        for i in range(self.n):
            shifted[1 + 2 * i, :, i] += step[:, i]
            shifted[2 + 2 * i, :, i] -= step[:, i]
        return shifted, step

    def momentum_stencil(self, q, p, v2, v1):
        """The envelope rows that :meth:`momentum_gradient_at` solves, as
        (q, p1, v2, guess) rows: those of the +-p1 shifts of p, block after
        block in stencil order, each warm-started from V at p (``v1``).
        The unshifted point and its +-p2 shifts share (q, p1, v2) with p,
        so they take ``v1`` and are not solved."""
        shifted, _ = self._stencil(p)
        reps = (len(self._solved), 1)
        return (np.tile(q, reps),
                shifted[self._solved][:, :, self._reg].reshape(
                    len(self._solved) * len(q), self.k),
                np.tile(v2, reps), np.tile(v1, reps))

    def momentum_gradient_at(self, q, p, v2, v1, v1_stencil):
        """(H, dH/dp) at every row: H at (q, p, v2), and dH/dp by the
        central differences of :meth:`clairaut_residual`, given V at
        (q, p1, v2) as ``v1`` and at the rows of :meth:`momentum_stencil`
        as ``v1_stencil``: one :meth:`value_at` at p and at its 2n shifted
        momenta."""
        n, k, count = self.n, self.k, len(q)
        shifted, step = self._stencil(p)
        blocks = len(shifted)
        v1 = np.concatenate([np.reshape(v1, (1, count, k)), np.reshape(
            v1_stencil, (len(self._solved), count, k))])
        h_all = self.value_at(
            np.tile(q, (blocks, 1)), shifted.reshape(blocks * count, n),
            np.tile(v2, (blocks, 1)),
            v1[self._source].reshape(blocks * count, k),
        ).reshape(blocks, count)
        dhdp = ((h_all[1::2] - h_all[2::2]) / (2.0 * step.T)).T
        return h_all[0], dhdp

    def clairaut_residual_many(self, q, p, v2) -> np.ndarray:
        """|H - p*dH/dp + L(dH/dp)| at every row (see
        :meth:`clairaut_residual`): a cold solve at (q, p1, v2), one warm
        solve of the rows of :meth:`momentum_stencil`, in stencil order, so
        the lowest failing point's error is raised, as ``value_many``
        raises, then :meth:`clairaut_residual_at`."""
        q = checked_rows(q, self.n, "q")
        p = checked_rows(p, self.n, "p", len(q))
        v2 = checked_rows(v2, self.n - self.k, "v2", len(q))
        v1 = self.solver.solve_many(q, p[:, self._reg], v2)
        v1_stencil = self.solver.solve_many(
            *self.momentum_stencil(q, p, v2, v1))
        return self.clairaut_residual_at(q, p, v2, v1, v1_stencil)

    def clairaut_residual_at(self, q, p, v2, v1, v1_stencil) -> np.ndarray:
        """:meth:`clairaut_residual_many`'s residual, given V at (q, p1, v2)
        as ``v1`` and at the rows of :meth:`momentum_stencil` as
        ``v1_stencil``."""
        h_val, dhdp = self.momentum_gradient_at(q, p, v2, v1, v1_stencil)
        lval = evaluate_many(self.system.lagrangian,
                             np.concatenate([q, dhdp], axis=1))
        return np.abs(h_val - contract(p.T, dhdp.T) + lval)

    def inverse_transform_many(self, q, v, p2, p1_guess=None) -> np.ndarray:
        """The inverse transform (see :meth:`inverse_transform`) at every
        row: a cold solve at the start P = ``p1_guess`` (0 by default), then
        :meth:`inverse_transform_at`, whose outer Newton on P runs lane by
        lane, each iteration one stacked W11 evaluation and one stacked
        nested solve per backtracking round.  The lowest failing lane's
        error is raised.
        """
        q = checked_rows(q, self.n, "q")
        count = len(q)
        v = checked_rows(v, self.n, "v", count)
        p2 = checked_rows(p2, self.n - self.k, "p2", count)
        p1 = (checked_rows(p1_guess, self.k, "p1_guess", count)
              if p1_guess is not None else np.zeros((count, self.k)))
        v_start, failed = self.solver.solve_lanes(q, p1, v[:, self._nonreg])
        return self.inverse_transform_at(q, v, p2, p1, v_start, failed)

    def inverse_transform_at(self, q, v, p2, p1, v_start, failed):
        """:meth:`inverse_transform_many` from the start P = ``p1``, given
        V there as ``v_start``, NaN at the rows where its solve failed, and
        ``{row: error}`` for those rows, which end in their error."""
        v1 = v[:, self._reg]
        v2 = v[:, self._nonreg]
        solver = self.solver
        v_cur = np.zeros((len(q), 0))
        if self.k:
            k, active = self.k, solver._v1_active
            base = solver._point_columns(q, v2)
            v_cur = [np.array(c) for c in np.transpose(v_start)]
            v1_cols = list(v1.T)

            def step(lanes, _, rho, state):
                x = base[:, lanes]
                x[solver._v1_cols] = state
                out, bad = _columns(self.system.lagrangian, x, active)
                if bad:
                    raise bad[min(bad)]
                w11 = out[1 + k:]
                # W11 rho, one row of W11 per entry
                return [contract(w11[i * k:(i + 1) * k], rho)
                        for i in range(k)], {}

            def trial(rows, p1, state):
                # warm-started at the current V; any nested failure ends
                v_trial, bad = solver._solve_columns(base[:, rows], p1, state)
                return ([a[rows] - v for a, v in zip(v1_cols, v_trial)],
                        v_trial, bad)

            p1, v_cur, failed = _newton_lanes(
                solver, list(np.array(p1.T)),
                [a - b for a, b in zip(v1_cols, v_cur)], v_cur, dict(failed),
                step, trial, "inverse-transform", " of the inverse transform")
            if failed:
                raise failed[min(failed)]
            p1, v_cur = np.stack(p1, axis=1), np.stack(v_cur, axis=1)
        p_full = np.empty((len(q), self.n))
        p_full[:, self._reg] = p1
        p_full[:, self._nonreg] = p2
        # V converged at P in the accepted trial, so H needs no further solve
        h_val = self.value_at(q, p_full, v2, v_cur)
        return contract(v1.T, p1.T) + contract(v2.T, p2.T) - h_val


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
    return float(contract(p.tolist(), c.tolist()) - evaluate(F, c))


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


# --------------------------------------------------------------------------
# rows in chunks, and the reports of the analyze and transform commands
# --------------------------------------------------------------------------

# what one row of a row-wise map raises alone: its envelope solve fails, or
# a point leaves the domain of L
ROW_ERRORS = (NewtonDivergedError, SingularJacobianError, EvalDomainError)


def row_failures(run, rows):
    """Run the row-wise map ``run`` on ``rows`` (an index array),
    ``CHUNK_ROWS`` rows at a time, and yield (row, error) for each row that
    raises one of ``ROW_ERRORS`` alone, lowest first."""
    return _failing_rows(run, [rows[start:start + CHUNK_ROWS]
                               for start in range(0, len(rows), CHUNK_ROWS)])


def _failing_rows(run, parts):
    """:func:`row_failures` over the index arrays ``parts``, in turn: a part
    that raises is halved, and its halves are run, left before right.  Row
    i of ``run`` must have the bits of row i alone, so a part raises
    exactly when it holds a row that fails alone; one that raises with no
    such row breaks that, and its error is raised."""
    for part in parts:
        try:
            run(part)
        except ROW_ERRORS as error:
            if len(part) == 1:
                yield part[0], error
                continue
            failure, mid = None, len(part) // 2
            for failure in _failing_rows(run, (part[:mid], part[mid:])):
                yield failure
            if failure is None:
                raise error


@contextlib.contextmanager
def fitting(rows, width):
    """Run a block that builds ``rows`` rows of ``width`` floats; a request
    beyond the address space, or one that memory cannot hold, raises a
    MemoryError that says how many numbers it needs."""
    message = f"needs {rows} x {width} numbers, more than memory holds"
    if rows * width * 8 > np.iinfo(np.intp).max:  # numpy could not index it
        raise MemoryError(message)
    try:
        yield
    except MemoryError:
        raise MemoryError(message) from None


def analyze_report(ham: MixedHamiltonian, seed, points) -> dict:
    """The rank partition of ``ham``, |det W11| over 100 sampled points and
    ``points`` samples of the constraints, each holding q, p1, p2, Psi,
    Phi = p2 - Psi and H0, all drawn from one generator seeded with
    ``seed``.  A sample whose envelope solve or evaluation fails raises its
    error, the lowest such sample's."""
    system, part = ham.system, ham.partition
    n, k = ham.n, ham.k
    names = qv_names(n)
    rng = np.random.default_rng(seed)
    reg, nonreg = list(part.regular), list(part.nonregular)
    w = eval_dual2_many(system.lagrangian, system.sample(rng, 100),
                        range(n, 2 * n)).hess
    dets = (abs_det_many(w[:, reg][:, :, reg]).tolist() if k
            else [0.0] * len(w))
    lo, hi = system.domain_lo, system.domain_hi
    with fitting(points, 2 * n):
        # one row per sample: q, p1, p2, drawn in the order of one sample at
        # a time
        rows = rng.uniform(
            np.concatenate([lo[:n], lo[n:][reg], lo[n:][nonreg]]),
            np.concatenate([hi[:n], hi[n:][reg], hi[n:][nonreg]]),
            size=(points, 2 * n),
        )
        q, p1, p2 = rows[:, :n], rows[:, n:n + k], rows[:, n + k:]
        psi, h_zero = np.empty((points, n - k)), np.empty(points)

        def envelope(at):
            _, psi[at], h_zero[at] = ham.envelope_many(q[at], p1[at])

        for _, error in row_failures(envelope, np.arange(points)):
            raise error
        keys = ("q", "p1", "p2", "psi", "phi", "h_zero")
        samples = [dict(zip(keys, sample)) for sample in zip(
            *(x.tolist() for x in (q, p1, p2, psi, p2 - psi, h_zero)))]
    return {
        "n": n,
        "lagrangian": system.lagrangian.source,
        "seed": seed,
        "k": k,
        "regular": [names[n + i] for i in part.regular],
        "unresolved": [names[n + i] for i in part.nonregular],
        "rank_tolerance": part.rank_tolerance,
        "rank_samples": part.samples_checked,
        "det_w11": {"min": min(dets), "max": max(dets)},
        "constraint_samples": samples,
    }


def transform_table(ham: MixedHamiltonian, grids):
    """H, H0 and Phi over the product of ``grids``, a list of (name,
    values) over positions, momenta and unresolved velocities, the last
    grid varying fastest; a name not on a grid keeps the box center (a
    position), 0 (a momentum) or the default probe (an unresolved
    velocity), and a repeated name takes its last grid.

    Returns (header, table, status): the column names, one row of floats
    per grid point (q, p, v2, H, H0, Phi) and each row's status: "ok",
    "domain" (outside the box, or outside the domain of L), or "solver".
    A row that fails keeps the columns computed before its error, NaN
    elsewhere.  A name that is a resolved velocity or no variable raises
    ValueError.
    """
    system = ham.system
    n, k = ham.n, ham.k
    names = qv_names(n)
    reg, nonreg = list(ham.partition.regular), list(ham.partition.nonregular)
    columns = [*names[:n], *(f"p{i + 1}" for i in range(n)),
               *(names[n + i] for i in nonreg)]  # of one grid row
    for name, _ in grids:
        if name in {names[n + i] for i in reg}:
            raise ValueError(f"{name!r} is resolved by the envelope; vary "
                             "its momentum instead")
        if name not in columns:
            raise ValueError(f"unknown grid variable {name!r}")
    values = [vals for _, vals in grids]
    count = math.prod(map(len, values))
    lo = np.concatenate([system.domain_lo[:n], system.domain_lo[n:][nonreg]])
    hi = np.concatenate([system.domain_hi[:n], system.domain_hi[n:][nonreg]])
    with fitting(count, len(columns) + 2 + n - k):
        rows = np.tile(np.concatenate([system.center()[:n], np.zeros(n),
                                       ham.default_probe()]), (count, 1))
        for (name, _), column in zip(grids,
                                     np.meshgrid(*values, indexing="ij")):
            rows[:, columns.index(name)] = column.ravel()
        boxed = rows[:, list(range(n)) + list(range(2 * n, 3 * n - k))]
        inside = ((lo <= boxed) & (boxed <= hi)).all(axis=1)
        table = np.full((count, 2 + n - k), np.nan)  # H, H0, phi per row
        status = ["ok" if ok else "domain" for ok in inside]

    def evaluate(at):
        """Fill the table at rows ``at``, each map's column once it returns;
        one solve gives V, at which H and (Psi, H0) are formed."""
        table[at] = np.nan
        q, p, v2 = rows[at, :n], rows[at, n:2 * n], rows[at, 2 * n:]
        p1 = p[:, reg]
        v1 = ham.solver.solve_many(q, p1, v2)
        table[at, 0] = ham.value_at(q, p, v2, v1)
        psi, table[at, 1] = ham.envelope_at(q, p1, v2, v1)
        table[at, 2:] = p[:, nonreg] - psi

    for i, error in row_failures(evaluate, np.flatnonzero(inside)):
        status[i] = "domain" if isinstance(error, EvalDomainError) else "solver"
    header = (columns + ["H", "H0"] + [f"phi_{j + 1}" for j in range(n - k)]
              + ["status"])
    return header, np.concatenate([rows, table], axis=1), status
