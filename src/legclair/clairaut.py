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

import functools
import math
import sys
import types
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    _FAULTS,
    EvalDomainError,
    Expression,
    _Codegen,
    _Term,
    eval_dual2,
    eval_dual2_many,
    eval_dual2_rows,
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


# the closed forms decide only outside this many ulps of the larger
# singular value, which is floored at the least normal float (see check_w11)
W11_MARGIN = 16 * sys.float_info.epsilon
_LEAST_NORMAL = sys.float_info.min
# the numpy functions _closed_form and _clears call, for float entries
_FLOAT_OPS = types.SimpleNamespace(hypot=math.hypot, maximum=max)


def check_w11(w11, tol: float, where: str, **at):
    """Raise ``SingularJacobianError`` if W11's smallest singular value is at
    most ``tol * max(largest, 1)``, else return (smallest, largest).  The
    message is ``where`` followed by the ``name=value`` pairs of ``at``
    (arrays or float lists), built only on failure.

    W11 is one block, as an array (k, k) or as k float rows, or a stack of
    blocks (count, k, k), checked block by block with one row of each
    ``at`` value per block; the first singular block is named, and the
    singular values come back as one entry per block.  Every check is
    decided as ``np.linalg.svd`` decides it.  A 1×1 or 2×2 block, alone or
    in a stack, first meets one closed form (:func:`_closed_form`, on
    floats for a block and on numpy columns for a stack), which only ever
    passes a block; the SVD takes every block it does not pass, and only
    those, and a failure's message shows the SVD's value:

    - 1×1 [[w]] has the singular value |w|, exactly.
    - 2×2 [[a, b], [c, d]] has the singular values (s ± t) / 2, where s =
      hypot(a + d, c - b) and t = hypot(a - d, c + b).  Since s² - t² =
      4 det, the larger is (s + t) / 2 and the smaller |s - t| / 2 for
      either sign of det.  The block passes when the smaller exceeds
      ``tol * max(larger, 1)`` by ``W11_MARGIN * max(larger, tiny)``, 16ε
      of the larger (ε the machine epsilon, ``tiny`` the least normal
      float).

      The margin covers both sides' errors, σ being the larger value.  The
      sums round by ε/2 and hypot (Python's or the C library's) by under
      1 ulp, so s and t are within 1.5ε relative and both closed forms
      within 2εσ.  LAPACK reduces the block to bidiagonal form by
      Householder reflections, whose backward error moves each singular
      value by a few εσ (Weyl's inequality), and takes the bidiagonal
      2×2's values to a few ε relative (``dlas2``; Demmel and Kahan, SIAM
      J. Sci. Stat. Comput. 11, 1990); against 200-bit arithmetic its
      error reached 3.7εσ on 30,000 random blocks.  The two thresholds
      differ by tol times these errors, less than the errors themselves,
      since for tol ≥ 1 no block passes here (smaller ≤ larger).
      Subnormal roundings stay below ε·tiny.  So every block passed here
      passes the SVD, and a stack's first singular block and its message
      are the SVD's.
    - A non-finite entry, or an overflow, makes the comparison false.
      Larger blocks always take the SVD.

    A block with a non-finite entry is singular, with NaN singular values;
    it never reaches LAPACK, which returns NaN or fails to converge there.
    """
    if type(w11) is np.ndarray and w11.ndim == 3:
        count, k = len(w11), w11.shape[-1]
        if k < 3:
            with np.errstate(all="ignore"):  # non-finite and overflowing lanes
                smallest, largest, passes = _closed_form(
                    [[w11[:, i, j] for j in range(k)] for i in range(k)],
                    tol, np)
        else:
            smallest, largest = np.empty(count), np.empty(count)
            passes = np.zeros(count, dtype=bool)
        if passes.all():
            return smallest, largest
        rest = ~passes
        sv = _singular_values(w11[rest])
        smallest[rest], largest[rest] = sv[:, -1], sv[:, 0]
        singular = ~_clears(smallest, largest, tol, np)
        if not singular.any():
            return smallest, largest
        first = int(np.argmax(singular))
        smallest, largest = smallest[first], largest[first]
        at = {name: x[first] for name, x in at.items()}
    else:
        passes = False
        if len(w11) < 3:
            smallest, largest, passes = _closed_form(
                w11.tolist() if type(w11) is np.ndarray else w11, tol,
                _FLOAT_OPS)
        if not passes:
            sv = _singular_values(w11)
            smallest, largest = sv[-1], sv[0]
    if not _clears(smallest, largest, tol, _FLOAT_OPS):  # NaN is singular too
        point = ", ".join(f"{name}={np.asarray(x, dtype=float).tolist()}"
                          for name, x in at.items())
        raise SingularJacobianError(
            f"{where} {point} (smallest singular value {smallest:.3e})"
        )
    return smallest, largest


def _clears(smallest, largest, tol, ops, margin=0.0):
    """smallest > tol * max(largest, 1) + margin, on floats (``ops`` is
    ``_FLOAT_OPS``) or numpy arrays (``ops`` is ``np``); false on NaN."""
    return smallest > tol * ops.maximum(largest, 1.0) + margin


def _closed_form(w11, tol, ops):
    """(smallest, largest, passes) of a 1×1 or 2×2 block's rows by
    :func:`check_w11`'s closed form: entries are floats (``ops`` is
    ``_FLOAT_OPS``) or numpy columns, one entry per block of a stack
    (``ops`` is ``np``)."""
    if len(w11) == 1:
        smallest, largest = abs(w11[0][0]), abs(w11[0][0])
        margin = 0.0  # exact
    else:
        (a, b), (c, d) = w11
        s, t = ops.hypot(a + d, c - b), ops.hypot(a - d, c + b)
        smallest, largest = abs(s - t) / 2, (s + t) / 2
        margin = W11_MARGIN * ops.maximum(largest, _LEAST_NORMAL)
    return smallest, largest, _clears(smallest, largest, tol, ops, margin)


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
    floats or numpy columns), in place, by Gaussian elimination with partial
    pivoting (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 9) in one order, so the bits depend on the inputs alone:
    ``pivot(a, cols, c)`` swaps the first row of largest |a_rc| into row c;
    each row r below takes f = a_rc / a_cc and its entries become x - f*y;
    back substitution takes s = b_i - a_ij*x_j over ascending j, then x_i =
    s / a_ii (so a 1×1 block with one column gives r / w)."""
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
    """:func:`_pivot_floats` lane by lane, one row swap per lane."""
    p, best = c, np.abs(a[c][c])
    for r in range(c + 1, len(a)):
        mag = np.abs(a[r][c])
        larger = mag > best
        p, best = np.where(larger, r, p), np.where(larger, mag, best)
    for r in range(c + 1, len(a)):
        lane = p == r
        if lane.any():
            for x in (a, *cols):  # whole rows of a, entries of a column
                x[c], x[r] = (np.where(lane, x[r], x[c]),
                              np.where(lane, x[c], x[r]))


def gepp(a, cols) -> list:
    """W11^{-1} b, a list, for each list b of ``cols``; W11 is k float rows."""
    return _eliminate([list(row) for row in a], [list(col) for col in cols],
                      _pivot_floats)


def abs_det(a) -> float:
    """|det| of k float rows: the product, left to right, of the pivots
    that :func:`_eliminate` leaves, so its bits depend on the rows alone."""
    a = [list(row) for row in a]
    try:
        _eliminate(a, [], _pivot_floats)
    except ZeroDivisionError:  # a pivot column is zero: the rows are singular
        return 0.0
    det = 1.0
    for i, row in enumerate(a):
        det = det * row[i]
    return abs(det)


def gepp_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`gepp` on each lane of a (count, k, k) and b (count, k, m), bit
    for bit; a lane that overflows ends non-finite, with no warning."""
    k, m = b.shape[1:]
    rows = [[a[:, i, j] for j in range(k)] for i in range(k)]
    cols = [[b[:, i, j] for i in range(k)] for j in range(m)]
    with np.errstate(all="ignore"):
        cols = _eliminate(rows, cols, _pivot_lanes)
    return np.array(cols).transpose(2, 1, 0)


# --------------------------------------------------------------------------
# generated W11 algebra: the envelope Newton here, the flows' stage kernels
# in dynamics
# --------------------------------------------------------------------------

def _known(a) -> bool:
    return all(isinstance(x, float) for row in a for x in row)


def _list_source(cg, xs) -> str:
    return f"[{', '.join(map(cg.lit, xs))}]"


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
        f"_check_w11({_list_source(cg, (_list_source(cg, r) for r in w11))}, "
        f"{cg.lit(tol)}, {where!r}, "
        + ", ".join(f"{name}={_list_source(cg, x)}" for name, x in at.items())
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
        return _list_source(cg, (_list_source(cg, ["{}"] * len(r))
                                 for r in rows))

    out = cg.op(f"_gepp({slots(a)}, {slots(cols)})",
                *(x for row in (*a, *cols) for x in row))
    return [[_Term(cg.op(f"{{}}[{c}][{i}]", out), cg) for i in range(len(a))]
            for c in range(len(cols))]


def _failed_newton(lag, active, point, v1):
    """Raise the ``EvalDomainError`` of L's evaluation at ``point`` with the
    v1 slots set to ``v1``, where the Newton kernel's evaluation failed."""
    for slot, x in zip(active, v1):
        point[slot] = x
    eval_dual2(lag, point, active)
    return AssertionError("the Newton kernel failed where eval_dual2 passes")


def _evaluates(lag, active, point) -> bool:
    """Whether ``eval_dual2`` returns at ``point``: its checked rerun decides
    where the outputs are finite but their sum overflows."""
    try:
        eval_dual2(lag, point, active)
    except EvalDomainError:
        return False
    return True


def _build_newton(system, partition):
    """Generate and compile the envelope Newton of (system, partition).

    The kernel ``kernel(tol, max_iter, max_backtracks, point, p1, v1)`` is
    :meth:`EnvelopeSolver.iterate` on Python floats.  Each evaluation calls
    ``_ev``, L's v1-active triple by the operations of ``eval_dual2(lag,
    point, active)``'s kernel, which returns the gradient and W11 locals,
    or None where ``eval_dual2`` raises (a fault, a domain guard or a
    non-finite output).  From a residual r = p1 - dL/dv1 with max-norm
    above ``tol``, W11 is checked and the step solves W11 d = r, both as
    :func:`emit_check_w11` and :func:`emit_gepp` emit them; the step is
    halved, up to ``max_backtracks`` times, until the trial's residual
    norm is smaller.  A finite trial whose evaluation fails is halved too.
    An evaluation that fails at the start or at a non-finite trial reruns
    as an ``eval_dual2`` call, to raise its exact error; a halving that
    runs out, or ``max_iter`` iterations, raise ``NewtonDivergedError``
    with the residual norms of the iterates.  ``point`` is left at the
    last v1 evaluated, which is V on return.
    """
    n, lag, tol = system.n, system.lagrangian, partition.rank_tolerance
    active = tuple(n + i for i in partition.regular)
    xs = [f"x{i}" for i in range(2 * n)]
    v1 = [xs[a] for a in active]
    cg = _Codegen(active, checked=False)
    _, grad, hess = out = cg.visit(lag.root)
    outputs = cg.flat(out)
    used = [x for x in dict.fromkeys(grad if _known(hess) else outputs[1:])
            if isinstance(x, str) and x not in xs]
    live = cg.live(outputs)
    ev = [f"def _ev({', '.join(xs)}):"]
    if cg.lines:
        ev += ["    try:", *("        " + x for x in cg.lines),
               "    except _EVAL_FAULTS:", "        return None"]
    if live:
        ev.append(f"    if not _isfinite({' + '.join(live)}) and not ("
                  f"_finite({', '.join(live)}) and _evaluates([{', '.join(xs)}"
                  "])): return None")
    ev.append(f"    return ({''.join(x + ', ' for x in used)})")

    # the iteration's float algebra, on the outputs unpacked as g0, g1, ...
    cg.lines, cg.memo = [], {}
    names = {x: f"g{j}" for j, x in enumerate(used)}

    def term(x):  # an output, tested finite
        return x if isinstance(x, float) else _Term(names.get(x, x), cg, True)

    r = [_Term(f"a{i}", cg) - term(g) for i, g in enumerate(grad)]
    # then norm = _inf_norm(r): the largest |r_i|, the first NaN one if any
    rsrc = [str(cg.lit(x)) for x in r]  # a term's + would emit
    residual = [*(["".join(g + ", " for g in names.values()) + "= e"]
                  if used else []), *cg.lines, f"norm = abs({rsrc[0]})"]
    for x in rsrc[1:]:
        residual += [f"_r = abs({x})",
                     "if not _r <= norm and norm == norm: norm = _r"]
    cg.lines = []
    w11 = [[term(x) for x in row] for row in hess]
    emit_check_w11(cg, w11, tol, "W11 is singular at Newton iterate", v1=v1)
    delta = emit_gepp(cg, w11, [r])[0]
    step = cg.lines + [f"d{i} = {cg.lit(d)}" for i, d in enumerate(delta)]
    store = [f"point[{a}] = {x}" for a, x in zip(active, v1)]
    at, call = f"[{', '.join(v1)}]", f"_ev({', '.join(xs)})"

    def block(depth, lines):
        return ["    " * depth + x for x in lines]

    src = [
        *ev,
        "def kernel(tol, max_iter, max_backtracks, point, p1, v1):",
        "    " + "".join(x + ", " for x in xs) + "= point",
        "    " + "".join(f"a{i}, " for i in range(len(v1))) + "= p1",
        "    " + "".join(x + ", " for x in v1) + "= v1",
        f"    e = {call}",
        f"    if e is None: raise _fail(point, {at})",
        *block(1, residual),
        "    history = []",
        "    for _ in range(max_iter):",
        "        rnorm = norm",
        "        history.append(rnorm)",
        "        if rnorm <= tol:",
        *block(3, store),
        f"            return {at}",
        *block(2, step),
        "        " + "".join(f"w{i}, " for i in range(len(v1))) + "= "
        + "".join(x + ", " for x in v1),
        "        alpha = 1.0",
        "        for _ in range(max_backtracks + 1):",
        *block(3, [f"{x} = w{i} + alpha * d{i}" for i, x in enumerate(v1)]),
        f"            e = {call}",
        "            if e is not None:",
        *block(4, residual),
        "                if norm < rnorm: break",
        f"            elif not _finite({', '.join(v1)}):",
        f"                raise _fail(point, {at})",
        "            alpha *= 0.5",
        "        else:",
        *block(3, store),
        "            raise _Diverged('backtracking could not reduce the "
        "envelope residual', history)",
        *block(1, store),
        "    raise _Diverged(f'no convergence within {max_iter} Newton "
        "iterations', history)",
    ]
    cg.ns.update(_Diverged=NewtonDivergedError,
                 _EVAL_FAULTS=(*_FAULTS, EvalDomainError),
                 _fail=functools.partial(_failed_newton, lag, active),
                 _evaluates=functools.partial(_evaluates, lag, active))
    return cg.build(src, "<legclair newton kernel>")


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
        self._v2_slots = tuple(n + i for i in self.partition.nonregular)
        self._v1_cols = np.array(self._v1_active, dtype=int)
        self._v2_cols = np.array(self._v2_slots, dtype=int)

    def default_guess(self) -> np.ndarray:
        return self.system.center()[self._v1_cols]

    def _checked(self, q, p1, c2):
        """q, p1 and c2 as float vectors, or ValueError naming the first
        with the wrong shape."""
        n, k = self.system.n, self.partition.k
        return (checked_vector(q, n, "q"), checked_vector(p1, k, "p1"),
                checked_vector(c2, n - k, "c2"))

    def solve(self, q, p1, c2, v1_guess=None) -> np.ndarray:
        """Return v1 = V(q, p1, c2) with ||p1 - dL/dv1||_inf <= newton_tol."""
        q, p1, c2 = self._checked(q, p1, c2)
        if not p1.size:
            return np.zeros(0)
        v1 = self.default_guess() if v1_guess is None else v1_guess
        v1 = np.broadcast_to(np.asarray(v1, dtype=float), p1.shape)
        # (q, v) with v2 = c2 fixed; the iteration sets the v1 slots
        point = q.tolist() + [0.0] * len(q)
        for slot, x in zip(self._v2_slots, c2.tolist()):
            point[slot] = x
        return np.array(self.iterate(point, p1.tolist(), v1.tolist()))

    def iterate(self, point: list, p1: list, v1: list) -> list:
        """:meth:`solve`'s damped Newton iteration on Python floats.

        ``point`` is the list (q, v) with its v2 entries set, ``p1`` the
        regular momenta and ``v1`` the starting regular velocities.  Returns
        V as a list and leaves ``point`` at (q, V, v2).  The iteration is
        the generated kernel of :meth:`newton`.
        """
        if not self._v1_active:
            return []
        return self.newton()(point, p1, v1)

    def newton(self):
        """The envelope Newton kernel of (system, partition), bound to this
        solver's settings: ``newton()(point, p1, v1)`` is ``iterate(point,
        p1, v1)`` where k > 0.

        The kernel is generated by :func:`_build_newton` at the first call
        and kept on the system, beside the flows' stage kernels.
        """
        key = ("newton", self.partition)
        kernel = self.system._stages.get(key)
        if kernel is None:
            kernel = self.system._stages[key] = _build_newton(self.system,
                                                              self.partition)
        return functools.partial(kernel, self.newton_tol, self.max_iter,
                                 self.max_backtracks)

    def solve_many(self, q, p1, c2, v1_guess=None) -> np.ndarray:
        """:meth:`solve_lanes`'s solutions; raises the lowest row's error."""
        out, failed = self.solve_lanes(q, p1, c2, v1_guess)
        if failed:
            raise failed[min(failed)]
        return out

    def solve_lanes(self, q, p1, c2, v1_guess=None):
        """:meth:`solve` at every row of q (count, n), p1 (count, k) and c2
        (count, n - k), with an optional (count, k) guess, and ``{row:
        error}`` for the rows where :meth:`solve` raises.

        Each lane runs :meth:`solve`'s iteration and ends as it ends: row i
        equals ``solve`` at row i bit for bit, or is NaN and files the error
        ``solve`` raises there, residual history included.  An iteration
        makes one stacked evaluation, W11 check and solve over its lanes
        (see :func:`_newton_lanes`).
        """
        n, k = self.system.n, self.partition.k
        q = checked_rows(q, n, "q")
        count = len(q)
        p1 = checked_rows(p1, k, "p1", count)
        c2 = checked_rows(c2, n - k, "c2", count)
        if k == 0:
            return np.zeros((count, 0)), {}
        v1 = (checked_rows(v1_guess, k, "v1_guess", count).copy()
              if v1_guess is not None
              else np.tile(self.default_guess(), (count, 1)))
        lag, active = self.system.lagrangian, self._v1_active
        tol = self.partition.rank_tolerance
        where = "W11 is singular at Newton iterate"
        point = self._points(q, v1, c2)

        def step(lanes, v1, r, state):
            hess, = state
            ended = {}
            try:
                check_w11(hess, tol, where, v1=v1)
            except SingularJacobianError:
                # each singular lane ends in its own block's error, as in solve
                for j in range(len(lanes)):
                    try:
                        check_w11(hess[j], tol, where, v1=v1[j])
                    except SingularJacobianError as err:
                        ended[j] = err
                        hess[j] = np.eye(k)  # solved for, never used
            return gepp_many(hess, r[:, :, None])[:, :, 0], ended

        def trial(rows, v1, _):
            x = point[rows]
            x[:, self._v1_cols] = v1
            d, bad = eval_dual2_rows(lag, x, active)
            # a finite trial that fails is halved; halving cannot make a
            # non-finite step finite
            ended = {j: err for j, err in bad.items()
                     if not np.isfinite(v1[j]).all()}
            return p1[rows] - d.grad, [d.hess], ended

        d, failed = eval_dual2_rows(lag, point, active)
        out, _, failed = _newton_lanes(self, v1, p1 - d.grad, [d.hess], failed,
                                       step, trial, "envelope",
                                       return_state=False)
        return out, failed

    def _points(self, q, v1, v2) -> np.ndarray:
        """Rows (q, v) with the regular/nonregular velocity columns set."""
        n = self.system.n
        x = np.empty((len(q), 2 * n))
        x[:, :n] = q
        x[:, self._v1_cols] = v1
        x[:, self._v2_cols] = v2
        return x


def _guess_row(x):
    """A per-point guess as one row, or None."""
    return None if x is None else np.asarray(x, dtype=float)[None]


def _newton_lanes(solver, x, r, state, failed, step, trial, residual, of="",
                  return_state=True):
    """Damped Newton on stacked lanes, each ending as one scalar iteration
    ends; the body behind :meth:`EnvelopeSolver.solve_lanes` and
    :meth:`MixedHamiltonian.inverse_transform_many`.

    ``x`` (count, k) holds the starting iterates and ``r`` their residuals,
    ``state`` a list of per-lane arrays that an accepted trial replaces
    (both updated in place), and ``failed`` ``{row: error}`` for the rows
    that have already failed, whose residuals are NaN.  The caller
    supplies the step and the trial:

    - ``step(lanes, x, r, state)`` returns the Newton steps of the live
      lanes, whose original rows are ``lanes``, and ``{lane: error}`` for
      the lanes that end there;
    - ``trial(rows, x, state)`` returns the residuals and the state at the
      trial iterates ``x`` of the lanes at original ``rows``, and ``{lane:
      error}`` for the lanes that end there.  A trial whose residual is NaN
      is never accepted.

    A lane converges once its residual's max-norm is at most
    ``solver.newton_tol``.  Each iteration halves a lane's step, up to
    ``solver.max_backtracks`` times, until the trial residual's norm drops
    below the current one; a lane whose halving runs out, or that is still
    iterating after ``solver.max_iter`` iterations, files a
    ``NewtonDivergedError`` that names the ``residual`` (the iteration
    limit's message ends in ``of``) and carries its residual history.
    Returns x and (unless ``return_state`` is false) the state where each
    lane converged, NaN elsewhere, and ``failed``, with every error under
    its lane's original row.
    """
    out = np.full(x.shape, np.nan)
    out_state = [np.full(s.shape, np.nan) for s in state if return_state]
    lanes = np.arange(len(x))  # original row of each lane still iterating
    ok = np.ones(len(x), dtype=bool)
    if failed:
        ok[list(failed)] = False
    norms = []  # (lanes, their residual norms) at every iteration
    for _ in range(solver.max_iter):
        # lanes leave here, converged or failed; a NaN residual stays live
        rnorm = np.abs(r).max(axis=1)
        converged = rnorm <= solver.newton_tol
        live = ok & ~converged
        if not live.all():
            rows = lanes[converged]
            out[rows] = x[converged]
            for o, s in zip(out_state, state):
                o[rows] = s[converged]
            if not live.any():
                return out, out_state, failed
            lanes, x, r, rnorm = (a[live] for a in (lanes, x, r, rnorm))
            state = [s[live] for s in state]
            ok = np.ones(len(lanes), dtype=bool)
        norms.append((lanes, rnorm))
        delta, ended = step(lanes, x, r, state)
        for j, err in ended.items():
            failed[int(lanes[j])] = err
            ok[j] = False
        alpha = np.ones(len(lanes))
        pending = np.flatnonzero(ok)  # lanes still backtracking
        for _ in range(solver.max_backtracks + 1):
            x_trial = x[pending] + alpha[pending, None] * delta[pending]
            r_trial, s_trial, ended = trial(
                lanes[pending], x_trial, [s[pending] for s in state])
            # a NaN residual is never better
            stop = np.abs(r_trial).max(axis=1) < rnorm[pending]
            done = pending[stop]
            # the accepted trial's evaluation serves the next iterate
            x[done] = x_trial[stop]
            r[done] = r_trial[stop]
            for s, t in zip(state, s_trial):
                s[done] = t[stop]
            for j, err in ended.items():
                failed[int(lanes[pending[j]])] = err
                ok[pending[j]] = False
                stop[j] = True
            pending = pending[~stop]
            if not pending.size:
                break
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
        probe = (
            np.asarray(v2_probe, dtype=float)
            if v2_probe is not None
            else self.default_probe()
        )
        v1 = self.solve_velocity(q, p1, probe, v1_guess)
        x = self.system.point(q, self.assemble_velocity(v1, probe))
        d = eval_dual2_many(self.system.lagrangian, x[None], self._v_active)
        return d.grad[0, self._nonreg]

    # The other single-point maps are one-row calls of their stacked twins
    # below, after the single-point solve's argument checks.  The solve in
    # ``psi`` and ``solve_velocity`` stays scalar (the generated Newton);
    # dL/dv is a one-row call of the stacked v-active kernel, as everywhere.

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
    # on) and is the one body of its map: ``value``, ``phi``, ``h_zero``,
    # ``clairaut_residual`` and ``inverse_transform`` call it on one row.
    # ``envelope_many`` is the one body of the envelope point: one solve
    # and one evaluation give V, Psi and H0 together.  ``value_many`` and
    # ``envelope_many`` are a solve and then ``value_at`` and
    # ``envelope_at``, which take V as given, so ``transform`` solves a row
    # once for H, Psi and H0.  No row depends on the others: Newton lanes
    # end as ``solve`` ends (``solve_lanes``), and row-wise dot products
    # are :func:`contract` over columns, so ``envelope_many``'s Psi equals
    # ``psi`` row by row too.  A map raises if some row fails, the lowest
    # row's error; on one row it meets that row's errors in a point's own
    # order, as shifted momenta are stacked in central-difference order.

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
                             self.solver._points(q, v1, v2))
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
        x = self.solver._points(q, v1, c2)
        d = eval_dual2_many(self.system.lagrangian, x, self._v_active)
        psi = d.grad[:, self._nonreg]
        h0 = contract(p1.T, v1.T) + contract(c2.T, psi.T) - d.value
        return psi, h0

    def phi_many(self, q, p, v2_probe=None, v1_guess=None) -> np.ndarray:
        """Phi = p2 - Psi(q, p1) at every row."""
        p = checked_rows(p, self.n, "p")
        _, psi, _ = self.envelope_many(q, p[:, self._reg], v2_probe, v1_guess)
        return p[:, self._nonreg] - psi

    def momentum_gradient_many(self, q, p, v2):
        """(V, H, dH/dp) at every row: V and H at (q, p, v2), and dH/dp by
        the central differences of :meth:`clairaut_residual`.

        H at p and at the 2n shifted momenta of every row is one stacked
        :meth:`value_many` call, warm-started from V at p.
        """
        q = checked_rows(q, self.n, "q")
        p = checked_rows(p, self.n, "p", len(q))
        v2 = checked_rows(v2, self.n - self.k, "v2", len(q))
        n, count = self.n, len(q)
        v1_warm = self.solver.solve_many(q, p[:, self._reg], v2)
        step = FD_MOMENTUM_STEP * (1.0 + np.abs(p))
        # p, then +e_i and -e_i for each i: the order a point meets errors in
        blocks = 2 * n + 1
        shifted = np.repeat(p[None], blocks, axis=0)
        for i in range(n):
            shifted[1 + 2 * i, :, i] += step[:, i]
            shifted[2 + 2 * i, :, i] -= step[:, i]
        h_all = self.value_many(
            np.tile(q, (blocks, 1)), shifted.reshape(blocks * count, n),
            np.tile(v2, (blocks, 1)), v1_guess=np.tile(v1_warm, (blocks, 1)),
        ).reshape(blocks, count)
        dhdp = ((h_all[1::2] - h_all[2::2]) / (2.0 * step.T)).T
        return v1_warm, h_all[0], dhdp

    def clairaut_residual_many(self, q, p, v2) -> np.ndarray:
        """|H - p*dH/dp + L(dH/dp)| at every row (see
        :meth:`clairaut_residual`)."""
        _, h_val, dhdp = self.momentum_gradient_many(q, p, v2)
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        lval = evaluate_many(self.system.lagrangian,
                             np.concatenate([q, dhdp], axis=1))
        return np.abs(h_val - contract(p.T, dhdp.T) + lval)

    def inverse_transform_many(self, q, v, p2, p1_guess=None) -> np.ndarray:
        """The inverse transform (see :meth:`inverse_transform`) at every
        row: the outer Newton on P runs lane by lane, each iteration one
        stacked W11 evaluation and one stacked nested solve per backtracking
        round.  The lowest failing lane's error is raised.
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
            v_cur, failed = solver.solve_lanes(q, p1, v2)

            def step(lanes, _, rho, state):
                x = solver._points(q[lanes], state[0], v2[lanes])
                w11 = eval_dual2_many(self.system.lagrangian, x,
                                      solver._v1_active).hess
                # W11 rho, one column of W11 per term
                return contract(w11.transpose(2, 0, 1), rho.T[:, :, None]), {}

            def trial(rows, p1, state):
                # warm-started at the current V; any nested failure ends
                v_trial, bad = solver.solve_lanes(q[rows], p1, v2[rows],
                                                  v1_guess=state[0])
                return v1[rows] - v_trial, [v_trial], bad

            p1, (v_cur,), failed = _newton_lanes(
                solver, p1, v1 - v_cur, [v_cur], failed, step, trial,
                "inverse-transform", " of the inverse transform")
            if failed:
                raise failed[min(failed)]
        p_full = np.empty((count, self.n))
        p_full[:, self._reg] = p1
        p_full[:, self._nonreg] = p2
        h_val = self.value_many(q, p_full, v2, v1_guess=v_cur)
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
