"""Gauge-fixed dynamics on both sides of the transform.

A singular velocity Hessian leaves the non-regular velocities undetermined,
so trajectories only exist once those velocities are fixed by a gauge choice
v2 = C2(q).  This module integrates the Euler-Lagrange flow and the mixed
Hamiltonian flow under the same gauge and provides the diagnostics that make
the two comparable:

* ``el_i2_res`` - the defect of the non-regular Euler-Lagrange rows, which
  the gauge-fixed flow does not enforce;
* ``hs3_res`` - the defect of the non-regular momentum equation on the
  Hamiltonian side, measuring the same physical quantity through the
  constraint function Psi instead;
* ``phi`` - the primary-constraint values along the trajectory.

The momentum equations on the Hamiltonian side carry correction terms
R_i = sum_j Phi_j dC2_j/dq_i.  The position-space gradient of H appearing in
those equations is the *composite* one, taken after substituting v2 = C2(q),
and satisfies the exact identity

    dH/dq|_comp = -dL/dq + Phi . dC2/dq

at the envelope point.  Adding R back therefore cancels the gauge-induced
term for the regular rows: p1 evolves by dL/dq1 alone and the reduced flow
is independent of the constraint offset.  ``include_r=False`` switches the
correction off; with a nonzero constraint offset this visibly breaks the
equivalence with the Lagrangian flow, which is the intended negative
control.

On the Hamiltonian side only (q, p1) is integrated.  The non-regular momenta
are reconstructed as p2 = Psi(q, p1) + Phi_0 with the constant initial
offset Phi_0; this is exact because the corrected momentum equation forces
d(p2)/dt = d(Psi)/dt.

The rank partition holds on the declared box only: ``initial_state``
refuses a start outside it (``OutOfDomainError``), ``first_box_exit`` finds
a trajectory's first node outside it, and ``flow_report`` refuses a verdict
there (``BoxExitError``).

Both flows run on one RK4 loop, which names the step and time of any
failure.  It is generated for the state's length, n + k on both sides, and
compiled once per system, so once per command (``_build_rk4``): the state,
the slopes and the stage points are locals, each stage point is passed as
positional floats, and each node records the raw state and info of its
first stage.  The trajectory's arrays are built from these records in one
pass, read flat, by numpy operations that round as Python's do.  Each stage
is one generated straight-line function, the stage kernel of the flow
(``_stage``), compiled at its first stage: ``stage(monitor, x0, x1, ...)``
returns the tuple (dy/dt..., info).  It holds the gauge's (value, gradient,
Hessian) triples and L's full triple, each by the operations of its own
``eval_dual2`` kernel, then K, dv2/dt, R, dH/dq, the W11 check and solve,
and p1dot.  The Hamiltonian stage runs its own envelope Newton between the
gauge and L, inline on its locals, from the previous stage's V, which it
keeps in nonlocal floats: one lane of ``EnvelopeSolver.solve_lanes`` on
Python floats, written by ``clairaut.emit_newton``, with its ``_ev`` at the
top of the stage's source.  L's full triple at V shares one operation memo
with ``_ev``: every operation the Newton's accepted evaluation ran is read
from it, and only the others are emitted, so no operation of L runs twice
at V.  The monitors above follow an early return, so only the recorded
stage, the first of each step, builds them.

Errors are those of the calls the stage replaces, and the envelope
Newton's are those of ``EnvelopeSolver.solve`` from the same start.  A
fault, a domain guard or a non-finite output of a triple sends the stage
down a slow path (``_failed_stage``) that reruns its evaluations as calls
in the flows' order (the gauge's value and Jacobian, then L) to raise
their exact ``EvalDomainError``, and decide an overflowing sum
(``_Codegen.guarded``).
W11 fails with ``check_w11``'s message: a block known at generation is
decided once, and any other block by a ``check_w11`` call at each stage.

The RK4 state, the stage points and all per-stage algebra, the monitors
and the envelope Newton included, are Python floats, and their bits are
fixed by Python's float arithmetic in a fixed order: every contraction (K,
the gauge chain rule, R, the blocks of d(Psi)/dt) is ``clairaut.contract``
summed left to right, and every W11 solve is ``clairaut.gepp``, Gaussian
elimination with partial pivoting in a fixed order (unrolled for a block
known at generation, a call for any other).  The kernel folds only what
leaves every bit as it is: operations on known floats, x + -0.0, x - 0.0,
x * +-1.0 and x / +-1.0, a contraction's term where a known 0.0 meets a
tested finite output, and a known +-1.0 factor of a contraction's term
(see ``expr._Codegen.contract``).  No output depends on the BLAS kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    _inf_norm,
    emit_check_w11,
    emit_gepp,
    emit_newton,
)
from .expr import (
    EvalDomainError,
    Expression,
    _Codegen,
    _evaluates,
    _Term,
    eval_dual2,
    eval_dual2_many,
    evaluate,
    parse,
)
from .partition import (
    HessianPartition,
    LagrangianSystem,
    checked_vector,
    qv_names,
)

__all__ = [
    "GaugeChoice",
    "PrimaryConstraintError",
    "NonFiniteStateError",
    "OutOfDomainError",
    "BoxExitError",
    "Trajectory",
    "ComparisonReport",
    "initial_state",
    "el_rhs",
    "ham_rhs",
    "integrate_el",
    "integrate_ham",
    "compare_trajectories",
    "first_box_exit",
    "flow_report",
    "MONITORS",
    "write_trajectory_csv",
    "format_table",
    "PRIMARY_TOL",
]

PRIMARY_TOL = 1e-8


class PrimaryConstraintError(Exception):
    """Initial Hamiltonian data sits off the primary constraint surface."""

    def __init__(self, message, values):
        super().__init__(message)
        self.values = np.asarray(values, dtype=float)


@dataclass(frozen=True)
class GaugeChoice:
    """A gauge v2 = C2(q): one expression per non-regular velocity.

    The expressions are functions of the positions only, parsed over the
    table (q1, ..., qn).
    """

    n: int
    exprs: tuple

    def __post_init__(self):
        qnames = qv_names(self.n)[: self.n]
        for e in self.exprs:
            if not isinstance(e, Expression) or tuple(e.variables) != qnames:
                raise ValueError(
                    f"gauge expressions must be parsed over {qnames}"
                )

    @classmethod
    def from_sources(cls, n, sources):
        qnames = qv_names(n)[:n]
        return cls(n, tuple(parse(s, qnames) for s in sources))

    @classmethod
    def constant(cls, n, values):
        vals = [float(v) for v in values]
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("gauge constants must be finite")
        return cls.from_sources(n, [repr(v) for v in vals])

    def value(self, q) -> np.ndarray:
        return np.array([evaluate(e, q) for e in self.exprs])

    def jacobian(self, q) -> np.ndarray:
        """dC2/dq, shape (n - k, n)."""
        if not self.exprs:
            return np.zeros((0, self.n))
        return np.array([eval_dual2(e, q).grad for e in self.exprs])


def _resolve_gauge(gauge, partition: HessianPartition, n: int) -> GaugeChoice:
    m = n - partition.k
    if gauge is None:
        if m:
            raise ValueError(
                f"the system leaves {m} velocity component(s) unresolved; "
                "a gauge choice is required"
            )
        return GaugeChoice(n, ())
    if gauge.n != n or len(gauge.exprs) != m:
        raise ValueError(
            f"gauge fixes {len(gauge.exprs)} velocity component(s), "
            f"expected {m}"
        )
    return gauge


def _validate_span(t_span, dt):
    t0, t1 = (float(t) for t in t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)) or t1 <= t0:
        raise ValueError(f"need t1 > t0, got t_span = ({t0}, {t1})")
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"need a positive finite step, got dt = {dt}")
    nsteps = max(1, int(round((t1 - t0) / dt)))
    return t0, t1, nsteps, (t1 - t0) / nsteps


# --------------------------------------------------------------------------
# The generated RK4 loop and stage kernels
# --------------------------------------------------------------------------

class NonFiniteStateError(ArithmeticError):
    """An RK4 step left the state with an inf or NaN entry."""


def _rk4(system, stage, y0, t0, h, nsteps):
    """Classical RK4 over the nodes t0 + i*h, i = 0..nsteps, from the state
    y0, a list of floats: the node times, the node states (one row each)
    and the columns of the info their first stages return.

    ``stage(monitor, *y)`` takes the stage point as positional floats and
    returns the tuple (dy_0, dy_1, ..., info).  Only a step's first stage
    is called with ``monitor`` true: the other three return info None and
    skip the diagnostics nothing records.  Step i starts at node i (step
    nsteps only records).  The loop (``_build_rk4``) appends node i's state
    before its first stage, so an error raised in step i, including
    ``NonFiniteStateError`` when it leaves y non-finite, finds i + 1 nodes
    recorded; it gets ``step``/``t`` attributes and "at RK4 step i (t =
    ...)" appended to its message.  The records become arrays in one pass
    at the end, where numpy's t0 + i*h and flat copies keep every bit.
    """
    key = ("rk4", len(y0))
    if key not in system._stages:
        system._stages[key] = _build_rk4(len(y0))
    ys, infos = [], []
    try:
        system._stages[key](stage, y0, h, nsteps, ys, infos)
    except (EvalDomainError, SingularJacobianError, NewtonDivergedError,
            NonFiniteStateError) as exc:
        i = len(ys) - 1
        exc.step, exc.t = i, t0 + i * h
        exc.args = (f"{exc} at RK4 step {i} (t = {exc.t:.6g})",)
        raise
    count = nsteps + 1
    return (t0 + h * np.arange(count), _flat_array(ys, count),
            [_flat_array(c, count) for c in zip(*infos)])


def _flat_array(rows, count):
    """``np.array(rows)`` for ``count`` rows that are all floats or all
    float lists of one length, read flat by ``np.fromiter``."""
    if not isinstance(rows[0], list):
        return np.fromiter(rows, float, count)
    width = len(rows[0])
    return np.fromiter(itertools.chain.from_iterable(rows), float,
                       count * width).reshape(count, width)


def _build_rk4(m):
    """Generate and compile the RK4 loop of ``_rk4`` for a state of length
    m: the state a, the slopes b, c, d, e and the stage points are locals,
    and each entry is updated as a + sixth*(b + 2.0*c + 2.0*d + e)."""
    cg = _Codegen(None, checked=False)

    def row(fmt):  # fmt of entry {0}, for each entry
        return "".join(fmt.format(j) + ", " for j in range(m))

    src = ["def kernel(stage, y, h, nsteps, ys, infos):",
           "    half, sixth = 0.5 * h, h / 6.0",
           f"    {row('a{0}')}= y",
           "    for _ in range(nsteps):",
           "        ys.append(y)",
           f"        {row('b{0}')}info = stage(True, {row('a{0}')})",
           "        infos.append(info)"]
    for k, x, w in (("c", "b", "half"), ("d", "c", "half"), ("e", "d", "h")):
        src.append(f"        {row(k + '{0}')}_ = stage(False, "
                   f"{row(f'a{{0}} + {w} * {x}{{0}}')})")
    src += [*(f"        a{j} = a{j} + sixth * (b{j} + 2.0 * c{j} + 2.0 * d{j}"
              f" + e{j})" for j in range(m)),
            "        if not (" + " and ".join(f"_isfinite(a{j})"
                                              for j in range(m)) + "):",
            f"            raise {cg.const(NonFiniteStateError)}("
            "'overflow to a non-finite state')",
            f"        y = [{row('a{0}')}]",
            "    ys.append(y)",
            "    infos.append(stage(True, *y)[-1])"]
    return cg.build(src, "<legclair rk4 loop>")


def _failed_stage(lag, gauge, reg, nonreg, q, v1):
    """Raise the ``EvalDomainError`` of a stage its kernel could not finish
    (else return an AssertionError): its calls rerun in the flows' order,
    ``gauge.value(q)``, ``gauge.jacobian(q)``, then L at (q, v) given v1."""
    c2 = gauge.value(q).tolist()
    gauge.jacobian(q)
    if v1 is not None:
        v = [0.0] * len(q)
        for i, x in (*zip(reg, v1), *zip(nonreg, c2)):
            v[i] = x
        eval_dual2(lag, q + v)
    return AssertionError("a stage kernel failed where its evaluations pass")


def _stage(system: LagrangianSystem, partition, gauge, ham=False,
           include_r=True):
    """The stage kernel of the Euler-Lagrange flow, or with ``ham`` of the
    mixed-Hamiltonian flow, compiled at first use and kept on ``system``
    for its (flow, partition, gauge, include_r).  It is a factory of
    ``rhs(monitor, *y)`` (see ``_rk4``): the Hamiltonian one takes the
    first stage's warm start V (a sequence of floats), the solver's
    ``newton_tol``, ``max_iter`` and ``max_backtracks``, which its envelope
    Newton runs with, and the offsets Phi_0."""
    key = ("ham", include_r) if ham else ("el",)
    key += (partition, gauge)
    if key not in system._stages:
        system._stages[key] = _build_stage(system, partition, gauge, ham,
                                           include_r)
    return system._stages[key]


def _build_stage(system, partition, gauge, ham, include_r):
    """Generate and compile one stage kernel (see the module docstring)."""
    n, k, lag = system.n, partition.k, system.lagrangian
    tol, reg, nonreg = (partition.rank_tolerance, partition.regular,
                        partition.nonregular)
    # one slot per variable of L: a gauge's slots past q stay known zeros
    cg = _Codegen(tuple(range(2 * n)), checked=False)
    cg.ns.update(_inf_norm=_inf_norm, _evaluates=_evaluates,
                 _fail=functools.partial(_failed_stage, lag, gauge, reg,
                                         nonreg))
    lines, lit, lst = cg.lines, cg.lit, cg.list_source

    def tup(xs):  # the entries of a tuple display or a parameter list
        return ", ".join(map(lit, xs))

    def dot(a, x):
        return [cg.contract(row, x) for row in a]

    def term(x):  # an output that cg.guarded tested finite
        return x if isinstance(x, float) else _Term(x, cg, True)

    def check(w11, **at):
        emit_check_w11(cg, w11, tol, "regular velocity block is singular at",
                       **at)

    def solve(a, cols):  # unrolled for a block known at generation
        return emit_gepp(cg, a, cols)

    def norm(xs):
        return cg.op(f"_inf_norm({lst(['{}'] * len(xs))})", *xs,
                     fold=lambda *x: _inf_norm(x))

    # the gauge's triples, v2 = C2(q) and L's triple at (q, v), each by the
    # operations of its own kernel, then tested as eval_dual2 tests them
    q, xv = [f"x{i}" for i in range(n)], [f"x{n + i}" for i in range(n)]
    v1_names = [xv[i] for i in reg]

    def guarded(start, outputs, v1):  # fails where a call of _fail raises
        at = f"{lst(q)}, {v1}"
        cg.guarded(start, outputs, f"raise _fail({at})",
                   f"_evaluates(_fail, {at})")

    # the stage point, its parameters: (q, v1), or (q, p1) with p1 as a0,
    # a1, ... for the Newton
    state = q + ([f"a{i}" for i in range(k)] if ham else v1_names)
    gauge_out = [cg.visit(e.root) for e in gauge.exprs]
    outputs = [x for t in gauge_out for x in cg.flat(t)]
    if ham:
        guarded(0, outputs, None)
        outputs = []
    lines += [f"{xv[j]} = {lit(t[0])}" for j, t in zip(nonreg, gauge_out)]
    start, ev, setup = len(lines) if ham else 0, [], []
    if ham and k:
        # the envelope Newton from the warm start, left at V, and L's full
        # triple there, on what its accepted evaluation has not computed
        ev, setup, start, out = emit_newton(system, partition, cg)
    else:
        out = cg.visit(lag.root)
    guarded(start, outputs + cg.flat(out), lst(v1_names))

    jac = [[term(x) for x in t[1][:n]] for t in gauge_out]
    grad = [term(x) for x in out[1]]
    hess = [[term(x) for x in row] for row in out[2]]
    v = [None] * n  # the full velocity: the state's or V, then C2
    for i in reg:
        v[i] = _Term(xv[i], cg)
    for j, t in zip(nonreg, gauge_out):
        v[j] = term(t[0])
    lvq = [row[:n] for row in hess[n:]]

    def block(rs, cs):
        return [[hess[n + i][n + j] for j in cs] for i in rs]

    w11 = block(reg, reg)
    if not ham:
        # W11 a1 = K1 - W12 v2dot, K_i = dL/dq_i - sum_j (d2L/dv_i dq_j) v_j
        kvec = [a - b for a, b in zip(grad[:n], dot(lvq, v))]
        v2dot = dot(jac, v)
        if k:
            check(w11, q=q, v=v)
        accel1 = solve(w11, [[kvec[i] - b for i, b in
                              zip(reg, dot(block(reg, nonreg), v2dot))]])[0]
        dy = v + accel1
        lines.append(f"if not monitor: return {tup(dy)}, None")
        vdot = [None] * n
        for i, a in (*zip(reg, accel1), *zip(nonreg, v2dot)):
            vdot[i] = a
        w2 = [hess[n + j][n:] for j in nonreg]
        defect = [a - kvec[j] for a, j in zip(dot(w2, vdot), nonreg)]
        info = f"{lit(norm(defect))}, {lst(v)}, {lst(grad[n:])}"
    else:
        phi = [_Term(f"f{j}", cg) for j in range(len(nonreg))]
        r_full = [cg.contract(c, phi) for c in zip(*jac)] if jac else [0.0] * n
        dhdq = [-a + b for a, b in zip(grad[:n], r_full)]
        r_kept = r_full if include_r else [0.0] * n
        p1dot = [-dhdq[i] + r_kept[i] for i in reg]
        if k and nonreg:
            check(w11, q=q)
        dy = v + p1dot  # (qdot, p1dot)
        lines.append(f"if not monitor: return {tup(dy)}, None")
        hs3_res = 0.0
        if nonreg:
            w12, w21 = block(reg, nonreg), block(nonreg, reg)
            jac_cols = list(zip(*jac))
            # dV/dq column by column: one right-hand column per q_j
            dvdq_cols = solve(w11, [
                [lvq[i][j] + u for i, u in zip(reg, dot(w12, col))]
                for j, col in enumerate(jac_cols)])
            dvdq_cols = [[-u for u in col] for col in dvdq_cols]
            # dPsi/dp1 row by row, from the transposed system W11^T X = W21^T
            dpsi_dp1 = solve(list(zip(*w11)), w21)
            w21_dvdq = [dot(dvdq_cols, row) for row in w21]
            psi_p1 = dot(dpsi_dp1, p1dot)
            w22_jac = [dot(jac_cols, row) for row in block(nonreg, nonreg)]
            dpsi_dq = [[x + y + z for x, y, z in zip(lvq[j], row1, row2)]
                       for j, row1, row2 in zip(nonreg, w21_dvdq, w22_jac)]
            psidot = [x + y for x, y in zip(dot(dpsi_dq, v), psi_p1)]
            hs3_res = norm([dhdq[j] + x - r_kept[j]
                            for j, x in zip(nonreg, psidot)])
        info = f"{lst(v)}, {lit(hs3_res)}, {lst(grad[n:])}"
    lines.append(f"return {tup(dy)}, ({info})")
    params = ["_v", "tol", "max_iter", "max_backtracks",
              *(f"f{j}" for j in range(len(nonreg)))]
    src = [*ev, f"def kernel({', '.join(params) if ham else ''}):",
           *("    " + line for line in setup),
           f"    def stage(monitor, {tup(state)}):",
           *("        " + line for line in lines), "    return stage"]
    return cg.build(src, "<legclair stage kernel>")


# --------------------------------------------------------------------------
# Initial data
# --------------------------------------------------------------------------

class OutOfDomainError(Exception):
    """Requested data lies outside the declared coordinate boxes."""


def _check_initial(names, x, lo, hi):
    """Raise OutOfDomainError at the first entry of x outside [lo, hi], a
    NaN included."""
    for name, value, a, b in zip(names, x, lo, hi):
        if not a <= value <= b:
            raise OutOfDomainError(
                f"initial {name} = {value:g} lies outside [{a:g}, {b:g}]")


def initial_state(ham: MixedHamiltonian, gauge, q=None, v=None, p=None):
    """(q0, V, p0) of flows started at positions q with velocities v or
    momenta p: q and exactly one of the others must be given (ValueError
    otherwise).

    From v, whose unresolved entries must agree with the gauge C2(q0)
    (ValueError otherwise), V is its regular part and p0 = dL/dv; from p, V
    solves the envelope at c2 = C2(q0), and v is (V, c2).  q0 and v must
    lie in the declared box (OutOfDomainError), and L is evaluated only at
    a v that does.
    """
    if q is None:
        raise ValueError("initial data needs 'q'")
    if (v is None) == (p is None):
        raise ValueError("initial data needs exactly one of 'v' "
                         "(velocities) or 'p' (momenta)")
    system, n = ham.system, ham.n
    names, lo, hi = qv_names(n), system.domain_lo, system.domain_hi
    q0 = np.asarray(q, dtype=float)
    _check_initial(names[:n], q0, lo[:n], hi[:n])
    reg = list(ham.partition.regular)
    nonreg = list(ham.partition.nonregular)
    c2 = gauge.value(q0) if gauge is not None else np.zeros(0)
    if p is None:
        v = np.asarray(v, dtype=float)
        # written so that a NaN disagrees
        if nonreg and not float(np.max(np.abs(v[nonreg,] - c2))) <= 1e-8:
            raise ValueError(
                "initial velocities conflict with the gauge at q0: "
                f"v2 = {v[nonreg,].tolist()} but C2(q0) = {c2.tolist()}"
            )
        v1 = v[reg,]
    else:
        p0 = np.asarray(p, dtype=float)
        v1 = ham.solve_velocity(q0, p0[reg,], c2)
        v = ham.assemble_velocity(v1, c2)
    _check_initial(names[n:], v, lo[n:], hi[n:])
    if p is None:
        p0 = eval_dual2_many(
            system.lagrangian, system.point(q0, v)[None], range(n, 2 * n)
        ).grad[0]
    return q0, v1, p0


# --------------------------------------------------------------------------
# Euler-Lagrange side
# --------------------------------------------------------------------------

def el_rhs(system, partition, gauge, q, v1):
    """Gauge-fixed regular accelerations and the non-regular row defect."""
    gauge = _resolve_gauge(gauge, partition, system.n)
    y = (checked_vector(q, system.n, "q").tolist()
         + checked_vector(v1, partition.k, "v1").tolist())
    *dy, (i2_res, _, _) = _stage(system, partition, gauge)()(True, *y)
    return np.array(dy[system.n:]), i2_res


def integrate_el(ham: MixedHamiltonian, gauge, q0, v10, t_span, dt):
    """Integrate the gauge-fixed Euler-Lagrange flow with fixed-step RK4.

    State is (q, v1); the non-regular velocities follow the gauge.  Momenta
    p = dL/dv and the non-regular row defect are recorded at every node.
    The momenta lie on the Legendre image, where the primary constraints
    hold identically: Phi = p2 - Psi(q, p1) is 0 by construction (the
    envelope solve at p1 = dL/dv1 returns v1 itself, and dL/dv2 has the
    same bits for every active set), so its column is recorded as 0.0.
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    gauge = _resolve_gauge(gauge, partition, n)
    t0, _, nsteps, h = _validate_span(t_span, dt)
    y0 = (checked_vector(q0, n, "q0").tolist()
          + checked_vector(v10, k, "v10").tolist())
    times, y, (i2_res, v, lv) = _rk4(
        system, _stage(system, partition, gauge)(), y0, t0, h, nsteps)
    return Trajectory(times, y[:, :n], v, lv, np.zeros((times.size, n - k)),
                      i2_res, np.full(times.size, np.nan), n, k,
                      partition.regular)


# --------------------------------------------------------------------------
# Hamiltonian side
# --------------------------------------------------------------------------

def _ham_rhs(ham: MixedHamiltonian, gauge, q, p1, p2, include_r):
    """(Phi_0, rhs) of a Hamiltonian run from (q, p1, p2): Phi_0 = p2 -
    Psi(q, p1) from the envelope solve at v2 = C2(q), and ``rhs(monitor,
    *q, *p1)``, which returns (*qdot, *p1dot, (qdot, ``hs3_res``, dL/dv)),
    None in place of the last entry when ``monitor`` is false.  The start
    takes V and Psi from one row of the envelope's stacked body
    (``EnvelopeSolver.solve_many``, as ``solve`` does, and L's v-active row
    there).  Each stage runs its own envelope Newton, ending as ``solve``
    ends, warm-started at the previous stage's V (the first at the
    start's).  ``hs3_res`` is the residual of the non-regular momentum
    equation given that p2 is reconstructed from Psi:

        d(Psi)/dt + dH/dq2|_comp - R2   (R2 dropped when include_r=False)

    with d(Psi)/dt assembled by the chain rule through
    dV/dp1 = W11^{-1} and dV/dq = -W11^{-1} (d2L/dv1 dq + W12 dC2/dq).
    """
    system, solver = ham.system, ham.solver
    q = checked_vector(q, ham.n, "q")[None]
    c2 = gauge.value(q[0])[None]
    # V and Psi = dL/dv2 from one row of the envelope's stacked body (H0,
    # which may overflow where the flow runs, is not formed)
    v1 = solver.solve_many(q, p1[None], c2)
    x = solver._point_columns(q, c2, v1).T
    psi = eval_dual2_many(system.lagrangian, x, ham._v_active).grad[0]
    phi = p2 - psi[list(ham.partition.nonregular)]
    make = _stage(system, ham.partition, gauge, True, include_r)
    return phi, make(v1[0].tolist(), solver.newton_tol, solver.max_iter,
                     solver.max_backtracks, *phi.tolist())


def ham_rhs(ham: MixedHamiltonian, gauge, q, p, include_r=True):
    """Mixed-Hamiltonian velocities and regular momentum rates at (q, p).

    Returns (qdot, p1dot, ``hs3_res``).  Constraint values are computed from
    the supplied momenta.
    """
    gauge = _resolve_gauge(gauge, ham.partition, ham.n)
    p1, p2 = ham.split_momenta(p)
    _, rhs = _ham_rhs(ham, gauge, q, p1, p2, include_r)
    y = checked_vector(q, ham.n, "q").tolist() + p1.tolist()
    *dy, (qdot, hs3_res, _) = rhs(True, *y)
    return np.array(qdot), np.array(dy[ham.n:]), hs3_res


def integrate_ham(
    ham: MixedHamiltonian,
    gauge,
    q0,
    p0,
    t_span,
    dt,
    enforce_primary=False,
    include_r=True,
):
    """Integrate the mixed Hamiltonian flow with fixed-step RK4.

    Only (q, p1) is integrated; p2 is reconstructed as Psi + Phi_0.  With
    ``enforce_primary`` the initial momenta must satisfy the primary
    constraints to within PRIMARY_TOL.
    """
    system, partition = ham.system, ham.partition
    n, k = system.n, partition.k
    gauge = _resolve_gauge(gauge, partition, n)
    t0, _, nsteps, h = _validate_span(t_span, dt)
    reg, nonreg = list(partition.regular), list(partition.nonregular)
    q = checked_vector(q0, n, "q0")
    p0 = checked_vector(p0, n, "p0")
    p1 = p0[reg]

    phi0, rhs = _ham_rhs(ham, gauge, q, p1, p0[nonreg], include_r)
    if enforce_primary and phi0.size and np.max(np.abs(phi0)) > PRIMARY_TOL:
        bad = ", ".join(
            f"phi_{j + 1} = {val:.6g}"
            for j, val in enumerate(phi0)
            if abs(val) > PRIMARY_TOL
        )
        raise PrimaryConstraintError(
            f"initial momenta violate the primary constraints: {bad} "
            f"(tolerance {PRIMARY_TOL:g})",
            phi0,
        )

    times, y, (v, hs3_res, lv) = _rk4(system, rhs, q.tolist() + p1.tolist(),
                                      t0, h, nsteps)
    # p1 is the state's, p2 = Psi + Phi_0 and Phi = p2 - Psi, as floats do
    p = np.empty_like(lv)
    p[:, reg] = y[:, n:]
    p[:, nonreg] = p2 = lv[:, nonreg] + phi0
    return Trajectory(times, y[:, :n], v, p, p2 - lv[:, nonreg],
                      np.full(times.size, np.nan), hs3_res, n, k,
                      partition.regular)


# --------------------------------------------------------------------------
# Trajectories
# --------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled flow with per-node diagnostics.

    Channels that are not native to the producing side hold NaN: the
    Euler-Lagrange integrator fills ``el_i2_res`` and leaves ``hs3_res``
    NaN, and vice versa.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray
    phi: np.ndarray
    el_i2_res: np.ndarray
    hs3_res: np.ndarray
    n: int
    k: int
    regular: tuple


class BoxExitError(Exception):
    """A trajectory left the declared box, where the rank partition is
    certified."""


def first_box_exit(traj: Trajectory, lo, hi):
    """The first node of ``traj`` with a q or v entry outside [lo, hi], the
    bounds aligned with the variable table (q1..qn, v1..vn): (t, index of
    the variable, its value), the lowest index at that node; None if every
    node lies inside."""
    x = np.concatenate([traj.q, traj.v], axis=1)
    outside = np.argwhere((x < lo) | (x > hi))
    if not outside.size:
        return None
    node, index = outside[0]  # row-major: the first node, then variable
    return float(traj.times[node]), int(index), float(x[node, index])


@dataclass(frozen=True)
class ComparisonReport:
    dq: float
    dv: float
    dp1: float
    max_discrepancy: float
    tol: float
    passed: bool


def compare_trajectories(a: Trajectory, b: Trajectory, tol=1e-6):
    """Sup-norm discrepancies over q, v and the regular momenta.

    The non-regular momenta are excluded: the two sides may legitimately
    differ there by the constant constraint offset chosen for the
    Hamiltonian initial data.
    """
    if a.n != b.n or a.k != b.k or tuple(a.regular) != tuple(b.regular):
        raise ValueError("trajectories come from different systems")
    if a.times.shape != b.times.shape or (
        float(np.max(np.abs(a.times - b.times))) > 1e-12
    ):
        raise ValueError("trajectories use different time grids")
    reg = list(a.regular)
    dq = float(np.max(np.abs(a.q - b.q)))
    dv = float(np.max(np.abs(a.v - b.v)))
    dp1 = float(np.max(np.abs(a.p[:, reg] - b.p[:, reg]))) if reg else 0.0
    worst = max(dq, dv, dp1)
    return ComparisonReport(dq, dv, dp1, worst, float(tol), worst <= tol)


# the defect each flow monitors at its nodes (see the module docstring)
MONITORS = {"el": "el_i2_res", "ham": "hs3_res"}


def flow_report(system: LagrangianSystem, trajectories, tol) -> dict:
    """The verdicts on ``trajectories``, {"el": ..., "ham": ...} with
    either flow or both, in that order.

    Each flow gets its nodes, max |phi| and the max of its monitor.  The
    gauge-fixed equations leave the non-regular rows unenforced, so the run
    is "consistency"-checked: it passes where the worst monitor stays
    within ``tol``.  Both flows together also get their "comparison".  A
    flow that leaves the declared box, where the partition holds, gets no
    verdict: ``BoxExitError`` names its first node outside.
    """
    report = {}
    names, lo, hi = qv_names(system.n), system.domain_lo, system.domain_hi
    for side, traj in trajectories.items():
        report[side] = {
            "nodes": int(traj.times.size),
            "max_abs_phi": float(np.max(np.abs(traj.phi)))
            if traj.phi.size else 0.0,
            f"max_{MONITORS[side]}":
                float(np.max(getattr(traj, MONITORS[side]))),
        }
        exit_ = first_box_exit(traj, lo, hi)
        if exit_ is not None:
            t, i, x = exit_
            raise BoxExitError(
                f"the {side} flow leaves the declared box at t = {t:.6g}: "
                f"{names[i]} = {x!r} outside [{lo[i]:g}, {hi[i]:g}]")
    worst = float(np.max([report[side][f"max_{MONITORS[side]}"]
                          for side in trajectories]))
    report["consistency"] = {"max_residual": worst, "tol": tol,
                             "passed": worst <= tol}
    if len(trajectories) == 2:
        report["comparison"] = asdict(compare_trajectories(
            trajectories["el"], trajectories["ham"], tol=tol))
    return report


def write_trajectory_csv(traj: Trajectory, path):
    """Write one trajectory as delimited text, 17 significant digits."""
    n, k = traj.n, traj.k
    names = qv_names(n)
    header = (
        ["t"]
        + list(names[:n])
        + list(names[n:])
        + [f"p{i + 1}" for i in range(n)]
        + [f"phi_{j + 1}" for j in range(n - k)]
        + ["el_i2_res", "hs3_res"]
    )
    table = np.column_stack([traj.times, traj.q, traj.v, traj.p, traj.phi,
                             traj.el_i2_res, traj.hs3_res])
    text = ",".join(header) + "\n" + format_table(table)
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def format_table(table, *texts) -> str:
    """The rows of the float array ``table`` as comma-separated lines, each
    value as ``%.17g``, followed by the row's entry of each text column of
    ``texts`` as ``%s``.

    One format runs over the whole table.  A column whose entries all have
    one bit pattern (compared as int64, so 0.0 and -0.0 differ, and so do
    NaNs of other sign or payload) is formatted once, into the row
    template, with the same ``%.17g``."""
    count, width = table.shape
    if not count:
        return ""
    bits = table.view(np.int64)
    fixed = (bits == bits[0]).all(axis=0)
    template = ",".join(
        ["%.17g" % x if f else "%.17g"
         for x, f in zip(table[0].tolist(), fixed.tolist())]
        + ["%s"] * len(texts)) + "\n"
    values = table[:, ~fixed]
    if texts:
        values = itertools.chain.from_iterable(
            row + list(t) for row, t in zip(values.tolist(), zip(*texts)))
    else:
        values = values.ravel().tolist()
    return template * count % tuple(values)
