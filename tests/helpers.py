"""Shared test utilities: finite-difference oracles and random generators.

The FD oracle is two-stage on purpose.  Gradients are checked against central
differences of plain values (step h); Hessians are checked against central
differences of the already-validated gradient.  One-stage second differences
at h = 1e-5 carry roundoff noise ~ eps/h^2 ~ 1e-6, which sits exactly at the
tolerance being certified and can therefore certify nothing.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from hypothesis import strategies as st

from legclair import clairaut, expr
from legclair.dynamics import NonFiniteStateError, Trajectory
from legclair.expr import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    eval_dual2,
    evaluate,
)

FD_STEP = 1e-5


def fd_gradient(f, x, h=FD_STEP):
    """Central-difference gradient of a scalar callable."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def fd_jacobian(g, x, h=FD_STEP):
    """Central-difference Jacobian of a vector callable (used on gradients)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        cols.append((np.asarray(g(x + step)) - np.asarray(g(x - step))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def ad_gradient(expr, point, active=None):
    return eval_dual2(expr, point, active).grad


def fd_hessian(f, x, h=1e-4):
    """One-stage central second differences of a scalar callable.

    Noisier than the two-stage oracle (~1e-8 absolute at h = 1e-4); use it
    only where no exact gradient of ``f`` is available, with tolerances to
    match.
    """
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
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return out


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    return diff / scale


def check_expr_against_fd(expr, point, tol=1e-6, h=FD_STEP):
    """Assert AD gradient/Hessian match the two-stage FD oracle at ``point``."""
    point = np.asarray(point, dtype=float)
    d = eval_dual2(expr, point)
    g_fd = fd_gradient(lambda x: evaluate(expr, x), point, h)
    assert rel_err(d.grad, g_fd) <= tol, (
        f"gradient mismatch {rel_err(d.grad, g_fd):.3e} for '{expr.source}' at {point}"
    )
    h_fd = fd_jacobian(lambda x: ad_gradient(expr, x), point, h)
    assert rel_err(d.hess, h_fd) <= tol, (
        f"Hessian mismatch {rel_err(d.hess, h_fd):.3e} for '{expr.source}' at {point}"
    )


# --------------------------------------------------------------------------
# The arithmetic contract of the outputs, on arrays
# --------------------------------------------------------------------------
#
# legclair defines its output bits by float operations in a fixed order.
# These references spell the same order out on numpy arrays, apart from the
# library's bodies, for the oracles that follow it.

def lr_dot(a, b):
    """``a @ b`` for 1-D and 2-D arrays, with every entry summed left to
    right as 0.0 + a_1 b_1 + a_2 b_2 + ..., one rounding per operation."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows = a if a.ndim == 2 else a[None, :]
    cols = b if b.ndim == 2 else b[:, None]
    out = np.zeros((rows.shape[0], cols.shape[1]))
    for term in range(rows.shape[1]):
        out = out + rows[:, term, None] * cols[None, term, :]
    if b.ndim == 1:
        out = out[:, 0]
    return out[0] if a.ndim == 1 else out


def gepp_solve(a, b):
    """The solution of ``a x = b`` (b 1-D, or 2-D with one column per
    system) by Gaussian elimination with partial pivoting: the pivot is the
    first entry of largest magnitude on or below the diagonal, multipliers
    are true quotients, updates are x - f*y, and back substitution
    subtracts the known unknowns in ascending order before it divides.
    Like LAPACK, it prints no warning where a step overflows."""
    x = np.array(b, dtype=float)
    vector = x.ndim == 1
    if vector:
        x = x[:, None]
    k, m = x.shape
    # rows of numpy float scalars, which round as array entries do
    a = [list(row) for row in np.array(a, dtype=float)]
    x = [list(row) for row in x]
    with np.errstate(all="ignore"):
        for c in range(k - 1):
            p = c + int(np.argmax([abs(row[c]) for row in a[c:]]))
            a[c], a[p] = a[p], a[c]
            x[c], x[p] = x[p], x[c]
            for r in range(c + 1, k):
                f = a[r][c] / a[c][c]
                a[r][c + 1:] = [y - f * z for y, z in zip(a[r][c + 1:],
                                                          a[c][c + 1:])]
                x[r] = [y - f * z for y, z in zip(x[r], x[c])]
        for i in reversed(range(k)):
            for j in range(i + 1, k):
                x[i] = [y - a[i][j] * z for y, z in zip(x[i], x[j])]
            x[i] = [y / a[i][i] for y in x[i]]
    x = np.array(x, dtype=float).reshape(k, m)
    return x[:, 0] if vector else x


def reference_newton(solver, q, p1, c2, v1_guess=None):
    """The envelope Newton of ``solver`` at one point, written apart from
    ``clairaut``'s: every iterate is evaluated afresh by ``eval_dual2``,
    W11 is checked by its SVD and the step is :func:`gepp_solve`.  Returns
    V, or raises the error ``EnvelopeSolver.solve`` raises."""
    system, part = solver.system, solver.partition
    n, active = system.n, list(solver._v1_active)
    p1 = np.asarray(p1, dtype=float)
    at = np.empty(2 * n)  # (q, v), v2 = c2 and v1 set by point()
    at[:n] = q
    at[[n + i for i in part.nonregular]] = c2

    def point(v1):
        x = at.copy()
        x[active] = v1
        return x

    v1 = (
        np.array(v1_guess, dtype=float)
        if v1_guess is not None else solver.default_guess()
    )
    history = []
    for _ in range(solver.max_iter):
        d = eval_dual2(system.lagrangian, point(v1), solver._v1_active)
        r = p1 - d.grad
        rnorm = float(np.abs(r).max())
        history.append(rnorm)
        if rnorm <= solver.newton_tol:
            return v1
        sv = np.linalg.svd(d.hess, compute_uv=False)
        if sv[-1] <= part.rank_tolerance * max(sv[0], 1.0):
            raise clairaut.SingularJacobianError(
                f"W11 is singular at Newton iterate v1={v1.tolist()} "
                f"(smallest singular value {sv[-1]:.3e})"
            )
        delta = gepp_solve(d.hess, r)
        alpha = 1.0
        for _ in range(solver.max_backtracks + 1):
            trial = v1 + alpha * delta
            try:
                d_trial = eval_dual2(
                    system.lagrangian, point(trial), solver._v1_active
                )
            except EvalDomainError:
                # a finite trial outside L's domain is a rejected trial
                if not np.all(np.isfinite(trial)):
                    raise
            else:
                if float(np.abs(p1 - d_trial.grad).max()) < rnorm:
                    break
            alpha *= 0.5
        else:
            raise clairaut.NewtonDivergedError(
                "backtracking could not reduce the envelope residual", history
            )
        v1 = trial
    raise clairaut.NewtonDivergedError(
        f"no convergence within {solver.max_iter} Newton iterations", history
    )


def solve_velocity(ham, q, p1, v2, v1_guess=None):
    """``ham.solve_velocity`` for the sample-by-sample oracles, on
    :func:`reference_newton`: the same argument checks and guess, and
    ``zeros(0)`` for k = 0."""
    q, p1, v2 = ham.solver._checked(q, p1, v2)
    if not p1.size:
        return np.zeros(0)
    if v1_guess is not None:
        v1_guess = np.broadcast_to(np.asarray(v1_guess, dtype=float),
                                   p1.shape)
    return reference_newton(ham.solver, q, p1, v2, v1_guess)


def abs_det(a) -> float:
    """|det| of k float rows: the product, left to right, of the pivots
    that ``clairaut._eliminate`` leaves, so its bits depend on the rows
    alone; 0.0 where a pivot column is zero (Python's ``/`` raises).  The
    float form of ``clairaut.abs_det_many``."""
    a = [list(row) for row in a]
    try:
        clairaut._eliminate(a, [], clairaut._pivot_floats)
    except ZeroDivisionError:
        return 0.0
    det = 1.0
    for i, row in enumerate(a):
        det = det * row[i]
    return abs(det)


def hessian(system, q, v) -> np.ndarray:
    """Velocity Hessian W(q, v) = d2L/dv dv of one point, by ``eval_dual2``."""
    x = system.point(q, v)
    active = range(system.n, 2 * system.n)
    return eval_dual2(system.lagrangian, x, active).hess


def alloc_trajectory(nsteps, n, k, regular) -> Trajectory:
    """An empty trajectory of nsteps + 1 nodes, both residual channels NaN,
    for the hand-built trajectories of the reference integrators and tests."""
    nodes = nsteps + 1
    return Trajectory(
        times=np.empty(nodes),
        q=np.empty((nodes, n)),
        v=np.empty((nodes, n)),
        p=np.empty((nodes, n)),
        phi=np.empty((nodes, n - k)),
        el_i2_res=np.full(nodes, np.nan),
        hs3_res=np.full(nodes, np.nan),
        n=n,
        k=k,
        regular=tuple(regular),
    )


def rk4_list_driver(rhs, y0, t0, h, nsteps, record):
    """The list-comprehension RK4 driver both flows ran before the loop was
    generated per state length, kept as the reference for
    ``dynamics._rk4``: ``record(i, t, y, info)`` stores node i from its
    first stage, and an error raised in step i gets ``step``/``t`` and
    "at RK4 step i (t = ...)"."""
    y = y0
    half, sixth = 0.5 * h, h / 6.0
    for i in range(nsteps + 1):
        t = t0 + i * h
        try:
            *k1, info = rhs(True, *y)
            record(i, t, y, info)
            if i == nsteps:
                break
            *k2, _ = rhs(False, *[a + half * b for a, b in zip(y, k1)])
            *k3, _ = rhs(False, *[a + half * b for a, b in zip(y, k2)])
            *k4, _ = rhs(False, *[a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y)):
                raise NonFiniteStateError("overflow to a non-finite state")
        except (EvalDomainError, clairaut.SingularJacobianError,
                clairaut.NewtonDivergedError, NonFiniteStateError) as exc:
            exc.step, exc.t = i, t
            exc.args = (f"{exc} at RK4 step {i} (t = {t:.6g})",)
            raise


# --------------------------------------------------------------------------
# Random sources
# --------------------------------------------------------------------------

def random_polynomial_source(rng, names, max_degree=4, max_terms=5):
    """A random polynomial source string of total degree <= max_degree."""
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        coeff = round(float(rng.uniform(-2.0, 2.0)), 3)
        if coeff == 0.0:
            coeff = 1.0
        degrees = np.zeros(len(names), dtype=int)
        for _ in range(int(rng.integers(0, max_degree + 1))):
            degrees[rng.integers(0, len(names))] += 1
        factors = [repr(abs(coeff))]
        for name, d in zip(names, degrees):
            if d == 1:
                factors.append(name)
            elif d > 1:
                factors.append(f"{name}^{d}")
        term = "*".join(factors)
        terms.append(("-" if coeff < 0 else "+") + term)
    src = terms[0].lstrip("+") if terms[0][0] == "+" else terms[0]
    for t in terms[1:]:
        src += t
    return src


def random_smooth_source(rng, names):
    """A random C-infinity expression, safe on the box [-1, 1]^d."""
    def linear():
        a = round(float(rng.uniform(-1.5, 1.5)), 3)
        b = round(float(rng.uniform(-1.0, 1.0)), 3)
        name = names[rng.integers(0, len(names))]
        return f"({a!r}*{name}+{b!r})"

    def part():
        kind = rng.integers(0, 7)
        if kind == 0:
            return random_polynomial_source(rng, names, max_degree=3, max_terms=2)
        if kind == 1:
            return f"sin({linear()})"
        if kind == 2:
            return f"cos({linear()})"
        if kind == 3:
            return f"exp(0.5*{linear()})"
        if kind == 4:
            name = names[rng.integers(0, len(names))]
            return f"ln(2+{name}^2)"
        if kind == 5:
            name = names[rng.integers(0, len(names))]
            return f"sqrt(2+{name}^2)"
        name = names[rng.integers(0, len(names))]
        return f"{linear()}/(2+{name}^2)"

    parts = [part() for _ in range(int(rng.integers(2, 5)))]
    src = parts[0]
    for p in parts[1:]:
        src += ("+" if rng.integers(0, 2) else "-") + p
    return src


def random_tree(rng, names, depth=3):
    """A random AST built directly from node constructors (for round-trips)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            v = float(rng.integers(0, 5)) if rng.random() < 0.5 else round(
                float(rng.uniform(0.0, 3.0)), 3
            )
            return Num(v)
        i = int(rng.integers(0, len(names)))
        return Var(i, names[i])
    kind = rng.integers(0, 8)
    if kind == 0:
        return Neg(random_tree(rng, names, depth - 1))
    if kind == 1:
        fn = ("sin", "cos", "tan", "exp", "ln", "sqrt")[rng.integers(0, 6)]
        return Call(fn, random_tree(rng, names, depth - 1))
    if kind == 2:
        expo = float(rng.choice([2.0, 3.0, 4.0, -2.0, 0.5, -0.5]))
        return Pow(random_tree(rng, names, depth - 1), expo)
    ctor = (Add, Sub, Mul, Div)[rng.integers(0, 4)]
    return ctor(
        random_tree(rng, names, depth - 1), random_tree(rng, names, depth - 1)
    )


# random trees over (q1, q2): the grammar of gauges, and of the q-dependent
# coefficients of the Newton tests' Lagrangians
gauge_trees = st.recursive(
    st.one_of(
        st.builds(Num, st.sampled_from((0.0, 0.5, 1.0, 3.0))
                  | st.floats(-4.0, 4.0, allow_nan=False)),
        st.sampled_from((Var(0, "q1"), Var(1, "q2"))),
    ),
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        st.builds(Pow, kids, st.sampled_from((1.0, 2.0, 3.0, -1.0, 0.5))),
        *(st.builds(ctor, kids, kids) for ctor in (Add, Sub, Mul, Div)),
    ),
    max_leaves=8,
)


def record_svd_calls(monkeypatch):
    """The arrays ``np.linalg.svd`` receives while the test runs, appended as
    (array, whether a W11 check, ``check_w11`` or ``singular_lanes``, is
    among its callers)."""
    calls = []
    svd = np.linalg.svd
    checks = ("check_w11", "singular_lanes")

    def counted(a, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in checks:
            frame = frame.f_back
        calls.append((np.array(a), frame is not None))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def record_kernel_compiles(monkeypatch):
    """The kernels generated while the test runs, appended as (filename,
    active, source).  The filename names the kind: ``<legclair kernel>``
    (scalar), ``<legclair stacked kernel>``, ``<legclair stage kernel>``
    (a flow's stage, the Hamiltonian one with its envelope Newton inline)
    or ``<legclair rk4 loop>``; ``active`` is the tuple of variable indices
    the kernel differentiates against, None for a value-only one."""
    compiles = []
    build = expr._Codegen.build

    def recording(cg, src, filename):
        active = None if cg.value_only else tuple(cg.slot)
        compiles.append((filename, active, "\n".join(src)))
        return build(cg, src, filename)

    monkeypatch.setattr(expr._Codegen, "build", recording)
    return compiles


def record_eval_dual2_calls(monkeypatch):
    """The (source, active) of every scalar ``eval_dual2`` call while the
    test runs, through every binding a ``legclair`` module holds."""
    calls = []
    original = expr.eval_dual2

    def counted(e, point, active=None):
        calls.append((e.source, active))
        return original(e, point, active)

    for name, module in list(sys.modules.items()):
        if name == "legclair" or name.startswith("legclair."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def record_lanes(monkeypatch):
    """Every envelope lane solve while the test runs: every one, of
    ``solve_lanes`` or of the inverse transform, runs through
    ``EnvelopeSolver._solve_columns``, which takes lane columns.  Returns
    (calls, lanes), appended as the solver meets them: ``calls`` gets
    (rows, warm) for each call, warm when it has a guess, and
    ``lanes[warm]`` the (q, p1, c2) row of each cold lane, or the (q, p1,
    c2, guess) row of each warm one."""
    calls, lanes = [], {False: [], True: []}
    solve_columns = clairaut.EnvelopeSolver._solve_columns

    def counted(self, point, p1, v1=None):
        warm = v1 is not None
        calls.append((point.shape[1], warm))
        cols = [*point[:self.system.n], *p1, *point[self._v2_cols],
                *(v1 if warm else ())]
        lanes[warm].extend(map(tuple, np.array(cols).T.tolist()))
        return solve_columns(self, point, p1, v1)

    monkeypatch.setattr(clairaut.EnvelopeSolver, "_solve_columns", counted)
    return calls, lanes


def set_chunk_rows(monkeypatch, rows):
    """Make ``analyze``, ``transform`` and ``verify`` evaluate ``rows`` rows
    per chunk: every chunked loop reads ``clairaut.CHUNK_ROWS``."""
    monkeypatch.setattr(clairaut, "CHUNK_ROWS", rows)
