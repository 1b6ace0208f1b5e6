"""The envelope maps against closed forms.

The family is L = ½ vᵀMᵀDMv + b(q)·v − U(q) with n ≤ 3, where:

- M = [I_k | C(q)], with its velocity columns permuted;
- D is a positive k×k diagonal;
- every entry of C, b and U is a sum of terms a·f(w·q_j), with f one of 1,
  q, q², sin and cos, and a, w and D dyadic, so each literal is the same
  number in the library and in sympy.

The velocity Hessian A = MᵀDM has rank k everywhere.  Let R be the regular
set the partition picks and N the rest, and take A, b = ∂L/∂v at v = 0 and
U = −L at v = 0 from sympy.  The maps are then

    V  = A_RR⁻¹ (p1 − b_R − A_RN c2)
    Ψ  = A_NR A_RR⁻¹ (p1 − b_R) + b_N
    H0 = ½ (p1 − b_R)ᵀ A_RR⁻¹ (p1 − b_R) + U
    H  = H0 + v2·(p2 − Ψ)

Rank k makes A_NN = A_NR A_RR⁻¹ A_RN, so Ψ and H0 do not depend on c2.  The
forms are evaluated in 50-digit arithmetic and compared with V, Ψ and H0 of
``envelope_many`` (at the default probe and at drawn ones) and H of
``value_many``.

The bounds, with u = 2⁻⁵³ and everything componentwise:

- Evaluation.  With |w| ≤ 1 and |q_j| ≤ 1, sin and cos have condition at
  most 1.6, so a term is within 6u of its value.  Every quantity a kernel
  forms is a sum of products of terms, point entries and constants, so it
  lies within γ = m·u / (1 − m·u) of its absolute evaluation |X|: every
  factor by its absolute value, every difference as a sum (Higham,
  *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3.1).  Here m
  = ``ROUNDINGS`` caps the roundings along any path of these n ≤ 3 forms.
- V.  The solver returns V once its float residual r = p1 − ∂L/∂v1(V) has
  |r|∞ ≤ newton_tol.  The exact residual is A_RR (V* − V), so |V − V*| ≤
  |A_RR⁻¹| (newton_tol + γ |r|) =: e.
- Ψ = ∂L/∂v2 is linear in V with slope A_NR: |Ψ − Ψ*| ≤ |A_NR| e + γ |Ψ|.
- H0, as a function of V, has the gradient A_RN c2 at V* and the Hessian
  −A_RR: |H0 − H0*| ≤ |A_RN c2|·e + ½ eᵀ|A_RR| e + γ |H0|.
- H is stationary in V at V*: |H − H*| ≤ ½ eᵀ|A_RR| e + γ |H|.

A failure is a defect of the library, never a reason to widen a bound.
"""

import contextlib
import io
import json
import os
import tempfile

import mpmath
import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from legclair import cli
from legclair.clairaut import MixedHamiltonian, analyze_report, transform_table
from legclair.partition import LagrangianSystem, qv_names

ROUNDINGS = 64
GAMMA = ROUNDINGS * 2.0 ** -53 / (1 - ROUNDINGS * 2.0 ** -53)
mpmath.mp.dps = 50


def dyadic(rng, lo, hi):
    """A random multiple of 1/64 in [lo, hi]: its repr is exact."""
    return int(rng.integers(round(lo * 64), round(hi * 64) + 1)) / 64


def random_terms(rng, n, most):
    """1 to ``most`` term sources a*f(w*q_j)."""
    terms = []
    for _ in range(int(rng.integers(1, most + 1))):
        a, w = dyadic(rng, -1.5, 1.5), dyadic(rng, -1.0, 1.0)
        q = f"q{int(rng.integers(1, n + 1))}"
        f = ["1", q, f"{q}^2", f"sin({w!r}*{q})", f"cos({w!r}*{q})"]
        terms.append(f"{a!r}*{f[int(rng.integers(0, 5))]}")
    return terms


def random_family(seed):
    """(n, k, source, d, m, b, u) of one member of the family: D's
    diagonal, and as lists of term sources the entries of M (by row), of
    b (by velocity) and U."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    k = int(rng.integers(1, n + 1))
    order = rng.permutation(n)  # M's columns: I_k, then C
    d = [dyadic(rng, 0.5, 2.0) for _ in range(k)]
    c = [[random_terms(rng, n, 1) for _ in range(n - k)] for _ in range(k)]
    b = [random_terms(rng, n, 2) for _ in range(n)]
    u = random_terms(rng, n, 3)
    squares = []
    for a in range(k):
        row = [f"v{order[a] + 1}"] + [
            f"({' + '.join(c[a][m])})*v{order[k + m] + 1}"
            for m in range(n - k)]
        squares.append(f"0.5*{d[a]!r}*({' + '.join(row)})^2")
    linear = [f"({' + '.join(terms)})*v{i + 1}" for i, terms in enumerate(b)]
    source = " + ".join(squares + linear) + f" - ({' + '.join(u)})"
    # the entries of M as term lists: 1 on the identity columns
    m = [[[] for _ in range(n)] for _ in range(k)]
    for a in range(k):
        m[a][order[a]] = ["1"]
        for j in range(n - k):
            m[a][order[k + j]] = c[a][j]
    return n, k, source, d, m, b, u


def sympy_form(source, names):
    return sympy.sympify(source.replace("^", "**"),
                         locals={x: sympy.Symbol(x) for x in names})


class ClosedForm:
    """The family member's A, b and U from sympy, and the absolute
    evaluations of its terms, at any q in 50 digits."""

    def __init__(self, n, source, d, m, b, u):
        names = qv_names(n)
        q, v = [sympy.Symbol(x) for x in names[:n]], \
            [sympy.Symbol(x) for x in names[n:]]
        lag = sympy_form(source, names)
        at_rest = {x: 0 for x in v}
        grad = [sympy.diff(lag, x) for x in v]
        self.n, self.d = n, [mpmath.mpf(x) for x in d]
        self.a = sympy.lambdify(q, sympy.hessian(lag, v), "mpmath")
        self.b = sympy.lambdify(q, [g.subs(at_rest) for g in grad], "mpmath")
        self.u = sympy.lambdify(q, -lag.subs(at_rest), "mpmath")

        def absolute(terms):
            exprs = [sympy.Abs(sympy_form(t, names)) for t in terms]
            return sympy.lambdify(q, sum(exprs, sympy.Integer(0)), "mpmath")

        self.m_abs = [[absolute(entry) for entry in row] for row in m]
        self.b_abs = [absolute(terms) for terms in b]
        self.u_abs = absolute(u)

    def at(self, q):
        """(A, b, U, |M|, |b|, |U|) at q, in 50 digits."""
        q = [mpmath.mpf(x) for x in q]
        return (mpmath.matrix(self.a(*q)), list(self.b(*q)), self.u(*q),
                [[f(*q) for f in row] for row in self.m_abs],
                [f(*q) for f in self.b_abs], self.u_abs(*q))


def velocity(v1, c2, reg, nonreg):
    """The velocity (V, c2) in 50 digits, in index order."""
    v = [None] * (len(v1) + len(c2))
    for i, x in zip(reg, v1):
        v[i] = mpmath.mpf(float(x))
    for i, x in zip(nonreg, c2):
        v[i] = mpmath.mpf(float(x))
    return v


def absolutes(form, m_abs, b_abs, u_abs, v):
    """|dL/dv| by velocity and |L| at v: the absolute evaluations."""
    weighted = [sum(abs(mij) * abs(vj) for mij, vj in zip(row, v))
                for row in m_abs]
    grad = [sum(da * row[i] * w for da, row, w in zip(form.d, m_abs, weighted))
            + b_abs[i] for i in range(form.n)]
    lag = (sum(da * w * w for da, w in zip(form.d, weighted)) / 2
           + sum(bi * abs(vi) for bi, vi in zip(b_abs, v)) + u_abs)
    return grad, lag


class RowForms:
    """The closed forms at one point (q, p1) of a family member, and the
    checks of the library's V, Psi, H0 and H there against them and their
    bounds; ``where`` names the point in a failure."""

    def __init__(self, form, reg, nonreg, tol, q, p1, where):
        self.form, self.reg, self.nonreg, self.tol = form, reg, nonreg, tol
        self.where = where
        a, bq, uq, self.m_abs, self.b_abs, self.u_abs = form.at(q)
        self.a = a
        self.a_rr = mpmath.matrix([[a[i, j] for j in reg] for i in reg])
        a_nr = mpmath.matrix([[a[i, j] for j in reg] for i in nonreg]) \
            if nonreg else None
        self.inv = mpmath.inverse(self.a_rr)
        self.p1r = [mpmath.mpf(float(x)) for x in p1]
        self.shift = mpmath.matrix([self.p1r[i] - bq[r]
                                    for i, r in enumerate(reg)])
        self.psi_star = ([(a_nr * self.inv * self.shift)[i] + bq[r]
                          for i, r in enumerate(nonreg)] if nonreg else [])
        self.h0_star = (self.shift.T * self.inv * self.shift)[0] / 2 + uq

    def error_bound(self, v1, c2):
        """e, by regular index: the bound on |V - V*| at (v1, c2)."""
        v = velocity(v1, c2, self.reg, self.nonreg)
        grad, _ = absolutes(self.form, self.m_abs, self.b_abs, self.u_abs, v)
        r = [abs(x) + grad[i] for x, i in zip(self.p1r, self.reg)]
        k = len(self.reg)
        return [sum(abs(self.inv[i, j]) * (self.tol + GAMMA * r[j])
                    for j in range(k)) for i in range(k)]

    def curvature(self, e):
        k = len(self.reg)
        return sum(e[i] * abs(self.a_rr[i, j]) * e[j]
                   for i in range(k) for j in range(k)) / 2

    def check_envelope(self, v1, psi, h0, c2):
        """V, Psi and H0 of the envelope at the probe c2."""
        a, reg, nonreg, where = self.a, self.reg, self.nonreg, self.where
        c2m = [mpmath.mpf(float(x)) for x in c2]
        # A_RN c2: V*'s shift by the probe, and H0's slope in V at V*
        slope = [sum(a[r, j] * x for j, x in zip(nonreg, c2m)) for r in reg]
        v_star = self.inv * (self.shift - mpmath.matrix(slope))
        e = self.error_bound(v1, c2)
        for i in range(len(reg)):
            assert abs(v1[i] - v_star[i]) <= e[i], (where, i)
        v = velocity(v1, c2, reg, nonreg)
        grad, lag = absolutes(self.form, self.m_abs, self.b_abs, self.u_abs,
                              v)
        for i, r in enumerate(nonreg):
            bound = (sum(abs(a[r, j]) * e[jj] for jj, j in enumerate(reg))
                     + GAMMA * grad[r])
            assert abs(psi[i] - self.psi_star[i]) <= bound, where
        h0_abs = (sum(abs(x) * abs(y) for x, y in zip(self.p1r, v1))
                  + sum(abs(x) * grad[r] for x, r in zip(c2m, nonreg))
                  + lag)
        bound = (sum(abs(s) * ei for s, ei in zip(slope, e))
                 + self.curvature(e) + GAMMA * h0_abs)
        assert abs(h0 - self.h0_star) <= bound, where

    def check_value(self, v1, v2, p2, h):
        """H at v2 and p2, at the V of its own solve."""
        e = self.error_bound(v1, v2)
        v = velocity(v1, v2, self.reg, self.nonreg)
        _, lag = absolutes(self.form, self.m_abs, self.b_abs, self.u_abs, v)
        v2m = [mpmath.mpf(float(x)) for x in v2]
        p2m = [mpmath.mpf(float(x)) for x in p2]
        h_star = self.h0_star + sum(x * (y - z) for x, y, z in
                                    zip(v2m, p2m, self.psi_star))
        h_abs = (sum(abs(x) * abs(y) for x, y in zip(self.p1r, v1))
                 + sum(abs(x) * abs(y) for x, y in zip(p2m, v2m)) + lag)
        assert abs(h - h_star) <= self.curvature(e) + GAMMA * h_abs, \
            self.where


def family_member(seed):
    """(n, k, source, the member's box system, its ClosedForm)."""
    n, k, source, d, m, b, u = random_family(seed)
    system = LagrangianSystem.from_source(
        n, source, {name: (-1.0, 1.0) for name in qv_names(n)})
    return n, k, source, system, ClosedForm(n, source, d, m, b, u)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_envelope_maps_match_the_closed_forms(seed):
    n, k, source, system, form = family_member(seed)
    ham = MixedHamiltonian.from_system(system)
    assert ham.k == k, source
    reg, nonreg = list(ham.partition.regular), list(ham.partition.nonregular)
    tol = ham.solver.newton_tol

    rng = np.random.default_rng(seed)
    rows = 4
    q = rng.uniform(-1.0, 1.0, (rows, n))
    p = rng.uniform(-2.0, 2.0, (rows, n))
    v2 = rng.uniform(-1.0, 1.0, (rows, n - k))
    probe = rng.uniform(-1.0, 1.0, (rows, n - k))
    p1 = p[:, reg]
    h = ham.value_many(q, p, v2)
    v_h = ham.solver.solve_many(q, p1, v2)
    maps = [(None, ham.envelope_many(q, p1)),
            (probe, ham.envelope_many(q, p1, probe))]

    for row in range(rows):
        forms = RowForms(form, reg, nonreg, tol, q[row], p1[row],
                         (source, row))
        for given_probe, (v1, psi, h0) in maps:
            c2 = (ham.default_probe() if given_probe is None
                  else given_probe[row])
            forms.check_envelope(v1[row], psi[row], h0[row], c2)
        forms.check_value(v_h[row], v2[row], p[row, nonreg], h[row])


def run_cli(argv):
    """The stdout of a command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue()


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_command_reports_match_the_closed_forms(seed):
    # the analyze report's constraint samples and the transform table, as
    # the library returns them and as the commands render them
    n, k, source, system, form = family_member(seed)
    names = qv_names(n)
    ham = MixedHamiltonian.from_system(system)
    reg, nonreg = list(ham.partition.regular), list(ham.partition.nonregular)
    tol = ham.solver.newton_tol
    report = analyze_report(ham, seed, 4)
    assert report["k"] == k, source
    assert report["regular"] == [names[n + i] for i in reg]
    assert report["unresolved"] == [names[n + i] for i in nonreg]
    probe = ham.default_probe()
    for row, s in enumerate(report["constraint_samples"]):
        q, p1, p2 = (np.array(s[key]) for key in ("q", "p1", "p2"))
        # the V the report's samples were formed at: a row solves alone
        v1 = ham.solver.solve_many(q[None], p1[None], probe[None])[0]
        forms = RowForms(form, reg, nonreg, tol, q, p1, (source, row))
        forms.check_envelope(v1, s["psi"], s["h_zero"], probe)
        assert s["phi"] == (p2 - np.array(s["psi"])).tolist(), source

    grids = [("q1", np.array([-0.75, 0.5])),
             (f"p{reg[0] + 1}", np.array([-1.5, 0.25, 1.0]))]
    grids += [(names[n + i], np.array([-0.5, 0.75])) for i in nonreg[:1]]
    header, table, status = transform_table(ham, grids)
    assert status == ["ok"] * len(table), source
    for row, x in enumerate(table):
        q, p, v2 = x[:n], x[n:2 * n], x[2 * n:3 * n - k]
        h, h0, phi = x[3 * n - k], x[3 * n - k + 1], x[3 * n - k + 2:]
        v1 = ham.solver.solve_many(q[None], p[None, reg], v2[None])[0]
        psi, _ = ham.envelope_at(q[None], p[None, reg], v2[None], v1[None])
        forms = RowForms(form, reg, nonreg, tol, q, p[reg], (source, row))
        forms.check_envelope(v1, psi[0], h0, v2)
        forms.check_value(v1, v2, p[nonreg], h)
        assert phi.tolist() == (p[nonreg] - psi[0]).tolist(), source

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump({"n": n, "lagrangian": source,
                       "domain": {name: [-1.0, 1.0] for name in names}}, fh)
        rendered = run_cli(["--json", "--seed", str(seed), "analyze", path,
                            "--points", "4"])
        specs = [f"{name}=" + ",".join(map(repr, values.tolist()))
                 for name, values in grids]
        csv = run_cli(["transform", path]
                      + [a for spec in specs for a in ("--grid", spec)])
    assert json.loads(rendered) == report
    lines = csv.splitlines()
    assert lines[0].split(",") == header
    assert [line.split(",")[-1] for line in lines[1:]] == status
    # every float is written as %.17g, which reads back to its bits
    assert np.array([[float(x) for x in line.split(",")[:-1]]
                     for line in lines[1:]]).tobytes() == table.tobytes()
