"""Command-line interface.

Problems are JSON files::

    {
      "n": 2,
      "lagrangian": "0.5*(v1+v2)^2",
      "domain": {"q1": [-2, 2], "v2": [-1, 1]},
      "gauge": {"v2": "1.0"},
      "initial": {"q": [0.0, 0.0], "v": [1.0, 1.0]},
      "integrate": {"t0": 0.0, "t1": 1.0, "dt": 0.001,
                    "enforce_primary": true},
      "verify": {"samples": 200, "seed": 0}
    }

``n`` and ``lagrangian`` are required.  ``domain`` entries default to
[-2, 2] per coordinate.  ``gauge`` must fix exactly the unresolved
velocities (found by ``analyze``) and is only needed by ``integrate``.
``initial`` takes ``q`` plus either a full velocity vector ``v`` or a full
momentum vector ``p``.

Subcommands:

* ``analyze``    - rank/partition report and sampled constraint values
* ``transform``  - tabulate H, the reduced H0, and the constraints over grids
* ``integrate``  - run one or both gauge-fixed flows, write CSV trajectories
* ``verify``     - run the numerical property suite against the system

Exit codes: 0 success; 2 problem-file or expression errors; 3 inconsistent
Hessian rank over the domain; 4 solver failures (including rejected initial
data); 5 out-of-domain requests; 6 flow-equivalence failure; 7 property
failures from ``verify``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
)
from .dynamics import (
    GaugeChoice,
    NonFiniteStateError,
    PrimaryConstraintError,
    _validate_span,
    compare_trajectories,
    integrate_el,
    integrate_ham,
    write_trajectory_csv,
)
from .expr import EvalDomainError, ParseError, eval_dual2
from .partition import (
    LagrangianSystem,
    NoValidMinorError,
    RankNotConstantError,
    qv_names,
)
from .verify import run_property_suite

EXIT_OK = 0
EXIT_PROBLEM = 2
EXIT_RANK = 3
EXIT_SOLVER = 4
EXIT_DOMAIN = 5
EXIT_EQUIV = 6
EXIT_VERIFY = 7

VERIFY_DEFAULTS = {
    "samples": 200,
    "seed": 0,
    "tol_residual": 1e-6,
    "tol_involution": 1e-7,
    "tol_equiv": 1e-6,
}


class ProblemError(Exception):
    """The problem file is malformed or semantically invalid."""


class OutOfDomainError(Exception):
    """Requested data lies outside the declared coordinate boxes."""


# --------------------------------------------------------------------------
# problem loading
# --------------------------------------------------------------------------

@dataclass
class Problem:
    system: LagrangianSystem
    gauge_sources: dict
    initial: dict
    integrate: dict
    verify: dict


def _require(cond, message):
    if not cond:
        raise ProblemError(message)


def load_problem(path) -> Problem:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemError(f"problem file is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "problem file must hold a JSON object")
    known = {"n", "lagrangian", "domain", "gauge", "initial", "integrate",
             "verify"}
    for key in raw:
        _require(key in known, f"unknown problem key {key!r}")
    _require("n" in raw, "problem key 'n' is required")
    _require("lagrangian" in raw, "problem key 'lagrangian' is required")
    n = raw["n"]
    _require(isinstance(n, int) and n >= 1, "'n' must be a positive integer")
    src = raw["lagrangian"]
    _require(isinstance(src, str), "'lagrangian' must be a string")

    domain = raw.get("domain", {})
    _require(isinstance(domain, dict), "'domain' must be an object")
    for name, pair in domain.items():
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, (int, float)) for x in pair),
            f"domain entry {name!r} must be [lo, hi]",
        )
    try:
        system = LagrangianSystem.from_source(n, src, domain)
    except ValueError as exc:
        raise ProblemError(str(exc)) from exc

    gauge_sources = raw.get("gauge", {})
    _require(isinstance(gauge_sources, dict), "'gauge' must be an object")
    for name, gsrc in gauge_sources.items():
        _require(isinstance(gsrc, str), f"gauge entry {name!r} must be a string")

    initial = raw.get("initial", {})
    _require(isinstance(initial, dict), "'initial' must be an object")
    for key in initial:
        _require(key in {"q", "v", "p"}, f"unknown initial key {key!r}")

    integrate = raw.get("integrate", {})
    _require(isinstance(integrate, dict), "'integrate' must be an object")
    for key in integrate:
        _require(
            key in {"t0", "t1", "dt", "enforce_primary"},
            f"unknown integrate key {key!r}",
        )

    verify = dict(VERIFY_DEFAULTS)
    user_verify = raw.get("verify", {})
    _require(isinstance(user_verify, dict), "'verify' must be an object")
    for key, val in user_verify.items():
        _require(key in VERIFY_DEFAULTS, f"unknown verify key {key!r}")
        verify[key] = val
    verify["samples"] = int(verify["samples"])
    verify["seed"] = int(verify["seed"])
    for key in ("tol_residual", "tol_involution", "tol_equiv"):
        verify[key] = float(verify[key])
        _require(verify[key] > 0, f"verify {key!r} must be positive")
    _require(verify["samples"] >= 1, "verify 'samples' must be >= 1")

    return Problem(system, gauge_sources, initial, integrate, verify)


def build_gauge(problem: Problem, ham: MixedHamiltonian):
    """Validate the gauge block against the partition; None when k = n."""
    names = qv_names(ham.n)
    needed = [names[ham.n + i] for i in ham.partition.nonregular]
    given = set(problem.gauge_sources)
    if not needed:
        _require(
            not given,
            "the system has no unresolved velocities; remove the gauge block",
        )
        return None
    missing = [name for name in needed if name not in given]
    _require(
        not missing,
        f"gauge must fix the unresolved velocities {needed}; "
        f"missing {missing}",
    )
    extra = sorted(given.difference(needed))
    _require(not extra, f"gauge fixes non-unresolved velocities {extra}")
    return GaugeChoice.from_sources(
        ham.n, [problem.gauge_sources[name] for name in needed]
    )


# --------------------------------------------------------------------------
# small numeric helpers
# --------------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % x


def _in_box(value, lo, hi):
    return bool(lo <= value <= hi)


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def cmd_analyze(problem: Problem, args, out):
    system = problem.system
    ham = MixedHamiltonian.from_system(system)
    part = ham.partition
    n, k = ham.n, ham.k
    names = qv_names(n)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)

    dets = []
    reg = list(part.regular)
    for x in system.sample(rng, 100):
        w = eval_dual2(
            system.lagrangian, x, range(n, 2 * n)
        ).hess
        if k:
            dets.append(abs(float(np.linalg.det(w[np.ix_(reg, reg)]))))
        else:
            dets.append(0.0)

    samples = []
    nonreg = list(part.nonregular)
    vlo, vhi = system.domain_lo[n:], system.domain_hi[n:]
    for _ in range(max(0, args.points)):
        q = rng.uniform(system.domain_lo[:n], system.domain_hi[:n])
        p1 = rng.uniform(vlo[reg,], vhi[reg,]) if k else np.zeros(0)
        p2 = rng.uniform(vlo[nonreg,], vhi[nonreg,]) if k < n else np.zeros(0)
        psi = ham.psi(q, p1)
        samples.append(
            {
                "q": [float(x) for x in q],
                "p1": [float(x) for x in p1],
                "p2": [float(x) for x in p2],
                "psi": [float(x) for x in psi],
                "phi": [float(x) for x in p2 - psi],
                "h_zero": float(ham.h_zero(q, p1)),
            }
        )

    report = {
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
    if args.json:
        out.write(json.dumps(report, indent=2) + "\n")
        return EXIT_OK
    out.write(f"system: n = {n}, L = {system.lagrangian.source}\n")
    out.write(
        f"rank: k = {k} of {n} "
        f"(tolerance {part.rank_tolerance:g}, {part.samples_checked} samples)\n"
    )
    out.write("regular velocities:    "
              + (" ".join(report["regular"]) or "(none)") + "\n")
    out.write("unresolved velocities: "
              + (" ".join(report["unresolved"]) or "(none)") + "\n")
    if k:
        out.write(
            "|det W11| over 100 samples: "
            f"min = {min(dets):.6g}, max = {max(dets):.6g}\n"
        )
    if k == n:
        out.write("no primary constraints (the velocity Hessian is "
                  "nonsingular)\n")
    else:
        for j, i in enumerate(nonreg):
            out.write(f"constraint form: phi_{j + 1} = p{i + 1} "
                      f"- psi_{j + 1}(q, p1)\n")
        out.write(f"constraints ({len(samples)} sample points, "
                  f"seed {seed}):\n")
        for s in samples:
            out.write(
                "  q = [" + ", ".join(f"{x:.6g}" for x in s["q"]) + "], "
                "p1 = [" + ", ".join(f"{x:.6g}" for x in s["p1"]) + "], "
                "p2 = [" + ", ".join(f"{x:.6g}" for x in s["p2"]) + "]: "
                "psi = [" + ", ".join(f"{x:.6g}" for x in s["psi"]) + "], "
                "phi = [" + ", ".join(f"{x:.6g}" for x in s["phi"]) + "], "
                f"H0 = {s['h_zero']:.6g}\n"
            )
    return EXIT_OK


# --------------------------------------------------------------------------
# transform
# --------------------------------------------------------------------------

def _parse_grid_spec(spec):
    name, eq, rhs = spec.partition("=")
    if not eq or not rhs or not name:
        raise ProblemError(f"bad grid spec {spec!r}; use NAME=a:b:count, "
                           "NAME=x,y,z or NAME=x")
    try:
        if ":" in rhs:
            parts = rhs.split(":")
            if len(parts) != 3:
                raise ValueError
            a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            values = np.linspace(a, b, count)
        elif "," in rhs:
            values = np.array([float(x) for x in rhs.split(",")])
        else:
            values = np.array([float(rhs)])
    except ValueError:
        raise ProblemError(f"bad grid spec {spec!r}; use NAME=a:b:count, "
                           "NAME=x,y,z or NAME=x") from None
    return name, values


def cmd_transform(problem: Problem, args, out):
    system = problem.system
    ham = MixedHamiltonian.from_system(system)
    n, k = ham.n, ham.k
    names = qv_names(n)
    reg = list(ham.partition.regular)
    nonreg = list(ham.partition.nonregular)
    pnames = [f"p{i + 1}" for i in range(n)]
    v2names = [names[n + i] for i in nonreg]

    q = system.center()[:n].copy()
    p = np.zeros(n)
    v2 = ham.default_probe().copy()
    slots = {}
    for i in range(n):
        slots[names[i]] = (q, i)
        slots[pnames[i]] = (p, i)
    for j, name in enumerate(v2names):
        slots[name] = (v2, j)

    grids = [_parse_grid_spec(s) for s in args.grid] or [("p1", np.array([0.0]))]
    for name, _ in grids:
        if name in {names[n + i] for i in reg}:
            raise ProblemError(
                f"{name!r} is resolved by the envelope; vary its momentum "
                "instead"
            )
        if name not in slots:
            raise ProblemError(f"unknown grid variable {name!r}")

    header = (
        [names[i] for i in range(n)]
        + pnames
        + v2names
        + ["H", "H0"]
        + [f"phi_{j + 1}" for j in range(n - k)]
        + ["status"]
    )
    lines = [",".join(header)]
    saw_domain = saw_solver = False
    for combo in itertools.product(*(vals for _, vals in grids)):
        for (name, _), value in zip(grids, combo):
            arr, idx = slots[name]
            arr[idx] = value
        ok = all(
            _in_box(q[i], system.domain_lo[i], system.domain_hi[i])
            for i in range(n)
        ) and all(
            _in_box(
                v2[j],
                system.domain_lo[n + nonreg[j]],
                system.domain_hi[n + nonreg[j]],
            )
            for j in range(len(nonreg))
        )
        hval = h0val = np.nan
        phi = np.full(n - k, np.nan)
        if not ok:
            status = "domain"
            saw_domain = True
        else:
            try:
                v1 = ham.solve_velocity(q, p[reg,], v2)
                hval = ham.value(q, p, v2, v1_guess=v1)
                h0val = ham.h_zero(q, p[reg,], c2_probe=v2)
                phi = ham.phi(q, p, v2_probe=v2, v1_guess=v1)
                status = "ok"
            except (NewtonDivergedError, SingularJacobianError):
                status = "solver"
                saw_solver = True
            except EvalDomainError:
                status = "domain"
                saw_domain = True
        row = (
            [q[i] for i in range(n)]
            + [p[i] for i in range(n)]
            + [v2[j] for j in range(len(nonreg))]
            + [hval, h0val]
            + list(phi)
        )
        lines.append(",".join(_fmt(x) for x in row) + "," + status)
    out.write("\n".join(lines) + "\n")
    if saw_solver:
        return EXIT_SOLVER
    if saw_domain:
        return EXIT_DOMAIN
    return EXIT_OK


# --------------------------------------------------------------------------
# integrate
# --------------------------------------------------------------------------

def _initial_data(problem: Problem, ham: MixedHamiltonian, gauge):
    system = problem.system
    n = ham.n
    initial = problem.initial
    _require("q" in initial, "initial data needs 'q'")
    _require(
        ("v" in initial) != ("p" in initial),
        "initial data needs exactly one of 'v' (velocities) or 'p' (momenta)",
    )
    q0 = np.asarray(initial["q"], dtype=float)
    _require(q0.shape == (n,), f"initial 'q' must have {n} entries")
    for i in range(n):
        if not _in_box(q0[i], system.domain_lo[i], system.domain_hi[i]):
            raise OutOfDomainError(
                f"initial q{i + 1} = {q0[i]:g} lies outside "
                f"[{system.domain_lo[i]:g}, {system.domain_hi[i]:g}]"
            )
    reg = list(ham.partition.regular)
    nonreg = list(ham.partition.nonregular)
    c2 = gauge.value(q0) if gauge is not None else np.zeros(0)

    if "v" in initial:
        v = np.asarray(initial["v"], dtype=float)
        _require(v.shape == (n,), f"initial 'v' must have {n} entries")
        if nonreg and float(np.max(np.abs(v[nonreg,] - c2))) > 1e-8:
            raise ProblemError(
                "initial velocities conflict with the gauge at q0: "
                f"v2 = {v[nonreg,].tolist()} but C2(q0) = {c2.tolist()}"
            )
        v1 = v[reg,]
        p0 = eval_dual2(
            system.lagrangian, system.point(q0, v), range(n, 2 * n)
        ).grad
    else:
        p0 = np.asarray(initial["p"], dtype=float)
        _require(p0.shape == (n,), f"initial 'p' must have {n} entries")
        v1 = ham.solve_velocity(q0, p0[reg,], c2)
        v = ham.assemble_velocity(v1, c2)
    for i in range(n):
        if not _in_box(v[i], system.domain_lo[n + i], system.domain_hi[n + i]):
            raise OutOfDomainError(
                f"initial v{i + 1} = {v[i]:g} lies outside "
                f"[{system.domain_lo[n + i]:g}, {system.domain_hi[n + i]:g}]"
            )
    return q0, v1, p0


def cmd_integrate(problem: Problem, args, out):
    system = problem.system
    ham = MixedHamiltonian.from_system(system)
    gauge = build_gauge(problem, ham)
    icfg = problem.integrate
    _require(icfg, "an 'integrate' block is required")
    for key in ("t0", "t1", "dt"):
        _require(key in icfg, f"integrate needs {key!r}")
        _require(
            isinstance(icfg[key], (int, float))
            and not isinstance(icfg[key], bool),
            f"integrate {key!r} must be a number",
        )
    t_span = (float(icfg["t0"]), float(icfg["t1"]))
    dt = float(icfg["dt"])
    try:
        _validate_span(t_span, dt)
    except ValueError as exc:
        raise ProblemError(f"bad integrate span: {exc}") from None
    enforce = bool(icfg.get("enforce_primary", False))
    q0, v1, p0 = _initial_data(problem, ham, gauge)

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    report = {}
    trajectories = {}
    if args.method in ("el", "both"):
        traj = integrate_el(ham, gauge, q0, v1, t_span, dt)
        path = os.path.join(outdir, "trajectory_el.csv")
        write_trajectory_csv(traj, path)
        trajectories["el"] = traj
        report["el"] = {
            "path": path,
            "nodes": int(traj.times.size),
            "max_abs_phi": float(np.max(np.abs(traj.phi)))
            if traj.phi.size else 0.0,
            "max_el_i2_res": float(np.max(traj.el_i2_res)),
        }
    if args.method in ("ham", "both"):
        traj = integrate_ham(
            ham, gauge, q0, p0, t_span, dt, enforce_primary=enforce
        )
        path = os.path.join(outdir, "trajectory_ham.csv")
        write_trajectory_csv(traj, path)
        trajectories["ham"] = traj
        report["ham"] = {
            "path": path,
            "nodes": int(traj.times.size),
            "max_abs_phi": float(np.max(np.abs(traj.phi)))
            if traj.phi.size else 0.0,
            "max_hs3_res": float(np.max(traj.hs3_res)),
        }

    code = EXIT_OK
    if args.method == "both":
        rep = compare_trajectories(
            trajectories["el"], trajectories["ham"],
            tol=problem.verify["tol_equiv"],
        )
        report["comparison"] = {
            "dq": rep.dq,
            "dv": rep.dv,
            "dp1": rep.dp1,
            "max_discrepancy": rep.max_discrepancy,
            "tol": rep.tol,
            "passed": rep.passed,
        }
        if not rep.passed:
            code = EXIT_EQUIV

    if args.json:
        out.write(json.dumps(report, indent=2) + "\n")
        return code
    for side in ("el", "ham"):
        if side not in report:
            continue
        r = report[side]
        monitor = (
            f"max el_i2_res = {r['max_el_i2_res']:.3e}"
            if side == "el"
            else f"max hs3_res = {r['max_hs3_res']:.3e}"
        )
        out.write(
            f"{r['path']}: {r['nodes']} nodes, "
            f"max |phi| = {r['max_abs_phi']:.3e}, {monitor}\n"
        )
    if "comparison" in report:
        c = report["comparison"]
        out.write(
            f"comparison: dq = {c['dq']:.3e}  dv = {c['dv']:.3e}  "
            f"dp1 = {c['dp1']:.3e}  max = {c['max_discrepancy']:.3e}  "
            f"tol = {c['tol']:.1e}  -> "
            + ("PASS" if c["passed"] else "FAIL")
            + "\n"
        )
    return code


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(problem: Problem, args, out):
    system = problem.system
    ham = MixedHamiltonian.from_system(system)
    cfg = problem.verify
    seed = args.seed if args.seed is not None else cfg["seed"]
    results = run_property_suite(
        ham, cfg["samples"], seed, cfg["tol_residual"], cfg["tol_involution"]
    )
    failed = [r.name for r in results if r.status == "FAIL"]
    if args.json:
        payload = {
            "n": ham.n,
            "k": ham.k,
            "seed": seed,
            "samples": cfg["samples"],
            "properties": [
                {
                    "name": r.name,
                    "samples": r.samples,
                    "worst": None if np.isnan(r.worst) else r.worst,
                    "tol": None if np.isnan(r.tol) else r.tol,
                    "status": r.status,
                }
                for r in results
            ],
            "failed": failed,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(f"seed = {seed}, samples = {cfg['samples']}\n")
        out.write(f"{'property':<22} {'samples':>7} {'worst':>11} "
                  f"{'tol':>9} status\n")
        for r in results:
            worst = "-" if np.isnan(r.worst) else f"{r.worst:.3e}"
            tol = "-" if np.isnan(r.tol) else f"{r.tol:.1e}"
            out.write(
                f"{r.name:<22} {r.samples:>7} {worst:>11} {tol:>9} "
                f"{r.status}\n"
            )
        if failed:
            out.write("FAILED: " + ", ".join(failed) + "\n")
    return EXIT_VERIFY if failed else EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="legclair",
        description="Velocity-Hessian-aware Legendre transforms, primary "
                    "constraints, and gauge-fixed dynamics for Lagrangians "
                    "given as expression strings.",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON reports")
    parser.add_argument("--out", default=None,
                        help="output file (analyze/transform/verify) or "
                             "directory (integrate)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="partition report and constraints")
    p.add_argument("problem")
    p.add_argument("--points", type=int, default=3,
                   help="number of sampled constraint evaluations")

    p = sub.add_parser("transform", help="tabulate H over value grids")
    p.add_argument("problem")
    p.add_argument("--grid", action="append", default=[],
                   metavar="NAME=SPEC",
                   help="vary NAME over a:b:count, x,y,z or a single value; "
                        "repeatable")

    p = sub.add_parser("integrate", help="run the gauge-fixed flows")
    p.add_argument("problem")
    p.add_argument("--method", choices=("el", "ham", "both"), default="both")

    p = sub.add_parser("verify", help="run the numerical property suite")
    p.add_argument("problem")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "transform": cmd_transform,
        "integrate": cmd_integrate,
        "verify": cmd_verify,
    }
    use_file = args.out is not None and args.command != "integrate"
    try:
        problem = load_problem(args.problem)
        handler = handlers[args.command]
        if use_file:
            with open(args.out, "w") as fh:
                return handler(problem, args, fh)
        return handler(problem, args, sys.stdout)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBLEM
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBLEM
    except RankNotConstantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except (NoValidMinorError, NewtonDivergedError, SingularJacobianError,
            PrimaryConstraintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OutOfDomainError, EvalDomainError, NonFiniteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
