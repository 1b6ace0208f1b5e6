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

Exit codes: 0 success; 2 problem-file or expression errors, or output that
cannot be written; 3 inconsistent Hessian rank over the domain; 4 solver
failures (including rejected initial data); 5 out-of-domain requests,
including an ``integrate`` run that leaves the declared box; 6 flow-
equivalence failure; 7 property failures from ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    abs_det_many,
)
from .dynamics import (
    BoxExitError,
    GaugeChoice,
    NonFiniteStateError,
    PrimaryConstraintError,
    _validate_span,
    compare_trajectories,
    first_box_exit,
    format_table,
    integrate_el,
    integrate_ham,
    write_trajectory_csv,
)
from .expr import EvalDomainError, ParseError, eval_dual2_many
from .partition import (
    LagrangianSystem,
    NoValidMinorError,
    RankNotConstantError,
    qv_names,
)
from .verify import CHUNK_ROWS, failing_rows, run_property_suite

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


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_real(val) -> bool:
    """A JSON number that converts to a float: not a bool, nor an integer
    too large for a float."""
    if isinstance(val, int):
        return not isinstance(val, bool) and abs(val) <= sys.float_info.max
    return isinstance(val, float)


def _written(write, *args, **kwargs):
    """``write(*args, **kwargs)``, whose OSError is a ProblemError (exit 2)."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise ProblemError(f"cannot write output: {exc}") from exc


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
    _require(_is_int(n) and n >= 1, "'n' must be a positive integer")
    src = raw["lagrangian"]
    _require(isinstance(src, str), "'lagrangian' must be a string")

    domain = raw.get("domain", {})
    _require(isinstance(domain, dict), "'domain' must be an object")
    for name, pair in domain.items():
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(_is_real(x) for x in pair),
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
    for key, val in initial.items():
        _require(key in {"q", "v", "p"}, f"unknown initial key {key!r}")
        _require(
            isinstance(val, list) and len(val) == n
            and all(_is_real(x) for x in val),
            f"initial {key!r} must be a list of n = {n} numbers",
        )

    integrate = raw.get("integrate", {})
    _require(isinstance(integrate, dict), "'integrate' must be an object")
    for key in integrate:
        _require(
            key in {"t0", "t1", "dt", "enforce_primary"},
            f"unknown integrate key {key!r}",
        )
    _require(isinstance(integrate.get("enforce_primary", False), bool),
             "integrate 'enforce_primary' must be true or false")

    verify = dict(VERIFY_DEFAULTS)
    user_verify = raw.get("verify", {})
    _require(isinstance(user_verify, dict), "'verify' must be an object")
    for key, val in user_verify.items():
        _require(key in VERIFY_DEFAULTS, f"unknown verify key {key!r}")
        verify[key] = val
    for key, least in (("samples", 1), ("seed", 0)):
        val = verify[key]
        _require(_is_int(val) and val >= least,
                 f"verify {key!r} must be an integer >= {least}")
    for key in ("tol_residual", "tol_involution", "tol_equiv"):
        val = verify[key]
        _require(
            _is_real(val) and math.isfinite(val) and val > 0,
            f"verify {key!r} must be a finite positive number",
        )
        verify[key] = float(val)

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

    reg = list(part.regular)
    w = eval_dual2_many(system.lagrangian, system.sample(rng, 100),
                        range(n, 2 * n)).hess
    dets = (abs_det_many(w[:, reg][:, :, reg]).tolist() if k
            else [0.0] * len(w))

    nonreg = list(part.nonregular)
    lo, hi = system.domain_lo, system.domain_hi
    # one row per sample: q, p1, p2, drawn in the order of one sample at a time
    rows = rng.uniform(
        np.concatenate([lo[:n], lo[n:][reg], lo[n:][nonreg]]),
        np.concatenate([hi[:n], hi[n:][reg], hi[n:][nonreg]]),
        size=(args.points, 2 * n),
    )
    q, p1, p2 = rows[:, :n], rows[:, n:n + k], rows[:, n + k:]
    errors = (NewtonDivergedError, SingularJacobianError, EvalDomainError)
    try:
        _, psi, h_zero = ham.envelope_many(q, p1)
    except errors:
        # the lowest sample that fails on its own raises its error
        for _, error in failing_rows(
                lambda at: ham.envelope_many(q[at], p1[at]),
                np.arange(len(rows)), errors):
            raise error
        raise
    samples = [
        {
            "q": q[i].tolist(),
            "p1": p1[i].tolist(),
            "p2": p2[i].tolist(),
            "psi": psi[i].tolist(),
            "phi": (p2[i] - psi[i]).tolist(),
            "h_zero": float(h_zero[i]),
        }
        for i in range(len(rows))
    ]

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

    columns = [*names[:n], *pnames, *v2names]  # of one grid row
    grids = [_parse_grid_spec(s) for s in args.grid] or [("p1", np.array([0.0]))]
    for name, _ in grids:
        if name in {names[n + i] for i in reg}:
            raise ProblemError(
                f"{name!r} is resolved by the envelope; vary its momentum "
                "instead"
            )
        if name not in columns:
            raise ProblemError(f"unknown grid variable {name!r}")
    values = [vals for _, vals in grids]
    rows = np.tile(
        np.concatenate([system.center()[:n], np.zeros(n), ham.default_probe()]),
        (math.prod(map(len, values)), 1),
    )
    # the last grid varies fastest; a repeated name takes its last grid
    for (name, _), column in zip(grids, np.meshgrid(*values, indexing="ij")):
        rows[:, columns.index(name)] = column.ravel()
    boxed = rows[:, list(range(n)) + list(range(2 * n, 3 * n - k))]
    lo = np.concatenate([system.domain_lo[:n], system.domain_lo[n:][nonreg]])
    hi = np.concatenate([system.domain_hi[:n], system.domain_hi[n:][nonreg]])
    inside = ((lo <= boxed) & (boxed <= hi)).all(axis=1)

    table = np.full((len(rows), 2 + n - k), np.nan)  # H, H0, phi per row
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

    live = np.flatnonzero(inside)
    errors = (NewtonDivergedError, SingularJacobianError, EvalDomainError)
    for start in range(0, len(live), CHUNK_ROWS):
        chunk = live[start:start + CHUNK_ROWS]
        try:
            evaluate(chunk)
        except errors:
            # each row that fails alone takes its own status and keeps the
            # columns computed before its error
            for i, error in failing_rows(evaluate, chunk, errors):
                domain = isinstance(error, EvalDomainError)
                status[i] = "domain" if domain else "solver"

    header = (columns + ["H", "H0"] + [f"phi_{j + 1}" for j in range(n - k)]
              + ["status"])
    out.write(",".join(header) + "\n"
              + format_table(np.concatenate([rows, table], axis=1), status))
    if "solver" in status:
        return EXIT_SOLVER
    if "domain" in status:
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
        if nonreg and float(np.max(np.abs(v[nonreg,] - c2))) > 1e-8:
            raise ProblemError(
                "initial velocities conflict with the gauge at q0: "
                f"v2 = {v[nonreg,].tolist()} but C2(q0) = {c2.tolist()}"
            )
        v1 = v[reg,]
        p0 = eval_dual2_many(
            system.lagrangian, system.point(q0, v)[None], range(n, 2 * n)
        ).grad[0]
    else:
        p0 = np.asarray(initial["p"], dtype=float)
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
        _require(_is_real(icfg[key]), f"integrate {key!r} must be a number")
    t_span = (float(icfg["t0"]), float(icfg["t1"]))
    dt = float(icfg["dt"])
    try:
        _validate_span(t_span, dt)
    except ValueError as exc:
        raise ProblemError(f"bad integrate span: {exc}") from None
    enforce = icfg.get("enforce_primary", False)
    q0, v1, p0 = _initial_data(problem, ham, gauge)

    outdir = args.out or "."
    _written(os.makedirs, outdir, exist_ok=True)
    report = {}
    trajectories = {}
    # each flow's monitor and run, in report order
    flows = {
        "el": ("el_i2_res",
               lambda: integrate_el(ham, gauge, q0, v1, t_span, dt)),
        "ham": ("hs3_res",
                lambda: integrate_ham(ham, gauge, q0, p0, t_span, dt,
                                      enforce_primary=enforce)),
    }
    for side, (monitor, run) in flows.items():
        if args.method not in (side, "both"):
            continue
        traj = trajectories[side] = run()
        path = os.path.join(outdir, f"trajectory_{side}.csv")
        _written(write_trajectory_csv, traj, path)
        report[side] = {
            "path": path,
            "nodes": int(traj.times.size),
            "max_abs_phi": float(np.max(np.abs(traj.phi)))
            if traj.phi.size else 0.0,
            f"max_{monitor}": float(np.max(getattr(traj, monitor))),
        }
    # no verdict on a run that left the box where the partition holds
    names, lo, hi = qv_names(ham.n), system.domain_lo, system.domain_hi
    for side, traj in trajectories.items():
        exit_ = first_box_exit(traj, lo, hi)
        if exit_ is not None:
            t, i, x = exit_
            raise BoxExitError(
                f"the {side} flow leaves the declared box at t = {t:.6g}: "
                f"{names[i]} = {x!r} outside [{lo[i]:g}, {hi[i]:g}]")

    # the gauge-fixed equations leave the non-regular rows unenforced: the
    # run is consistent only where their defect stays within tol_equiv
    tol = problem.verify["tol_equiv"]
    worst = float(np.max([report[side][f"max_{flows[side][0]}"]
                          for side in trajectories]))
    report["consistency"] = {"max_residual": worst, "tol": tol,
                             "passed": worst <= tol}
    code = EXIT_OK
    if args.method == "both":
        rep = compare_trajectories(
            trajectories["el"], trajectories["ham"],
            tol=tol,
        )
        report["comparison"] = asdict(rep)
        if not rep.passed:
            code = EXIT_EQUIV

    if args.json:
        out.write(json.dumps(report, indent=2) + "\n")
        return code
    for side in trajectories:
        r, monitor = report[side], flows[side][0]
        out.write(
            f"{r['path']}: {r['nodes']} nodes, "
            f"max |phi| = {r['max_abs_phi']:.3e}, "
            f"max {monitor} = {r[f'max_{monitor}']:.3e}\n"
        )
    c = report["consistency"]
    out.write(f"consistency: max residual = {c['max_residual']:.3e}  "
              f"tol = {c['tol']:.1e}  -> {'PASS' if c['passed'] else 'FAIL'}\n")
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

def _at_least_zero(what):
    """An argparse type for an integer option ``what`` that must be >= 0."""
    def parse(text) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= 0, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports other text as "invalid int value"
    return parse


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
    parser.add_argument("--seed", type=_at_least_zero("seed"), default=None,
                        help="override the sampling seed (an integer >= 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="partition report and constraints")
    p.add_argument("problem")
    p.add_argument("--points", type=_at_least_zero("points"), default=3,
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


# the exit code of each library error (README, "Exit codes")
_EXIT_CODES = {
    ParseError: EXIT_PROBLEM, ProblemError: EXIT_PROBLEM,
    RankNotConstantError: EXIT_RANK,
    NoValidMinorError: EXIT_SOLVER, NewtonDivergedError: EXIT_SOLVER,
    SingularJacobianError: EXIT_SOLVER, PrimaryConstraintError: EXIT_SOLVER,
    OutOfDomainError: EXIT_DOMAIN, EvalDomainError: EXIT_DOMAIN,
    NonFiniteStateError: EXIT_DOMAIN, BoxExitError: EXIT_DOMAIN,
}


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
            fh = _written(open, args.out, "w")
            try:
                code = _written(handler, problem, args, fh)
            except BaseException:
                with contextlib.suppress(OSError):  # keep the command's error
                    fh.close()
                raise
            _written(fh.close)
            return code
        return handler(problem, args, sys.stdout)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
