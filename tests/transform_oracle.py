"""The row-by-row ``transform`` and sample-by-sample ``analyze``, kept as the
reference.

These are ``legclair.cli.cmd_transform`` and ``cmd_analyze`` as they were
before both ran on stacked rows: ``transform`` walks the grid one row at a
time, tests the box per entry and evaluates each row through the
single-point maps; ``analyze`` draws each constraint sample with its own
``Generator.uniform`` calls.  The single-point maps are the envelope
solve point by point (``helpers.solve_velocity``), ``psi`` and the
reference bodies in ``maps_oracle.py``.  ``tests/test_cli.py`` requires
the commands to write the same bytes and exit with the same code.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

import maps_oracle
from helpers import solve_velocity
from legclair.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_SOLVER,
    ProblemError,
    _parse_grid_spec,
)
from legclair.clairaut import (
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
)
from legclair.expr import EvalDomainError, eval_dual2
from legclair.partition import qv_names


def _fmt(x):
    return "%.17g" % x


def _in_box(value, lo, hi):
    return bool(lo <= value <= hi)


def cmd_analyze(problem, args, out):
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
    for _ in range(args.points):
        q = rng.uniform(system.domain_lo[:n], system.domain_hi[:n])
        p1 = rng.uniform(vlo[reg,], vhi[reg,]) if k else np.zeros(0)
        p2 = rng.uniform(vlo[nonreg,], vhi[nonreg,]) if k < n else np.zeros(0)
        psi = maps_oracle.psi(ham, q, p1)
        samples.append(
            {
                "q": [float(x) for x in q],
                "p1": [float(x) for x in p1],
                "p2": [float(x) for x in p2],
                "psi": [float(x) for x in psi],
                "phi": [float(x) for x in p2 - psi],
                "h_zero": float(maps_oracle.h_zero(ham, q, p1)),
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


def cmd_transform(problem, args, out):
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
                v1 = solve_velocity(ham, q, p[reg,], v2)
                hval = maps_oracle.value(ham, q, p, v2, v1_guess=v1)
                h0val = maps_oracle.h_zero(ham, q, p[reg,], c2_probe=v2)
                phi = maps_oracle.phi(ham, q, p, v2_probe=v2, v1_guess=v1)
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
