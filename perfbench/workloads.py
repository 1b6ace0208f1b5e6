"""Workloads of the legclair benchmark: inputs, command lines and output checks.

Every input is drawn from the workload seed and written as problem files; the
program only sees those files and the command lines built here.  Each check
returns the list of ways one command's output was wrong, so a failed check is
counted against the operations attempted instead of stopping the run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("integrate", "verify", "explore")
DEFAULT_BOUNDS = (-2.0, 2.0)  # the CLI's box for a variable the file omits


@dataclass(frozen=True)
class Size:
    """How much work one pass of a workload does."""

    rk4_steps: int       # RK4 steps per flow in each integrate command
    verify_samples: int  # the problem file's verify samples
    grid_p: int          # transform grid: values of p1
    grid_q: int          # transform grid: values of q1
    setup_reps: int      # set-up repetitions timed for setup_s


FULL = Size(rk4_steps=200, verify_samples=200, grid_p=30, grid_q=5,
            setup_reps=40)
TINY = Size(rk4_steps=8, verify_samples=10, grid_p=3, grid_q=2, setup_reps=2)


@dataclass
class Command:
    """One closed-loop CLI call and what its output must satisfy."""

    kind: str       # integrate, verify, analyze or transform
    problem: str
    argv: list
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    setup_paths: list   # problem files timed for setup_s
    commands: list      # one pass, run in order


@dataclass
class Outcome:
    """The checked result of one command."""

    failures: list
    units: int = 0        # RK4 steps, property samples or grid rows
    digests: tuple = ()   # sha256 of each CSV and of the report
    csv_bytes: int = 0    # bytes of trajectory CSV written


def corpus_systems():
    """``SYSTEMS`` of the test corpus: name -> (n, source, expected rank)."""
    path = os.path.join(ROOT, "tests", "corpus.py")
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.SYSTEMS)


def _shipped(name):
    with open(os.path.join(ROOT, "problems", name + ".json")) as fh:
        return json.load(fh)


def _write(workdir, name, raw):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
    return path


def _box(raw, prefix):
    domain = raw.get("domain", {})
    pairs = [domain.get(f"{prefix}{i + 1}", DEFAULT_BOUNDS)
             for i in range(raw["n"])]
    return [float(p[0]) for p in pairs], [float(p[1]) for p in pairs]


# Gauges for the corpus systems with unresolved velocities.  The q-dependent
# one makes the gauge Jacobian and the correction terms R non-zero.
GAUGES = {
    "deg1": {"v2": "1.0"},
    "deg2": {"v2": "0.5"},
    "deg3": {"v3": "0.5*sin(q1)"},
}


def flow_problems(rng, size):
    """The three systems of ``integrate`` and ``verify``.

    Initial data come from sub-boxes small enough that the short flows stay
    inside the declared box; the integrate check confirms it on every node.
    """
    chained = _shipped("chained_pair")
    q = rng.uniform(-1.0, 1.0, 2)
    chained["initial"] = {"q": [float(x) for x in q],
                          "v": [float(rng.uniform(0.5, 1.5)), 1.0]}

    osc = _shipped("oscillator")
    osc["initial"] = {"q": [float(rng.uniform(0.5, 1.0))],
                      "v": [float(rng.uniform(-0.5, 0.5))]}

    n, source, _ = corpus_systems()["deg3"]
    q = [float(x) for x in rng.uniform(-0.5, 0.5, 3)]
    v12 = [float(x) for x in rng.uniform(-0.5, 0.5, 2)]
    deg3 = {
        "n": n,
        "lagrangian": source,
        "gauge": GAUGES["deg3"],
        "initial": {"q": q, "v": v12 + [0.5 * math.sin(q[0])]},
        "integrate": {"t0": 0.0, "t1": 1.0, "dt": 0.001,
                      "enforce_primary": True},
    }

    problems = {"chained_pair": chained, "oscillator": osc, "deg3": deg3}
    for raw in problems.values():
        icfg = raw["integrate"]
        icfg["t1"] = icfg["t0"] + size.rk4_steps * icfg["dt"]
        raw["verify"] = {"samples": size.verify_samples, "seed": 0}
    return problems


def catalogue():
    """The ``explore`` systems: the test corpus plus the shipped problems.

    A shipped problem's expected rank is the corpus rank of the same
    Lagrangian, so the corpus stays the only oracle.
    """
    systems = corpus_systems()
    out = {}
    for name, (n, source, k) in systems.items():
        raw = {"n": n, "lagrangian": source}
        if name in GAUGES:
            raw["gauge"] = GAUGES[name]
        out[name] = (raw, k)
    by_source = {source: k for n, source, k in systems.values()}
    for name in ("chained_pair", "oscillator"):
        raw = _shipped(name)
        if raw["lagrangian"] not in by_source:
            raise RuntimeError(f"problems/{name}.json has no corpus twin")
        out[name] = (raw, by_source[raw["lagrangian"]])
    return out


def build(name, seed, workdir, size=FULL) -> Workload:
    """Write the workload's problem files under ``workdir``; return one pass."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    commands = []
    paths = []
    if name in ("integrate", "verify"):
        for pname, raw in flow_problems(rng, size).items():
            path = _write(workdir, pname, raw)
            paths.append(path)
            if name == "integrate":
                outdir = os.path.join(workdir, "out_" + pname)
                q_lo, q_hi = _box(raw, "q")
                commands.append(Command(
                    "integrate", pname,
                    ["--out", outdir, "integrate", path, "--method", "both"],
                    {"outdir": outdir, "nsteps": size.rk4_steps,
                     "q_lo": q_lo, "q_hi": q_hi},
                ))
            else:
                commands.append(Command(
                    "verify", pname, ["--seed", str(seed), "verify", path]
                ))
        return Workload(name, paths, commands)

    for pname, (raw, k) in catalogue().items():
        path = _write(workdir, pname, raw)
        paths.append(path)
        q_lo, q_hi = (bounds[0] for bounds in _box(raw, "q"))
        start = float(rng.uniform(-1.5, 0.0))
        qs = np.sort(rng.uniform(0.75 * q_lo, 0.75 * q_hi, size.grid_q))
        grids = [f"p1={start!r}:{start + 1.5!r}:{size.grid_p}",
                 "q1=" + ",".join(repr(float(x)) for x in qs)]
        commands.append(Command(
            "analyze", pname, ["--seed", str(seed), "analyze", path],
            {"k": k},
        ))
        commands.append(Command(
            "transform", pname,
            ["transform", path] + [a for g in grids for a in ("--grid", g)],
            {"rows": size.grid_p * size.grid_q},
        ))
    return Workload(name, paths, commands)


def prepare(cmd: Command):
    """Remove a previous pass's outputs so a command cannot pass on them."""
    if cmd.kind == "integrate":
        for side in ("el", "ham"):
            path = os.path.join(cmd.expect["outdir"], f"trajectory_{side}.csv")
            if os.path.exists(path):
                os.remove(path)


def check(cmd: Command, code, out) -> Outcome:
    """Check one command's exit code and output against ``cmd.expect``."""
    failures = [] if code == 0 else [f"exit code {code!r}"]
    if cmd.kind == "integrate":
        outcome = _check_integrate(cmd, out)
    elif cmd.kind == "verify":
        outcome = _check_verify(out)
    elif cmd.kind == "analyze":
        outcome = _check_analyze(cmd, out)
    else:
        outcome = _check_transform(cmd, out)
    outcome.failures[:0] = failures
    if cmd.kind == "integrate":  # the report names the per-run directory
        out = out.replace(cmd.expect["outdir"], "<out>")
    outcome.digests += (hashlib.sha256(out.encode()).hexdigest(),)
    return outcome


def _check_integrate(cmd, out):
    failures = []
    lines = out.strip().splitlines()
    if not lines or not (lines[-1].startswith("comparison:")
                         and lines[-1].endswith("-> PASS")):
        failures.append("the flow comparison did not report PASS")
    steps, nbytes, digests = 0, 0, []
    for side, foreign in (("el", "hs3_res"), ("ham", "el_i2_res")):
        path = os.path.join(cmd.expect["outdir"], f"trajectory_{side}.csv")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            failures.append(f"{side}: {exc}")
            continue
        nbytes += len(data)
        digests.append(hashlib.sha256(data).hexdigest())
        bad, rows = check_trajectory_csv(data.decode(), foreign, cmd.expect)
        failures += [f"{side}: {msg}" for msg in bad]
        steps += max(rows - 1, 0)
    return Outcome(failures, steps, tuple(digests), nbytes)


def check_trajectory_csv(text, foreign, expect):
    """Rows, finiteness and the box of one trajectory CSV.

    ``foreign`` names the monitor column native to the other flow, which
    holds NaN by design; every other value must be finite, and every q must
    lie inside the declared box.  Returns (failures, data rows).
    """
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    try:
        data = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
    except ValueError as exc:
        return [f"unparsable row: {exc}"], len(lines) - 1
    rows = len(lines) - 1
    failures = []
    if rows != expect["nsteps"] + 1:
        failures.append(f"{rows} rows, expected {expect['nsteps'] + 1}")
    if data.ndim != 2 or data.shape[1] != len(header) or foreign not in header:
        return failures + ["rows do not match the header"], rows
    j = header.index(foreign)
    if not np.all(np.isnan(data[:, j])):
        failures.append(f"{foreign} is not NaN")
    rest = np.delete(data, j, axis=1)
    if not np.all(np.isfinite(rest)):
        failures.append("non-finite values")
    for i, (lo, hi) in enumerate(zip(expect["q_lo"], expect["q_hi"])):
        q = data[:, header.index(f"q{i + 1}")]
        if np.any(q < lo) or np.any(q > hi):
            failures.append(
                f"q{i + 1} leaves the box [{lo:g}, {hi:g}]: "
                f"range [{q.min():.6g}, {q.max():.6g}]"
            )
    return failures, rows


_PROPERTY_ROW = re.compile(r"^(\w+)\s+(\d+)\s")


def _check_verify(out):
    failures = ["a property FAILed"] if "FAIL" in out else []
    samples = [int(m.group(2)) for m in map(_PROPERTY_ROW.match,
                                            out.splitlines()[2:]) if m]
    if not samples:
        failures.append("no property rows in the report")
    return Outcome(failures, sum(samples))


_RANK_LINE = re.compile(r"^rank: k = (\d+) of \d+", re.MULTILINE)


def _check_analyze(cmd, out):
    m = _RANK_LINE.search(out)
    if m is None:
        return Outcome(["no rank line in the report"])
    k = int(m.group(1))
    if k != cmd.expect["k"]:
        return Outcome([f"rank k = {k}, expected {cmd.expect['k']}"])
    return Outcome([])


def _check_transform(cmd, out):
    lines = out.splitlines()
    rows = lines[1:]
    failures = []
    if len(rows) != cmd.expect["rows"]:
        failures.append(f"{len(rows)} rows, expected {cmd.expect['rows']}")
    bad = sum(1 for row in rows if not row.endswith(",ok"))
    if bad:
        failures.append(f"{bad} rows not ok")
    return Outcome(failures, len(rows))
