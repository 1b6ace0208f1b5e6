"""legclair benchmark: one workload, in one process, on one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 30 --trace 0

The workload's commands go in-process through ``legclair.cli.main`` in a
closed loop (the next command starts when the previous one returns) for
``--seconds`` seconds, after the set-up timing and one warm-up pass.  Every
output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it report the environment, sample counts and output fingerprints.
README.md beside this file explains the workloads and the metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One thread: BLAS reads these when numpy is first imported.
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FULL, ROOT  # noqa: E402

SRC = os.path.join(ROOT, "src")
NEEDED = ("src/legclair/__init__.py", "tests/corpus.py",
          "problems/chained_pair.json", "problems/oscillator.json")

# The command kind whose output counts the workload's work units, and the
# name of throughput_per_s on that workload.
UNIT_KIND = {"integrate": "integrate", "verify": "verify",
             "explore": "transform"}
THROUGHPUT_NAME = {"integrate": "rk4_steps_per_s",
                   "verify": "property_samples_per_s",
                   "explore": "grid_points_per_s"}
TAIL_BEYOND = 10  # the tail is the highest percentile with this many beyond

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "command_p50_s": "s",
    "command_tail_s": "s",
    "peak_rss_mb": "MB",
}
CALL_COUNTS = ("expr.eval_dual2", "expr.evaluate", "expr.parse",
               "partition.partition_indices", "clairaut.solve",
               "clairaut.inverse_transform")


def load_cli():
    """Import ``legclair.cli`` from this checkout's ``src``, or exit."""
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise SystemExit(f"perfbench: {ROOT} is not a legclair checkout; "
                         f"missing {', '.join(missing)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from legclair import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported legclair from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


# --------------------------------------------------------------------------
# calibrated timing
# --------------------------------------------------------------------------

# On a host whose cores are shared with other tenants' work, the speed of the
# same code swings within seconds: one explore pass took between 0.67 s and
# 1.2 s within one minute on a 2-vCPU KVM guest.  So every timed region is
# bracketed by a fixed reference kernel, and its time is reported in
# reference seconds: raw seconds x REF_NOMINAL_S / (mean of the reference
# before and after).  REF_NOMINAL_S is the kernel's median time on that
# guest, so reference seconds read close to seconds.  This cut the
# run-to-run spread of explore's wall_s from 0.15 to 0.04 of the median.
# Raw medians are printed in the detail line.
REF_NOMINAL_S = 0.0025
REF_LOOPS = 150


def reference_s():
    """Seconds for a fixed mix of interpreted Python and small numpy calls,
    the same kind of work as legclair's inner loops."""
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    acc = 0.0
    start = time.perf_counter()
    for i in range(REF_LOOPS):
        g = np.zeros(3)
        g[1] = 1.0
        h = np.zeros((3, 3)) + 0.5 * np.outer(g, g)
        x = np.linalg.solve(a, np.array([1.0, float(i)]))
        acc += x[0] + h[1, 1]
        table = {}
        for k in range(10):
            table[k] = 1.5 * k + acc
    return time.perf_counter() - start


class Clock:
    """Times regions back to back, each bracketed by the reference kernel."""

    def __init__(self):
        self._before = reference_s()

    def calibrate(self, raw):
        after = reference_s()
        scale = REF_NOMINAL_S / (0.5 * (self._before + after))
        self._before = after
        return raw * scale


# --------------------------------------------------------------------------
# running commands
# --------------------------------------------------------------------------

@dataclass
class Pass:
    durations: list   # reference seconds per command, in workload order
    raw: list         # wall-clock seconds per command
    outcomes: list    # workloads.Outcome per command

    @property
    def wall(self):
        return sum(self.durations)

    @property
    def raw_wall(self):
        return sum(self.raw)


def run_pass(cli, workload) -> Pass:
    durations, raw, outcomes = [], [], []
    clock = Clock()
    for cmd in workload.commands:
        workloads.prepare(cmd)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(cmd.argv)
            except Exception as exc:  # an escaped error fails one operation
                code = f"{type(exc).__name__}: {exc}"
            raw.append(time.perf_counter() - start)
        durations.append(clock.calibrate(raw[-1]))
        outcome = workloads.check(cmd, code, out.getvalue())
        if outcome.failures and err.getvalue():
            outcome.failures.append("stderr: " + err.getvalue().strip())
        outcomes.append(outcome)
    return Pass(durations, raw, outcomes)


def time_setup(cli, workload, reps):
    """Median reference seconds per problem of load + transform + gauge."""
    from legclair import MixedHamiltonian

    per_problem = []
    clock = Clock()
    for _ in range(reps):
        start = time.perf_counter()
        for path in workload.setup_paths:
            problem = cli.load_problem(path)
            ham = MixedHamiltonian.from_system(problem.system)
            cli.build_gauge(problem, ham)
        raw = time.perf_counter() - start
        per_problem.append(
            clock.calibrate(raw) / len(workload.setup_paths)
        )
    return statistics.median(per_problem), len(per_problem)


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND beyond."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _units_rate(workload, p):
    kind = UNIT_KIND[workload.name]
    units = seconds = 0
    for cmd, outcome, dt in zip(workload.commands, p.outcomes, p.durations):
        if cmd.kind == kind:
            units += outcome.units
            seconds += dt
    return units / seconds


def end_to_end(workload, setup_s, passes):
    latencies = [dt for p in passes for dt in p.durations]
    tail_s, tail_pct = tail(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "throughput_per_s": statistics.median(
            _units_rate(workload, p) for p in passes
        ),
        # A median of per-pass medians: explore's pass is eight analyze and
        # eight slower transform calls, and the pooled median falls in the
        # gap between them, set by the slowest analyze and fastest transform
        # of the whole run (run-to-run spread 0.14 of the median).
        "command_p50_s": statistics.median(
            statistics.median(p.durations) for p in passes
        ),
        "command_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    detail = {"commands": len(latencies),
              "command_tail_percentile": round(tail_pct, 2),
              "raw_wall_s": statistics.median(p.raw_wall for p in passes),
              "raw_command_p50_s": statistics.median(
                  statistics.median(p.raw) for p in passes),
              THROUGHPUT_NAME[workload.name]: values["throughput_per_s"]}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, detail


def per_layer(workload, tracer, traced, plain):
    """Per-pass means over the traced passes (so self times add up)."""
    count = len(traced)
    calls, self_s = tracer.calls, tracer.self_s
    out = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (calls[name] / count, "count")
    for name in tracing.SPANS:
        out[f"{name}.self_s"] = (self_s[name] / count, "s")
    dual = "expr.eval_dual2"
    out[f"{dual}.us_per_call"] = (
        1e6 * self_s[dual] / calls[dual] if calls[dual] else 0.0, "us")
    solve = "clairaut.solve"
    out[f"{solve}.dual_evals_per_call"] = (
        tracer.edges[solve, dual] / calls[solve] if calls[solve] else 0.0,
        "evals/call")
    out[f"{solve}.errors"] = (tracer.errors[solve] / count, "count")

    steps = sum(o.units for p in traced for cmd, o in
                zip(workload.commands, p.outcomes) if cmd.kind == "integrate")
    scoped = {inner: sum(tracer.scoped[scope, inner]
                         for scope in tracing.SCOPES)
              for inner in tracing.SCOPED}
    out["dynamics.rk4_steps"] = (steps / count, "count")
    out["dynamics.dual_evals_per_step"] = (
        scoped[dual] / steps if steps else 0.0, "evals/step")
    out["dynamics.solves_per_step"] = (
        scoped[solve] / steps if steps else 0.0, "solves/step")
    out["dynamics.write_trajectory_csv.bytes"] = (
        sum(o.csv_bytes for p in traced for o in p.outcomes) / count, "B")

    traced_wall = sum(p.raw_wall for p in traced) / count
    out["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain), "s")
    out["trace.unattributed_s"] = (
        traced_wall - sum(self_s[name] for name in tracing.SPANS) / count, "s")
    detail = {
        "traced_passes": count,
        "traced_wall_s_mean": traced_wall,
        "self_share": {name: self_s[name] / count / traced_wall
                       for name in tracing.SPANS if self_s[name]},
        "edges": {f"{parent} > {child}": n
                  for (parent, child), n in sorted(tracer.edges.items(),
                                                   key=str)},
        "sites": dict(tracer.sites),
    }
    return out, detail


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "legclair")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


# glibc sysconf names (x86 Linux); glibc answers them from cpuid.
_CACHE_SYSCONF = {"L1d": 188, "L2": 191, "L3": 194}


def _cache_bytes():
    try:
        sysconf = ctypes.CDLL(None).sysconf
    except (OSError, AttributeError):
        return {}
    sizes = {level: sysconf(code) for level, code in _CACHE_SYSCONF.items()}
    return {level: size for level, size in sizes.items() if size > 0}


def environment():
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes_per_instance": _cache_bytes(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def run(name, seed, seconds, trace, size=FULL):
    """Run one workload; return (result object, detail object)."""
    cli = load_cli()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = workloads.build(name, seed, workdir, size)
        setup_s, setup_reps = time_setup(cli, workload, size.setup_reps)
        warm = run_pass(cli, workload)
        reference = [o.digests for o in warm.outcomes]
        tracer = tracing.Tracer() if trace else None
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            if trace and len(traced) < len(plain):
                with tracer.installed():
                    traced.append(run_pass(cli, workload))
            else:
                plain.append(run_pass(cli, workload))
            if time.perf_counter() >= deadline and (traced or not trace):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []
    attempted = failed = 0
    for p in [warm] + plain + traced:
        for cmd, outcome, ref in zip(workload.commands, p.outcomes, reference):
            if outcome.digests != ref:
                outcome.failures.append("output differs from the first pass")
            attempted += 1
            if outcome.failures:
                failed += 1
                failures.append(f"{cmd.kind} {cmd.problem}: "
                                + "; ".join(outcome.failures))
    if trace:
        metrics, detail = per_layer(workload, tracer, traced, plain)
    else:
        metrics, detail = end_to_end(workload, setup_s, plain)
    detail.update({
        "workload": name,
        "seed": seed,
        "setup_reps": setup_reps,
        "passes": len(plain) + len(traced),
        "error_rate": failed / attempted,
        "fingerprint": hashlib.sha256(
            "".join(d for ds in reference for d in ds).encode()
        ).hexdigest(),
        "failures": failures[:20],
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    print("perfbench environment: " + json.dumps(environment()))
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
