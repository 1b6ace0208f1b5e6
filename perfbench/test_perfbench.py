"""Tests of the benchmark itself: declared metrics, output checks, bare checkout.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_declared_workloads_are_the_ones_built():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_declared_metric(workload, trace):
    result, detail = run.run(workload, seed=3, seconds=0, trace=trace,
                             size=workloads.TINY)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        # Self times of all spans add up to the traced command time.
        unattributed = result["metrics"]["trace.unattributed_s"]["value"]
        assert abs(unattributed) < 0.01 * detail["traced_wall_s_mean"]
        # Every module's own binding of an imported function is wrapped.
        assert {f"legclair.{m}.eval_dual2"
                for m in ("partition", "clairaut", "dynamics", "cli")
                } <= set(detail["sites"]["expr.eval_dual2"])
    else:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_seed_alone_sets_the_inputs_and_outputs():
    def fingerprint(seed):
        return run.run("explore", seed, 0, 0, workloads.TINY)[1]["fingerprint"]

    assert fingerprint(4) == fingerprint(4) != fingerprint(6)


@pytest.mark.parametrize("count, value, percentile", [
    (100, 89, 90.0),    # ten samples (90..99) lie beyond the tail
    (11, 0, 100 / 11),
    (5, 4, 100.0),      # too few samples: the maximum
])
def test_tail_is_the_highest_percentile_with_ten_beyond(count, value,
                                                       percentile):
    assert run.tail(range(count)) == (value, pytest.approx(percentile))


def test_wrong_expected_rank_counts_as_failure(tmp_path):
    workload = workloads.build("explore", 5, str(tmp_path), workloads.TINY)
    analyze = next(c for c in workload.commands if c.kind == "analyze")
    analyze.expect["k"] += 1
    done = run.run_pass(run.load_cli(), workload)
    failed = [c for c, o in zip(workload.commands, done.outcomes) if o.failures]
    assert failed == [analyze]


def test_output_that_changes_between_passes_counts_as_failure(monkeypatch):
    counter = itertools.count()
    check = workloads.check

    def drifting(cmd, code, out):
        outcome = check(cmd, code, out)
        outcome.digests += (str(next(counter)),)
        return outcome

    monkeypatch.setattr(workloads, "check", drifting)
    result, _ = run.run("verify", 3, 0, 0, workloads.TINY)
    # The warm-up pass sets the reference; all three later commands differ.
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert not result["correct"]


def _tamper_q1(lines, value):
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index("q1")] = repr(value)
    lines[3] = ",".join(row)


@pytest.mark.parametrize("tamper, message", [
    (lambda lines, cmd: _tamper_q1(lines, cmd.expect["q_hi"][0] + 0.5),
     "q1 leaves the box"),
    (lambda lines, cmd: _tamper_q1(lines, float("nan")), "non-finite"),
    (lambda lines, cmd: lines.pop(), "rows, expected"),
])
def test_tampered_trajectory_counts_as_failure(tmp_path, tamper, message):
    workload = workloads.build("integrate", 5, str(tmp_path), workloads.TINY)
    done = run.run_pass(run.load_cli(), workload)
    assert not any(o.failures for o in done.outcomes)
    cmd = workload.commands[0]
    with open(os.path.join(cmd.expect["outdir"], "trajectory_el.csv")) as fh:
        lines = fh.read().splitlines()
    assert workloads.check_trajectory_csv(
        "\n".join(lines), "hs3_res", cmd.expect) == ([], len(lines) - 1)
    tamper(lines, cmd)
    failures, _ = workloads.check_trajectory_csv(
        "\n".join(lines), "hs3_res", cmd.expect)
    assert any(message in f for f in failures), failures


def test_missing_boundary_fails_loudly_and_restores(monkeypatch):
    run.load_cli()
    from legclair import dynamics, expr

    original = expr.eval_dual2
    monkeypatch.delattr(dynamics, "integrate_el")
    with pytest.raises(tracing.BoundaryMissing, match="integrate_el"):
        with tracing.Tracer().installed():
            pass
    assert expr.eval_dual2 is original


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "integrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
