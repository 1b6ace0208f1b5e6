import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import legclair
from legclair import cli, clairaut
from legclair.clairaut import EnvelopeSolver
from legclair.cli import main


def write_problem(tmp_path, name="problem.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def osc_problem(tmp_path, **extra):
    return write_problem(
        tmp_path,
        n=1,
        lagrangian="0.5*v1^2 - 0.5*q1^2",
        initial={"q": [1.0], "v": [0.0]},
        integrate={"t0": 0.0, "t1": 1.0, "dt": 0.01},
        verify={"samples": 25},
        **extra,
    )


def deg1_problem(tmp_path, initial=None, enforce=False):
    return write_problem(
        tmp_path,
        n=2,
        lagrangian="0.5*(v1+v2)^2",
        gauge={"v2": "1.0"},
        initial=initial or {"q": [0.0, 0.0], "v": [1.0, 1.0]},
        integrate={"t0": 0.0, "t1": 0.5, "dt": 0.01,
                   "enforce_primary": enforce},
        verify={"samples": 25},
    )


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def test_analyze_regular_system(tmp_path, capsys):
    code = main(["analyze", osc_problem(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "k = 1 of 1" in out
    assert "no primary constraints" in out


def test_analyze_degenerate_system(tmp_path, capsys):
    code = main(["analyze", deg1_problem(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "k = 1 of 2" in out
    assert "unresolved velocities: v2" in out
    assert "constraint form: phi_1 = p2 - psi_1(q, p1)" in out
    assert "psi" in out and "phi = [" in out


def test_analyze_json_structure(tmp_path, capsys):
    code = main(["--json", "analyze", deg1_problem(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 1
    assert data["regular"] == ["v1"]
    assert data["unresolved"] == ["v2"]
    assert len(data["constraint_samples"]) == 3
    s = data["constraint_samples"][0]
    # for this system psi = p1 and so phi = p2 - p1
    assert s["psi"][0] == pytest.approx(s["p1"][0], abs=1e-9)
    assert s["phi"][0] == pytest.approx(s["p2"][0] - s["p1"][0], abs=1e-9)


def test_parse_error_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2 + q7")
    code = main(["analyze", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "column" in err


def test_rank_straddle_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, n=2, lagrangian="0.5*q1*v2^2")
    code = main(["analyze", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "not constant" in err


@pytest.mark.parametrize(
    "lagrangian, domain, fragment",
    [
        ("0.5*v1^2 + exp(q1)", {"q1": [800, 900]}, "exp(q1)"),
        ("0.5*v1^2 + v1^400", {"v1": [1e10, 2e10]}, "v1^400"),
    ],
)
def test_overflow_exits_5(tmp_path, capsys, lagrangian, domain, fragment):
    path = write_problem(tmp_path, n=1, lagrangian=lagrangian, domain=domain)
    code = main(["analyze", path])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: overflow") and f"'{fragment}'" in err


def test_blowing_up_flow_exits_5(tmp_path, capsys):
    # q'' = 4 q^3 escapes to infinity in finite time
    path = write_problem(
        tmp_path, n=1, lagrangian="0.5*v1^2 + q1^4",
        initial={"q": [1.0], "v": [1.0]},
        integrate={"t0": 0.0, "t1": 3.0, "dt": 0.01},
    )
    code = main(["--out", str(tmp_path / "w"), "integrate", path])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: overflow")


def test_blowing_up_flow_names_the_step_and_time(tmp_path, capsys):
    path = write_problem(
        tmp_path, n=1, lagrangian="0.5*v1^2 + q1^4",
        initial={"q": [1.0], "v": [1.0]},
        integrate={"t0": 0.0, "t1": 3.0, "dt": 0.01},
    )
    code = main(["--out", str(tmp_path / "w"), "integrate", path])
    assert code == 5
    err = capsys.readouterr().err.strip()
    step = int(re.search(r"at RK4 step (\d+) \(t = ", err).group(1))
    assert 0 < step < 300
    assert err.endswith(f"at RK4 step {step} (t = {0.01 * step:.6g})")


def test_unwritable_report_file_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    assert main(["--out", str(out), "analyze", osc_problem(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert not out.parent.exists()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command", ["analyze", "transform", "verify"])
def test_report_that_opens_but_cannot_be_written_exits_2(
        tmp_path, capsys, command):
    # /dev/full opens, and the flush at the close fails with ENOSPC
    code = main(["--out", "/dev/full", command, osc_problem(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")


def failing_analyze(problem, args, out):
    out.write("written before the error\n")
    raise cli.OutOfDomainError("the command's own error")


@pytest.mark.parametrize("dev_full", [
    pytest.param(True, marks=needs_dev_full), False])
def test_a_command_that_fails_keeps_its_error_and_what_it_wrote(
        tmp_path, capsys, monkeypatch, dev_full):
    monkeypatch.setattr(cli, "cmd_analyze", failing_analyze)
    report = "/dev/full" if dev_full else str(tmp_path / "report.txt")
    assert main(["--out", report, "analyze", osc_problem(tmp_path)]) == 5
    assert capsys.readouterr().err == "error: the command's own error\n"
    if not dev_full:
        assert (tmp_path / "report.txt").read_text() == (
            "written before the error\n")


def test_unreadable_problem_file_exits_2(tmp_path, capsys):
    # a directory opens as no problem file
    assert main(["analyze", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot read problem file: ")


def test_integrate_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["--out", str(taken), "integrate", osc_problem(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert taken.read_text() == ""


def test_unwritable_trajectory_csv_exits_2(tmp_path, capsys):
    (tmp_path / "w" / "trajectory_el.csv").mkdir(parents=True)
    code = main(["--out", str(tmp_path / "w"), "integrate", "--method", "el",
                 osc_problem(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_unknown_problem_key_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2", extra=1)
    assert main(["analyze", path]) == 2
    assert "extra" in capsys.readouterr().err


def test_missing_lagrangian_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, n=1)
    assert main(["analyze", path]) == 2


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": True}, "'n' must be a positive integer"),
        ({"verify": {"samples": "abc"}}, "'samples' must be an integer >= 1"),
        ({"verify": {"samples": 2.7}}, "'samples' must be an integer >= 1"),
        ({"verify": {"samples": True}}, "'samples' must be an integer >= 1"),
        ({"verify": {"samples": 0}}, "'samples' must be an integer >= 1"),
        ({"verify": {"seed": -1}}, "'seed' must be an integer >= 0"),
        ({"verify": {"seed": 1.5}}, "'seed' must be an integer >= 0"),
        ({"verify": {"seed": False}}, "'seed' must be an integer >= 0"),
        ({"verify": {"tol_residual": "1e-6"}},
         "'tol_residual' must be a finite positive number"),
        ({"verify": {"tol_involution": math.inf}},
         "'tol_involution' must be a finite positive number"),
        ({"verify": {"tol_equiv": math.nan}},
         "'tol_equiv' must be a finite positive number"),
        ({"verify": {"tol_equiv": 0}},
         "'tol_equiv' must be a finite positive number"),
        ({"verify": {"tol_residual": True}},
         "'tol_residual' must be a finite positive number"),
        ({"domain": {"q1": [-math.inf, 1]}}, "domain bounds must be finite"),
        ({"domain": {"v1": [0, math.nan]}}, "domain bounds must be finite"),
        ({"domain": {"q1": [-1e308, 1e308]}}, "needs a finite width"),
        ({"domain": {"v1": [True, 2]}}, "domain entry 'v1' must be [lo, hi]"),
        ({"domain": {"q1": [-1, False]}}, "domain entry 'q1' must be [lo, hi]"),
        ({"lagrangian": "0.5*v1^exp(1000)"},
         "invalid constant exponent: overflow"),
        ({"domain": {"q1": [-1, 10 ** 400]}},
         "domain entry 'q1' must be [lo, hi]"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_bad_problem_values_exit_2(tmp_path, capsys, fields, message,
                                   command):
    raw = {"n": 1, "lagrangian": "0.5*v1^2"}
    raw.update(fields)
    path = write_problem(tmp_path, **raw)
    assert main([command, path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_negative_seed_option_exits_2(tmp_path, capsys, command):
    path = osc_problem(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["--seed", "-1", command, path])
    assert exit_.value.code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert main(["--seed", "0", command, path]) == 0


def test_negative_points_option_exits_2(tmp_path, capsys):
    path = deg1_problem(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--points", "-2", path])
    assert exit_.value.code == 2
    assert "points must be >= 0, got -2" in capsys.readouterr().err
    assert main(["analyze", "--points", "0", path]) == 0
    assert "constraints (0 sample points" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # 10^20 rows, more than a C long counts
    ["transform", "--grid", "p1=0:1:100000", "--grid", "q1=0:1:100000",
     "--grid", "q2=0:1:100000", "--grid", "p2=0:1:100000"],
    ["analyze", "--points", "100000000000000000000"],
    # a count that numpy takes, whose bytes pass the address space
    ["analyze", "--points", "300000000000000000"],
], ids=["transform", "analyze", "analyze_bytes"])
def test_a_request_beyond_the_address_space_exits_2(tmp_path, capsys, argv):
    # each is refused before anything is allocated; a request that fits
    # the address space but not memory ends in the same error line
    assert main([argv[0], deg1_problem(tmp_path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" numbers, more than memory holds\n")


# --------------------------------------------------------------------------
# transform
# --------------------------------------------------------------------------

def test_transform_momentum_grid(tmp_path, capsys):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2")
    code = main(["transform", path, "--grid", "p1=-1,0,1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1,p1,H,H0,status"
    h_values = [float(row.split(",")[2]) for row in lines[1:]]
    assert h_values == [0.5, 0.0, 0.5]
    # regular system: the reduced Hamiltonian is the whole thing
    h0_values = [float(row.split(",")[3]) for row in lines[1:]]
    assert h0_values == h_values
    assert all(row.endswith(",ok") for row in lines[1:])


def test_transform_out_of_domain_exits_5(tmp_path, capsys):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2")
    code = main(["transform", path, "--grid", "q1=5"])
    out = capsys.readouterr().out
    assert code == 5
    assert out.strip().splitlines()[1].endswith(",domain")


def test_transform_rejects_regular_velocity_grid(tmp_path, capsys):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2")
    assert main(["transform", path, "--grid", "v1=0.5"]) == 2
    assert "momentum" in capsys.readouterr().err


def test_transform_bad_grid_spec(tmp_path, capsys):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2")
    assert main(["transform", path, "--grid", "p1=1:2"]) == 2
    assert main(["transform", path, "--grid", "nope=1"]) == 2


def test_transform_constraint_columns(tmp_path, capsys):
    code = main(["transform", deg1_problem(tmp_path),
                 "--grid", "p1=2", "--grid", "p2=5"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "q1,q2,p1,p2,v2,H,H0,phi_1,status"
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["phi_1"]) == pytest.approx(3.0, abs=1e-9)
    # H = p1^2/2 + v2 (p2 - p1) at the center probe v2 = 0
    assert float(vals["H"]) == pytest.approx(2.0, abs=1e-9)
    # H0 = p1^2/2 regardless of probe
    assert float(vals["H0"]) == pytest.approx(2.0, abs=1e-9)


def test_transform_writes_out_file(tmp_path):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2")
    out_file = tmp_path / "table.csv"
    code = main(["--out", str(out_file), "transform", path,
                 "--grid", "p1=0:1:2"])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "q1,p1,H,H0,status"
    assert len(lines) == 3


# --------------------------------------------------------------------------
# integrate
# --------------------------------------------------------------------------

def test_integrate_both_oscillator(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["--out", str(out_dir), "integrate", osc_problem(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    el = (out_dir / "trajectory_el.csv").read_text().splitlines()
    hm = (out_dir / "trajectory_ham.csv").read_text().splitlines()
    assert el[0] == "t,q1,v1,p1,el_i2_res,hs3_res"
    assert len(el) == len(hm) == 1 + 101
    # cos(1) at the endpoint
    assert float(el[-1].split(",")[1]) == pytest.approx(np.cos(1.0), abs=1e-6)


# the parent's report on the shipped problems, output directory as <out>
SHIPPED_REPORTS = {
    "chained_pair": [
        "<out>/trajectory_el.csv: 2001 nodes, max |phi| = 0.000e+00, "
        "max el_i2_res = 0.000e+00",
        "<out>/trajectory_ham.csv: 2001 nodes, max |phi| = 0.000e+00, "
        "max hs3_res = 0.000e+00",
        "comparison: dq = 0.000e+00  dv = 0.000e+00  dp1 = 0.000e+00  "
        "max = 0.000e+00  tol = 1.0e-06  -> PASS",
    ],
    "oscillator": [
        "<out>/trajectory_el.csv: 6284 nodes, max |phi| = 0.000e+00, "
        "max el_i2_res = 0.000e+00",
        "<out>/trajectory_ham.csv: 6284 nodes, max |phi| = 0.000e+00, "
        "max hs3_res = 0.000e+00",
        "comparison: dq = 4.362e-11  dv = 9.271e-11  dp1 = 3.345e-11  "
        "max = 9.271e-11  tol = 1.0e-06  -> PASS",
    ],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_REPORTS))
def test_consistent_runs_pass_the_verdict_and_keep_their_report(
        tmp_path, capsys, name):
    path = pathlib.Path(__file__).resolve().parent.parent / "problems"
    out_dir = str(tmp_path / "run")
    code = main(["--out", out_dir, "integrate", str(path / f"{name}.json")])
    lines = capsys.readouterr().out.replace(out_dir, "<out>").splitlines()
    assert code == 0
    assert lines.pop(2) == (
        "consistency: max residual = 0.000e+00  tol = 1.0e-06  -> PASS")
    assert lines == SHIPPED_REPORTS[name]


def test_an_inconsistent_run_fails_the_verdict_and_exits_0(tmp_path, capsys):
    # the q2 row of L = 0.5*v1^2 + q1*v2 reads v1 = 0, which v1(0) = 1
    # breaks whatever the gauge: both flows agree, and both break the row.
    # v1 = 1 + t reaches 2 at t1, so the box holds v1 in [-3, 3]
    path = write_problem(
        tmp_path, n=2, lagrangian="0.5*v1^2 + q1*v2", gauge={"v2": "1.0"},
        domain={"v1": [-3, 3]},
        initial={"q": [0.0, 0.0], "v": [1.0, 1.0]},
        integrate={"t0": 0.0, "t1": 1.0, "dt": 0.01})
    out_dir = str(tmp_path / "run")
    assert main(["--out", out_dir, "integrate", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == (
        "consistency: max residual = 2.000e+00  tol = 1.0e-06  -> FAIL")
    assert lines[-1].startswith("comparison:") and lines[-1].endswith("PASS")
    assert main(["--json", "--out", out_dir, "integrate", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["el", "ham", "consistency", "comparison"]
    verdict = data["consistency"]
    assert verdict["max_residual"] == pytest.approx(2.0, rel=1e-12)
    assert (verdict["tol"], verdict["passed"]) == (1e-6, False)


def test_a_run_that_leaves_the_box_exits_5_before_any_verdict(tmp_path,
                                                              capsys):
    # q1 = t leaves q1 in [-0.5, 0.5] at t = 0.5, where the rank partition
    # is no longer certified: the CSVs are written, but no report line and
    # no PASS, in text or JSON
    path = write_problem(
        tmp_path, n=2, lagrangian="0.5*(v1+v2)^2", domain={"q1": [-0.5, 0.5]},
        gauge={"v2": "1.0"}, initial={"q": [0.0, 0.0], "v": [1.0, 1.0]},
        integrate={"t0": 0.0, "t1": 2.0, "dt": 0.001})
    out_dir = tmp_path / "run"
    for json_flag in ([], ["--json"]):
        assert main([*json_flag, "--out", str(out_dir), "integrate",
                     path]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the el flow leaves the declared box at t = 0.5: "
            "q1 = 0.5000000000000003 outside [-0.5, 0.5]\n")
    for side in ("el", "ham"):
        assert (out_dir / f"trajectory_{side}.csv").stat().st_size > 0
    assert main(["--out", str(out_dir), "integrate", path, "--method",
                 "ham"]) == 5
    assert "the ham flow leaves" in capsys.readouterr().err


def test_integrate_json_report(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["--json", "--out", str(out_dir), "integrate",
                 deg1_problem(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["comparison"]["passed"] is True
    assert data["el"]["nodes"] == 51
    assert data["ham"]["max_abs_phi"] <= 1e-10


def test_integrate_enforce_primary_violation_exits_4(tmp_path, capsys):
    path = deg1_problem(
        tmp_path, initial={"q": [0.0, 0.0], "p": [2.0, 5.0]}, enforce=True
    )
    code = main(["--out", str(tmp_path / "x"), "integrate", path])
    err = capsys.readouterr().err
    assert code == 4
    assert "phi_1 = 3" in err


def test_integrate_singular_2x2_block_exits_4(tmp_path, capsys):
    # W11 = diag(3 v1^2, 1) is singular at v1 = 0, where both flows start
    path = write_problem(
        tmp_path,
        n=3,
        lagrangian="0.25*v1^4 + 0.5*v2^2 + q1*v3",
        gauge={"v3": "0.0"},
        initial={"q": [0.5, 0.0, 0.0], "v": [0.0, 0.0, 0.0]},
        integrate={"t0": 0.0, "t1": 0.1, "dt": 0.01},
    )
    code = main(["--out", str(tmp_path / "x"), "integrate", path])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: regular velocity block is singular at")
    assert "(smallest singular value 0.000e+00) at RK4 step 0" in err


def test_integrate_momentum_initial_data(tmp_path, capsys):
    path = deg1_problem(tmp_path, initial={"q": [0.0, 0.0], "p": [2.0, 2.0]})
    code = main(["--out", str(tmp_path / "y"), "integrate", path])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_integrate_missing_gauge_exits_2(tmp_path, capsys):
    path = write_problem(
        tmp_path,
        n=2,
        lagrangian="0.5*(v1+v2)^2",
        initial={"q": [0.0, 0.0], "v": [1.0, 1.0]},
        integrate={"t0": 0.0, "t1": 0.1, "dt": 0.01},
    )
    assert main(["integrate", path]) == 2
    assert "gauge" in capsys.readouterr().err


def test_integrate_velocity_gauge_conflict_exits_2(tmp_path, capsys):
    path = deg1_problem(tmp_path, initial={"q": [0.0, 0.0], "v": [1.0, 7.0]})
    assert main(["--out", str(tmp_path / "z"), "integrate", path]) == 2
    assert "conflict" in capsys.readouterr().err


def test_integrate_initial_velocity_out_of_domain_exits_5(tmp_path, capsys):
    path = osc_problem(tmp_path, domain={"v1": [-1.0, 1.0]})
    problem = json.loads(pathlib.Path(path).read_text())
    problem["initial"] = {"q": [0.0], "v": [2.0]}
    pathlib.Path(path).write_text(json.dumps(problem))
    assert main(["--out", str(tmp_path / "w"), "integrate", path]) == 5
    assert capsys.readouterr().err == (
        "error: initial v1 = 2 lies outside [-1, 1]\n")


def test_flows_that_differ_beyond_tol_equiv_exit_6(tmp_path, capsys):
    # the two flows of a q-dependent kinetic term differ by about 4e-11
    path = write_problem(
        tmp_path, n=1, lagrangian="0.5*v1^2*(2 + sin(q1))",
        initial={"q": [0.5], "v": [0.3]},
        integrate={"t0": 0.0, "t1": 1.0, "dt": 0.01},
        verify={"tol_equiv": 1e-15})
    assert main(["--out", str(tmp_path / "w"), "integrate", path]) == 6
    comparison = capsys.readouterr().out.splitlines()[-1]
    assert comparison.startswith("comparison: ")
    assert comparison.endswith("tol = 1.0e-15  -> FAIL")


def test_integrate_initial_out_of_domain_exits_5(tmp_path, capsys):
    path = deg1_problem(tmp_path, initial={"q": [9.0, 0.0], "v": [1.0, 1.0]})
    assert main(["--out", str(tmp_path / "w"), "integrate", path]) == 5
    assert "outside" in capsys.readouterr().err


CONFLICT = "error: initial velocities conflict with the gauge at q0: "


@pytest.mark.parametrize("lagrangian, v, code, err", [
    # a NaN unresolved velocity agrees with no gauge value, as inf does not
    ("0.5*(v1+v2)^2", [1.0, math.nan], 2,
     CONFLICT + "v2 = [nan] but C2(q0) = [1.0]"),
    ("0.5*(v1+v2)^2", [1.0, math.inf], 2,
     CONFLICT + "v2 = [inf] but C2(q0) = [1.0]"),
    ("0.5*v1^2", [1.0, math.nan], 2,
     CONFLICT + "v2 = [nan] but C2(q0) = [1.0]"),
    # the box is checked before L is evaluated at v
    ("0.5*(v1+v2)^2", [1e200, 1.0], 5,
     "error: initial v1 = 1e+200 lies outside [-3, 3]"),
    ("0.5*v1^2 + 0.5*v2^2", [1.0, math.nan], 5,
     "error: initial v2 = nan lies outside [-3, 3]"),
])
def test_initial_velocities_are_checked_before_l_is_evaluated(
        tmp_path, capsys, lagrangian, v, code, err):
    path = (pathlib.Path(__file__).resolve().parent.parent / "problems"
            / "chained_pair.json")
    problem = json.loads(path.read_text())
    problem["lagrangian"] = lagrangian
    problem["initial"]["v"] = v
    if "v2^2" in lagrangian:  # v2 is resolved: no gauge
        del problem["gauge"]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))  # NaN and Infinity, as json reads
    out_dir = tmp_path / "run"
    assert main(["--out", str(out_dir), "integrate", str(path)]) == code
    assert capsys.readouterr().err == err + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "span,message",
    [
        ({"t0": 1.0, "t1": 0.0, "dt": 0.01}, "need t1 > t0"),
        ({"t0": 0.0, "t1": 1.0, "dt": 0.0}, "need a positive finite step"),
        ({"t0": 0.0, "t1": 1.0, "dt": -0.01}, "need a positive finite step"),
        ({"t0": 0.0, "t1": "1", "dt": 0.01}, "'t1' must be a number"),
        ({"t0": 0.0, "t1": 1.0, "dt": None}, "'dt' must be a number"),
        ({"t0": 0.0, "t1": 1.0, "dt": 0.01, "enforce_primary": "false"},
         "'enforce_primary' must be true or false"),
        ({"t0": 0.0, "t1": 10 ** 400, "dt": 0.01}, "'t1' must be a number"),
    ],
)
def test_integrate_bad_span_exits_2_before_writing(tmp_path, capsys, span,
                                                   message):
    path = write_problem(
        tmp_path,
        n=1,
        lagrangian="0.5*v1^2 - 0.5*q1^2",
        initial={"q": [1.0], "v": [0.0]},
        integrate=span,
    )
    out_dir = tmp_path / "run"
    assert main(["--out", str(out_dir), "integrate", path]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", [["a", 0.0], [[0.0], 0.0], [True, 0.0]])
@pytest.mark.parametrize("key", ["q", "v", "p"])
def test_integrate_bad_initial_entry_exits_2(tmp_path, capsys, key, value):
    initial = {"q": [0.0, 0.0], "v" if key == "q" else key: [1.0, 1.0]}
    initial[key] = value
    out_dir = tmp_path / "run"
    path = deg1_problem(tmp_path, initial=initial)
    assert main(["--out", str(out_dir), "integrate", path]) == 2
    assert capsys.readouterr().err == (
        f"error: initial {key!r} must be a list of n = 2 numbers\n")
    assert not out_dir.exists()


# wrong-typed values for an entry of the 'initial' or 'integrate' block of a
# one-dof problem, or for the block itself (key None)
WRONG = st.sampled_from(["1", "", True, False, None, math.nan, [], [0.5, 0.5],
                         [[0.5]], {"q": [0.5]}, 10 ** 400])
TARGETS = [("initial", key) for key in ("q", "v", "p", None)] + [
    ("integrate", key) for key in ("t0", "t1", "dt", "enforce_primary", None)]


@st.composite
def integrate_blocks(draw):
    """Valid 'initial' and 'integrate' blocks with up to two of their
    entries, or whole blocks, replaced by wrong-typed values."""
    blocks = {
        "initial": {"q": [0.5], draw(st.sampled_from(["v", "p"])): [0.1]},
        "integrate": {"t0": 0.0, "t1": 0.05, "dt": 0.01,
                      "enforce_primary": draw(st.booleans())},
    }
    targets = draw(st.lists(st.sampled_from(TARGETS), max_size=2, unique=True))
    for block, key in sorted(targets, key=lambda t: t[1] is None):
        if key is None:
            blocks[block] = draw(WRONG)
        else:
            blocks[block][key] = draw(WRONG)
    return blocks


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(integrate_blocks())
def test_integrate_wrong_typed_entries_end_in_an_exit_code(blocks):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump({"n": 1, "lagrangian": "0.5*v1^2 - 0.5*q1^2", **blocks},
                      fh)
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(["--out", os.path.join(tmp, "run"), "integrate",
                         path])
    assert code in (cli.EXIT_OK, cli.EXIT_PROBLEM, cli.EXIT_SOLVER,
                    cli.EXIT_DOMAIN, cli.EXIT_EQUIV)
    if code not in (cli.EXIT_OK, cli.EXIT_EQUIV):
        assert err.getvalue().startswith("error: ")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_regular_system(tmp_path, capsys):
    code = main(["verify", osc_problem(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "regular_reduction" in out
    assert "vacuous (k = n)" in out
    assert "FAILED" not in out


def test_verify_text_report_names_the_failed_properties_and_exits_7(
        tmp_path, capsys):
    path = write_problem(
        tmp_path, n=1, lagrangian="0.5*v1^2 - 0.5*q1^2",
        verify={"samples": 25, "tol_residual": 1e-300,
                "tol_involution": 1e-300})
    assert main(["verify", path]) == 7
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAILED: clairaut_residual, involutivity"
    statuses = {line.split()[0]: line.split()[-1] for line in lines[2:-1]}
    assert statuses["clairaut_residual"] == statuses["involutivity"] == "FAIL"


def test_verify_degenerate_system_json(tmp_path, capsys):
    code = main(["--json", "verify", deg1_problem(tmp_path)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == []
    names = {p["name"]: p for p in data["properties"]}
    assert names["clairaut_residual"]["status"] == "PASS"
    assert names["clairaut_residual"]["samples"] == 25
    assert names["regular_reduction"]["status"].startswith("vacuous")
    assert names["probe_independence"]["worst"] <= 1e-8


def test_verify_honors_seed_and_tolerances(tmp_path, capsys):
    path = write_problem(
        tmp_path,
        n=1,
        lagrangian="0.5*v1^2",
        verify={"samples": 10, "seed": 7, "tol_residual": 1e-12},
    )
    code = main(["--json", "verify", path])
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 7
    names = {p["name"]: p for p in data["properties"]}
    assert names["clairaut_residual"]["tol"] == 1e-12


# --------------------------------------------------------------------------
# one cold envelope solve per row
# --------------------------------------------------------------------------

# deg1_problem: n = 2, k = 1, 25 verify samples, and 2n^2 + 1 = 9 points of
# H's momentum-Hessian stencil per rank sample
@pytest.mark.parametrize("args, cold, distinct", [
    (["transform", "--grid", "p1=-1:1:150"], 150, 150),
    (["analyze", "--points", "12"], 12, 12),
    # clairaut_residual 25, envelope_grad 25, probe_independence 25 at the
    # default probe + 5 x 25 at the drawn probes, decomposition 25 for H +
    # 25 for (V, Psi, H0), involutivity 25, rank_agreement 8 x 3: the
    # stencil's 9 momenta hold only 3 values of p1, each solved once
    (["verify"], 25 + 25 + (25 + 5 * 25) + (25 + 25) + 25 + 8 * 3,
     25 + 25 + (25 + 5 * 25) + (25 + 25) + 25 + 8 * 3),
])
def test_commands_solve_each_row_once(tmp_path, capsys, monkeypatch, args,
                                      cold, distinct):
    lanes = helpers.record_lanes(monkeypatch)[1][False]
    assert main([args[0], deg1_problem(tmp_path), *args[1:]]) == 0
    assert len(lanes) == cold
    assert len(set(lanes)) == distinct


def test_verify_solves_each_warm_row_once(capsys, monkeypatch):
    # clairaut_residual's and envelope_grad's unshifted point and +-p2
    # shifted momenta share (q, p1, v2) with the cold row and take its V:
    # 250 rows of 5 stencil points hold 2 warm rows each, the +-p1 shifts
    # (500 warm lanes, not 1,250); the inverse transform's nested warm
    # solve adds 200, and its H is formed at the V that solve converged to
    lanes = helpers.record_lanes(monkeypatch)[1][True]
    path = (pathlib.Path(__file__).resolve().parent.parent / "problems"
            / "chained_pair.json")
    assert main(["verify", str(path)]) == 0
    assert len(lanes) == len(set(lanes)) == 500 + 200


def test_verify_makes_one_cold_and_one_warm_solve_per_chunk(capsys,
                                                            monkeypatch):
    # every cold row of the suite (1,024 of them) is one stacked solve, and
    # the clairaut_residual and envelope_grad stencils' warm rows a second;
    # the inverse transform adds its nested warm solves, here one Newton
    # trial, and forms H at the V of that trial: 3 calls, where one solve
    # per map call made 12
    calls = helpers.record_lanes(monkeypatch)[0]
    path = (pathlib.Path(__file__).resolve().parent.parent / "problems"
            / "chained_pair.json")
    assert main(["verify", str(path)]) == 0
    assert calls == [(1024, False), (500, True), (200, True)]


def test_transform_solves_each_chunk_once(tmp_path, capsys, monkeypatch):
    # H, Psi and H0 are formed at the V of the chunk's one cold solve: no
    # warm solve re-evaluates W11 to confirm it
    solves = []
    solve_lanes = EnvelopeSolver.solve_lanes

    def counted(self, q, p1, c2, v1_guess=None):
        solves.append((len(q), v1_guess is None))
        return solve_lanes(self, q, p1, c2, v1_guess)

    monkeypatch.setattr(EnvelopeSolver, "solve_lanes", counted)
    # a small chunk keeps the grid small and still crosses a boundary
    helpers.set_chunk_rows(monkeypatch, 32)
    rows = clairaut.CHUNK_ROWS + 22
    assert main(["transform", deg1_problem(tmp_path),
                 "--grid", f"p1=-1:1:{rows}"]) == 0
    assert solves == [(clairaut.CHUNK_ROWS, True), (22, True)]


# deg3 (as the benchmark runs it), and a k = 2 system whose W11 varies with
# q1 and has a negative determinant
@pytest.mark.parametrize("problem", [
    None,  # problems/chained_pair.json
    {"n": 3, "lagrangian": "0.5*(v1^2+v2^2) + q3*(v1-v2)"},
    {"n": 3, "lagrangian": "0.5*(v1^2-v2^2) + 0.5*q1*v1*v2 + q3*(v1-v2)"},
])
def test_verify_decides_every_w11_block_without_the_svd(tmp_path, capsys,
                                                        monkeypatch, problem):
    path = (pathlib.Path(__file__).resolve().parent.parent / "problems"
            / "chained_pair.json")
    if problem is not None:
        path = write_problem(tmp_path, verify={"samples": 50}, **problem)
    calls = helpers.record_svd_calls(monkeypatch)
    assert main(["verify", str(path)]) == 0
    assert [a.shape for a, in_check_w11 in calls if in_check_w11] == []
    # the rank partition and the rank property keep their own SVDs
    assert any(not in_check_w11 for _, in_check_w11 in calls)


# every sampled velocity Hessian and every one-point dL/dv on L's stacked
# v-active kernel: no command compiles the scalar one
DEG3 = {"n": 3, "lagrangian": "0.5*(v1^2+v2^2) + q3*(v1-v2)",
        "gauge": {"v3": "0.5*sin(q1)"},
        "initial": {"q": [0.1, -0.2, 0.3],
                    "v": [0.2, -0.1, 0.5 * math.sin(0.1)]},
        "integrate": {"t0": 0.0, "t1": 0.05, "dt": 0.001},
        "verify": {"samples": 20}}


@pytest.mark.parametrize("argv", [
    ["analyze"], ["transform", "--grid", "p1=-1:1:150"], ["verify"],
    ["integrate", "--method", "both"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("problem", ["chained_pair", "oscillator", "deg3"])
def test_commands_evaluate_dl_dv_on_the_stacked_kernel_only(
        tmp_path, capsys, monkeypatch, problem, argv):
    # point by point, the partition's 64 samples, analyze's 100 |det W11|
    # samples, p0 and the Hamiltonian start's Psi would be scalar eval_dual2
    # calls on a scalar v-active kernel
    if problem == "deg3":
        path = write_problem(tmp_path, **DEG3)
    else:
        path = str(pathlib.Path(__file__).resolve().parent.parent
                   / "problems" / f"{problem}.json")
    n = json.loads(pathlib.Path(path).read_text())["n"]
    calls = helpers.record_eval_dual2_calls(monkeypatch)
    compiles = helpers.record_kernel_compiles(monkeypatch)
    out = str(tmp_path / "out")
    assert main(["--out", out, argv[0], path, *argv[1:]]) == 0
    assert calls == []
    kernels = [(name, active) for name, active, _ in compiles]
    v_active = tuple(range(n, 2 * n))
    assert ("<legclair kernel>", v_active) not in kernels
    assert kernels.count(("<legclair stacked kernel>", v_active)) == 1
    if argv[0] != "integrate":
        # the envelope Newton's v1-active triples, L's values and dL/dv all
        # read their columns from the partition's v-active kernel
        assert [active for name, active in kernels
                if name == "<legclair stacked kernel>"] == [v_active]


# --------------------------------------------------------------------------
# determinism and packaging
# --------------------------------------------------------------------------

def test_outputs_are_deterministic(tmp_path, capsys):
    path = deg1_problem(tmp_path)
    main(["--json", "verify", path])
    first = capsys.readouterr().out
    main(["--json", "verify", path])
    second = capsys.readouterr().out
    assert first == second

    main(["analyze", path])
    a1 = capsys.readouterr().out
    main(["analyze", path])
    a2 = capsys.readouterr().out
    assert a1 == a2


def test_trajectory_files_are_deterministic(tmp_path):
    path = deg1_problem(tmp_path)
    main(["--out", str(tmp_path / "r1"), "integrate", path])
    main(["--out", str(tmp_path / "r2"), "integrate", path])
    for name in ("trajectory_el.csv", "trajectory_ham.csv"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2


def test_console_script_entry_point(tmp_path):
    path = write_problem(tmp_path, n=1, lagrangian="0.5*v1^2")
    # the child imports legclair from where this process imported it, so
    # the test needs neither an installed package nor PYTHONPATH
    here = os.path.dirname(os.path.dirname(legclair.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [here, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "legclair.cli", "analyze", path],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "no primary constraints" in proc.stdout


def test_the_cli_binds_no_command_maths():
    # the chunked row loop, |det W11|, dL/dv and the box test belong to the
    # library, whose reports the CLI renders
    assert not {"CHUNK_ROWS", "failing_rows", "abs_det_many",
                "eval_dual2_many", "_in_box"} & set(vars(cli))


@pytest.mark.parametrize("module", ["legclair", *(
    f"legclair.{m.name}" for m in pkgutil.iter_modules(legclair.__path__))])
def test_star_import_resolves_every_public_name(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    public = getattr(importlib.import_module(module), "__all__", ())
    assert all(name in namespace for name in public)


def _cpu_has_fma():
    try:
        with open("/proc/cpuinfo") as fh:
            return " fma " in fh.read().replace("\n", " ")
    except OSError:
        return False


@pytest.mark.skipif(not _cpu_has_fma(), reason="no FMA: every BLAS kernel "
                    "available then sums without it")
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # W11 = diag(1 + q1^2 + q2^2, 2 + sin q2) + 0.3 off the diagonal varies
    # along the flow, so its solves and the contractions round; a BLAS kernel
    # with fused multiply-adds (OpenBLAS picks one on FMA CPUs) and one
    # without used to give different bytes on 32 of 41 integrate nodes
    path = write_problem(
        tmp_path,
        n=3,
        lagrangian="0.5*(1+q1^2+q2^2)*v1^2 + 0.5*(2+sin(q2))*v2^2"
                   " + 0.3*v1*v2 + q3*(v1-v2)",
        domain={name: [-1, 1] for name in ("q1", "q2", "q3",
                                           "v1", "v2", "v3")},
        gauge={"v3": "0.5*sin(q1)"},
        initial={"q": [0.3, -0.2, 0.1], "v": [0.4, 0.4, 0.5 * math.sin(0.3)]},
        integrate={"t0": 0.0, "t1": 2.0, "dt": 0.05},
        verify={"samples": 20},
    )
    # analyze reports |det W11| over 100 samples; with k = 3 its LU factors
    # round, as a BLAS determinant's bits followed the kernel
    regular = write_problem(
        tmp_path,
        name="regular.json",
        n=3,
        lagrangian="0.5*(1+q1^2)*v1^2 + 0.5*(2+sin(q2))*v2^2"
                   " + 0.5*(3+q3^2)*v3^2 + 0.9*v1*v2 + 0.2*q1*v2*v3"
                   " - 0.1*q2*v1*v3",
        domain={name: [-1, 1] for name in ("q1", "q2", "q3",
                                           "v1", "v2", "v3")},
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    commands = {
        "integrate": ["--out", ".", "integrate", path],
        "transform": ["transform", path, "--grid", "p1=-1:1:20",
                      "--grid", "p2=0.3,0.7", "--grid", "q1=-1,0.5"],
        "verify": ["--json", "verify", path],
        "analyze": ["--json", "analyze", regular],
    }
    outputs = []
    for coretype in (None, "Sandybridge"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")  # each run's working dir
        out.mkdir()
        got = {}
        for name, argv in commands.items():
            proc = subprocess.run([sys.executable, "-m", "legclair.cli"] + argv,
                                  capture_output=True, text=True, env=env,
                                  cwd=out)
            assert proc.returncode == 0, proc.stderr
            got[name] = proc.stdout
        for name in ("trajectory_el.csv", "trajectory_ham.csv"):
            got[name] = (out / name).read_text()
        outputs.append(got)
    assert outputs[0] == outputs[1]
