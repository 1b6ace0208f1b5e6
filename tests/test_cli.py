import json
import re
import subprocess
import sys

import numpy as np
import pytest

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


def test_integrate_initial_out_of_domain_exits_5(tmp_path, capsys):
    path = deg1_problem(tmp_path, initial={"q": [9.0, 0.0], "v": [1.0, 1.0]})
    assert main(["--out", str(tmp_path / "w"), "integrate", path]) == 5
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "span,message",
    [
        ({"t0": 1.0, "t1": 0.0, "dt": 0.01}, "need t1 > t0"),
        ({"t0": 0.0, "t1": 1.0, "dt": 0.0}, "need a positive finite step"),
        ({"t0": 0.0, "t1": 1.0, "dt": -0.01}, "need a positive finite step"),
        ({"t0": 0.0, "t1": "1", "dt": 0.01}, "'t1' must be a number"),
        ({"t0": 0.0, "t1": 1.0, "dt": None}, "'dt' must be a number"),
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
    proc = subprocess.run(
        [sys.executable, "-m", "legclair.cli", "analyze", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "no primary constraints" in proc.stdout
