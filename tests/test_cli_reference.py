"""``transform`` and ``analyze`` on stacked rows against the row-by-row
reference.

``transform_oracle.py`` keeps both commands as they were before they ran on
stacked rows.  Each command must write the same bytes, to stdout and to an
``--out`` file, and exit with the same code: on the shipped problems, on
every corpus system, and on grids with rows outside the box, rows whose
envelope solve fails, rows whose evaluation leaves the domain of L, and
grids of several chunks whose failing rows sit first, last, side by side,
on both sides of a chunk boundary, or fill a chunk.
"""

import json
import os
import warnings

import numpy as np
import pytest

import corpus
import helpers
import transform_oracle
from legclair import cli, verify
from legclair.partition import partition_indices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("chained_pair", "oscillator")


def run_both(argv, capsys, monkeypatch, out_file=None):
    """(exit code, stdout, stderr, --out bytes) of the command and of the
    reference, in that order."""
    results = []
    for reference in (False, True):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(cli, "cmd_transform", transform_oracle.cmd_transform)
                m.setattr(cli, "cmd_analyze", transform_oracle.cmd_analyze)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        written = None
        if out_file is not None:
            with open(out_file, "rb") as fh:
                written = fh.read()
            os.remove(out_file)
        results.append((code, out, err, written))
    return results


def assert_same_as_reference(argv, capsys, monkeypatch, out_file=None):
    got, want = run_both(argv, capsys, monkeypatch, out_file)
    assert got == want
    return got


def corpus_problem(tmp_path, name):
    n, source, _ = corpus.SYSTEMS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"n": n, "lagrangian": source}))
    return str(path), n


def problem(tmp_path, lagrangian, domain):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "lagrangian": lagrangian,
                                "domain": domain}))
    return str(path)


# --------------------------------------------------------------------------
# transform
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_transform_shipped_problems_match_reference(name, tmp_path, capsys,
                                                    monkeypatch):
    path = os.path.join(ROOT, "problems", name + ".json")
    grids = ["--grid", "p1=-2.5:2.5:11", "--grid", "q1=-6,-1,0.3,5,6"]
    if name == "chained_pair":
        grids += ["--grid", "v2=-4,0.5,1", "--grid", "p2=0.25"]
    got = assert_same_as_reference(["transform", path] + grids, capsys,
                                   monkeypatch)
    assert got[0] == cli.EXIT_DOMAIN  # |q1| = 6 lies outside the box
    out_file = str(tmp_path / "table.csv")
    got = assert_same_as_reference(
        ["--out", out_file, "transform", path] + grids, capsys, monkeypatch,
        out_file)
    assert got[1] == "" and got[3].count(b"\n") > 50
    assert_same_as_reference(["transform", path], capsys, monkeypatch)


@pytest.mark.parametrize("name", sorted(corpus.SYSTEMS))
def test_transform_corpus_systems_match_reference(name, tmp_path, capsys,
                                                  monkeypatch):
    path, n = corpus_problem(tmp_path, name)
    # every momentum varies; q1 = 5 lies outside the default box [-2, 2]
    grids = [a for i in range(n)
             for a in ("--grid", f"p{i + 1}=-1.5:1.5:{4 + i}")]
    grids += ["--grid", "q1=-1,0.5,5"]
    got = assert_same_as_reference(["transform", path] + grids, capsys,
                                   monkeypatch)
    assert got[0] == cli.EXIT_DOMAIN
    assert "," + "domain\n" in got[1] and ",ok\n" in got[1]


def test_transform_out_of_box_rows_match_reference(tmp_path, capsys,
                                                   monkeypatch):
    path = problem(tmp_path, "0.5*v1^2", {"q1": [-2, 2]})
    got = assert_same_as_reference(["transform", path, "--grid", "q1=5"],
                                   capsys, monkeypatch)
    assert got[0] == cli.EXIT_DOMAIN


def test_transform_solver_rows_match_reference(tmp_path, capsys, monkeypatch):
    # W = 3 v1^2 vanishes at the start v1 = 0, so only p1 = 0 converges
    path = problem(tmp_path, "0.25*v1^4 + 0.5*q1^2", {"v1": [-1, 1]})
    got = assert_same_as_reference(["transform", path, "--grid", "p1=-2:2:9"],
                                   capsys, monkeypatch)
    assert got[0] == cli.EXIT_SOLVER
    statuses = [row.rsplit(",", 1)[1] for row in got[1].splitlines()[1:]]
    assert statuses == ["solver"] * 4 + ["ok"] + ["solver"] * 4


def test_transform_domain_error_rows_match_reference(tmp_path, capsys,
                                                     monkeypatch):
    # exp(v1) = p1 from v1 = -10: p1 = 1e308 takes an infinite first step,
    # whose evaluation overflows; p1 = -1 is out of reach of exp
    path = problem(tmp_path, "exp(v1)", {"v1": [-12, -8]})
    grid = "p1=1e-4,1e308,0.5,-1,1e308"
    got = assert_same_as_reference(["transform", path, "--grid", grid],
                                   capsys, monkeypatch)
    assert got[0] == cli.EXIT_SOLVER
    statuses = [row.rsplit(",", 1)[1] for row in got[1].splitlines()[1:]]
    assert statuses == ["ok", "domain", "ok", "solver", "domain"]
    got = assert_same_as_reference(
        ["transform", path, "--grid", "p1=1e-4,1e308,0.5"], capsys,
        monkeypatch)
    assert got[0] == cli.EXIT_DOMAIN


def test_transform_overflowing_newton_step_prints_nothing_to_stderr(
        tmp_path, capsys, monkeypatch):
    # the rows p1 = 1e308 take a Newton step that overflows to inf; they end
    # as domain rows, as in the reference, with no numpy warning on stderr
    path = problem(tmp_path, "exp(v1)", {"v1": [-12, -8]})
    argv = ["transform", path, "--grid", "p1=1e-4,1e308,0.5,-1,1e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_SOLVER, "")
    assert [str(w.message) for w in caught] == []
    assert run_both(argv, capsys, monkeypatch)[1] == (code, out, err, None)


def test_transform_failing_row_in_the_second_chunk_matches_reference(
        tmp_path, capsys, monkeypatch):
    helpers.set_chunk_rows(monkeypatch, 16)
    path = problem(tmp_path, "exp(v1)", {"v1": [-12, -8]})
    p1 = np.linspace(1e-4, 1.0, verify.CHUNK_ROWS + 40)
    p1[verify.CHUNK_ROWS + 17] = -1.0
    grid = "p1=" + ",".join(map(repr, p1.tolist()))
    got = assert_same_as_reference(["transform", path, "--grid", grid],
                                   capsys, monkeypatch)
    assert got[0] == cli.EXIT_SOLVER
    statuses = [row.rsplit(",", 1)[1] for row in got[1].splitlines()[1:]]
    assert len(statuses) == len(p1) > verify.CHUNK_ROWS
    assert [i for i, s in enumerate(statuses) if s != "ok"] == [
        verify.CHUNK_ROWS + 17]


# failing rows of a 20-row grid in chunks of 8 (rows 0-7, 8-15, 16-19): the
# index of each failing row and its status; p1 = -1 is out of reach of exp
# (solver) and p1 = 1e308 overflows its first Newton step (domain)
FAILING_ROWS = {
    "first": {0: "solver"},
    "last": {19: "domain"},
    "adjacent": {4: "solver", 5: "domain"},
    "both_sides_of_a_boundary": {7: "domain", 8: "solver"},
    "whole_chunk": {i: ("solver", "domain")[i % 2] for i in range(8, 16)},
    "scattered": {1: "domain", 3: "solver", 6: "solver", 17: "domain"},
}


@pytest.mark.parametrize("case", FAILING_ROWS)
def test_transform_failing_rows_match_reference(case, tmp_path, capsys,
                                                 monkeypatch):
    helpers.set_chunk_rows(monkeypatch, 8)
    path = problem(tmp_path, "exp(v1)", {"v1": [-12, -8]})
    p1 = np.linspace(1e-4, 1.0, 20)
    for i, status in FAILING_ROWS[case].items():
        p1[i] = -1.0 if status == "solver" else 1e308
    grid = "p1=" + ",".join(map(repr, p1.tolist()))
    got = assert_same_as_reference(["transform", path, "--grid", grid],
                                   capsys, monkeypatch)
    statuses = [row.rsplit(",", 1)[1] for row in got[1].splitlines()[1:]]
    want = FAILING_ROWS[case]
    assert statuses == [want.get(i, "ok") for i in range(20)]
    solver = "solver" in want.values()
    assert got[0] == (cli.EXIT_SOLVER if solver else cli.EXIT_DOMAIN)


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

@pytest.mark.parametrize("points", [0, 3, 17])
def test_analyze_matches_reference(points, tmp_path, capsys, monkeypatch):
    paths = [os.path.join(ROOT, "problems", name + ".json")
             for name in SHIPPED]
    paths += [corpus_problem(tmp_path, name)[0]
              for name in sorted(corpus.SYSTEMS)]
    for path in paths:
        for seed in (0, 5, 11):
            for json_flag in ([], ["--json"]):
                argv = json_flag + ["--seed", str(seed), "analyze", path,
                                    "--points", str(points)]
                got = assert_same_as_reference(argv, capsys, monkeypatch)
                assert got[0] == cli.EXIT_OK


def test_analyze_failing_sample_matches_reference(tmp_path, capsys,
                                                  monkeypatch):
    # W = 3 v1^2 vanishes at the start v1 = 0: the first sample's solve fails
    path = problem(tmp_path, "0.25*v1^4 + 0.5*q1^2", {"v1": [-1, 1]})
    got = assert_same_as_reference(["analyze", path, "--points", "5"],
                                   capsys, monkeypatch)
    assert got[0] == cli.EXIT_SOLVER and got[2].startswith("error: ")
    # dL/dv1 = v1/sqrt(1 + v1^2) never reaches |p1| >= 1, and W vanishes on
    # the way there, so exactly the samples with |p1| >= 1 fail: at seed 1
    # sample 5 alone, at seed 4 samples 1, 4 and 5, at seed 7 samples 1-4
    path = problem(tmp_path, "sqrt(1 + v1^2) + 0.5*q1^2", {"v1": [-2, 2]})
    for seed, first in ((1, 5), (4, 1), (7, 1)):
        system = cli.load_problem(path).system
        rng = np.random.default_rng(seed)
        system.sample(rng, 100)  # the |det W11| sweep's draw
        p1 = rng.uniform(system.domain_lo, system.domain_hi, (6, 2))[:, 1]
        assert np.flatnonzero(abs(p1) >= 1.0)[0] == first
        got = assert_same_as_reference(
            ["--seed", str(seed), "analyze", path, "--points", "6"],
            capsys, monkeypatch)
        assert got[0] == cli.EXIT_SOLVER and got[2].startswith("error: ")


def test_analyze_failing_det_sample_matches_reference(tmp_path, capsys,
                                                      monkeypatch):
    # L leaves the domain of sqrt only where |q1 - 0.3| < 0.0141: the
    # partition's 64 seed-0 samples miss that slab, and the |det W11| sweep
    # at seed 9 meets it at its samples 42 and 83; 42 raises
    path = problem(tmp_path, "0.5*v1^2*(1 + 1/sqrt((q1 - 0.3)^2 - 0.0002))",
                   {"q1": [-1, 1], "v1": [-0.5, 0.5]})
    system = cli.load_problem(path).system
    assert partition_indices(system).regular == (0,)
    q1 = system.sample(np.random.default_rng(9), 100)[:, 0]
    assert np.flatnonzero((q1 - 0.3) ** 2 < 0.0002).tolist() == [42, 83]
    got = assert_same_as_reference(["--seed", "9", "analyze", path], capsys,
                                   monkeypatch)
    assert got[0] == cli.EXIT_DOMAIN
    assert got[2].startswith("error: sqrt needs a positive argument")
