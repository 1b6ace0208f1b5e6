"""The CLI contract on random systems: every command ends in a documented
verdict.

Random n = 2 Lagrangians on [-1, 1]^4 (``helpers``' random trees, smooth
and polynomial sources, and a k = 1 family with a q-dependent linear term)
run ``analyze`` (text and ``--json``), ``verify``, ``integrate --method
both`` and ``transform``, each twice.  Their velocity Hessians vary and
most hold transcendental terms, so the envelope solves meet W11 blocks that
are neither constant nor known at generation.  For each command:

(a) no exception escapes ``cli.main``, and the exit code is documented;
(b) every exit-0 report and CSV is finite, apart from the monitor column
    of the other flow, which holds ``nan``;
(c) the rerun writes the same bytes;
(d) stderr holds one ``error:`` line exactly when the exit code is not 0,
    but for ``transform``'s row verdicts, which README's ``transform``
    section and exit-code table document: a failing row exits 4 (a row
    marked ``solver``) or 5 (a row marked ``domain``, and none ``solver``)
    with no ``error:`` line, and the table is the report.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from legclair import cli
from legclair.expr import EvalDomainError, evaluate, parse, to_source
from legclair.partition import qv_names

NAMES = qv_names(2)
DOCUMENTED = {0, 2, 3, 4, 5, 6, 7}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# the monitor a flow does not compute, documented as a nan column
OTHER_MONITOR = {"trajectory_el.csv": "hs3_res",
                 "trajectory_ham.csv": "el_i2_res"}


def random_source(rng, kind):
    if kind == "tree":
        return to_source(helpers.random_tree(rng, NAMES))
    if kind == "k1_family":
        # 0.5*(a*v1 + b*v2)^2 + f(q)*v2 - U(q): W has rank 1
        a, b = (round(float(x), 3) for x in rng.uniform(0.5, 2.0, 2))
        f = to_source(helpers.random_tree(rng, NAMES[:2], 2))
        u = helpers.random_smooth_source(rng, NAMES[:2])
        return f"0.5*({a!r}*v1 + {b!r}*v2)^2 + ({f})*v2 - ({u})"
    return getattr(helpers, f"random_{kind}_source")(rng, NAMES)


def run(argv, out_dir=None):
    """(exit code, stdout, stderr, {CSV name: bytes}) of one ``cli.main``
    call; with ``out_dir``, the command writes there (``--out``) and the
    directory's name reads ``<out>`` in stdout and stderr."""
    if out_dir is not None:
        argv = ["--out", out_dir, *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = {}
    if out_dir is not None and os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    out, err = out.getvalue(), err.getvalue()
    if out_dir is not None:
        out, err = (x.replace(out_dir, "<out>") for x in (out, err))
    return code, out, err, files


def assert_finite_csv(name, data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    other = header.index(OTHER_MONITOR[name])
    for row in body:
        for j, cell in enumerate(row):
            if j == other:
                assert cell == "nan", (name, row)
            else:
                assert math.isfinite(float(cell)), (name, row)


def gauge_fields(rng, problem):
    """The gauge and initial data for ``integrate``: a random tree over q
    for each unresolved velocity (from ``analyze --json``), whose initial
    value is the gauge at q0 where it evaluates."""
    code, out, _, _ = run(["--json", "analyze", problem])
    if code != 0:
        return {}
    unresolved = json.loads(out)["unresolved"]
    q0 = rng.uniform(-0.5, 0.5, 2)
    v0 = rng.uniform(-0.5, 0.5, 2)
    gauge = {}
    for name in unresolved:
        tree = to_source(helpers.random_tree(rng, NAMES[:2], 2))
        gauge[name] = tree
        try:
            v0[NAMES.index(name) - 2] = evaluate(parse(tree, NAMES[:2]), q0)
        except EvalDomainError:
            pass
    return {"gauge": gauge,
            "initial": {"q": q0.tolist(), "v": v0.tolist()}}


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["tree", "smooth", "polynomial", "k1_family"]))
def test_every_command_ends_in_a_documented_verdict(seed, kind):
    rng = np.random.default_rng(seed)
    fields = {
        "n": 2, "lagrangian": random_source(rng, kind),
        "domain": {name: [-1.0, 1.0] for name in NAMES},
        "integrate": {"t0": 0.0, "t1": 0.02, "dt": 0.01},
        "verify": {"samples": 6, "seed": 0},
    }
    with tempfile.TemporaryDirectory() as work:
        problem = os.path.join(work, "problem.json")
        with open(problem, "w") as fh:
            json.dump(fields, fh)
        fields.update(gauge_fields(rng, problem))
        with open(problem, "w") as fh:
            json.dump(fields, fh)
        for argv, writes in ((["analyze", problem], False),
                             (["--json", "analyze", problem], False),
                             (["verify", problem], False),
                             (["transform", problem, "--grid", "p1=-1:1:3"],
                              False),
                             (["integrate", problem, "--method", "both"],
                              True)):
            # (a): nothing escapes cli.main
            first, again = (
                run(argv, os.path.join(work, f"run{i}") if writes else None)
                for i in range(2))
            assert first == again, argv  # (c)
            code, out, err, files = first
            assert code in DOCUMENTED, (argv, code, err)
            # (d)
            if err or argv[0] != "transform":
                assert err.startswith("error: ") == (code != 0), (argv, err)
                assert err.count("\n") == (code != 0), (argv, code, err)
            else:
                status = {line.rsplit(",", 1)[1]
                          for line in out.splitlines()[1:]}
                assert code == (4 if "solver" in status else
                                5 if "domain" in status else 0), (out, code)
            if code == 0:  # (b)
                assert not NON_FINITE.search(out), (argv, out)
                for name, data in files.items():
                    assert_finite_csv(name, data)
