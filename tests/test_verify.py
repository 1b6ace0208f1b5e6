"""The stacked property suite against the sample-by-sample reference.

``verify_oracle.py`` keeps the suite as it was before its properties ran on
stacked samples.  The stacked suite must report the same statuses, sample
counts and worst values, end in the same CLI error where a property cannot
be evaluated, and give the same results whatever its chunk size.  The
stacked maps of ``MixedHamiltonian`` must equal the single-point maps row by
row.
"""

import json
import os

import numpy as np
import pytest

import corpus
import verify_oracle
from legclair import cli, verify
from legclair.clairaut import MixedHamiltonian, SingularJacobianError
from legclair.expr import EvalDomainError
from legclair.partition import LagrangianSystem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("chained_pair", "oscillator")


def shipped_system(name):
    with open(os.path.join(ROOT, "problems", name + ".json")) as fh:
        raw = json.load(fh)
    return LagrangianSystem.from_source(raw["n"], raw["lagrangian"],
                                        raw["domain"])


SYSTEMS = {name: corpus.make_system for name in corpus.SYSTEMS}
SYSTEMS.update({name: shipped_system for name in SHIPPED})


def assert_same_results(got, want):
    assert list(map(repr, got)) == list(map(repr, want))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_suite_matches_reference(name):
    ham = MixedHamiltonian.from_system(SYSTEMS[name](name))
    for seed in range(10):
        assert_same_results(
            verify.run_property_suite(ham, 50, seed, 1e-6, 1e-7),
            verify_oracle.run_property_suite(ham, 50, seed, 1e-6, 1e-7),
        )


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_reports_are_byte_identical_to_reference(name, capsys,
                                                         monkeypatch):
    path = os.path.join(ROOT, "problems", name + ".json")
    for argv in (["verify", path], ["--json", "--seed", "11", "verify", path]):
        got = run_cli(argv, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "run_property_suite",
                      verify_oracle.run_property_suite)
            assert run_cli(argv, capsys) == got


# (lagrangian, domain): W11 = v1^2 is singular at the Newton start v1 = 0;
# exp(v1) has a first Newton trial that overflows and is halved, after
# which the inverse transform cannot reduce its residual
FAILING = {
    "singular_start": ("v1^4/12", {"v1": [-1, 1]}),
    "overflowing_trial": ("exp(v1) + 5e-7*v1^2 - 13*v1", {"v1": [-12, -8]}),
    "unreachable_momenta": ("exp(v1)", {"v1": [-12, -8]}),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_inputs_end_in_the_reference_error(case, tmp_path, capsys,
                                                   monkeypatch):
    lagrangian, domain = FAILING[case]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "lagrangian": lagrangian,
                                "domain": domain, "verify": {"samples": 30}}))
    single_calls = []
    residual = MixedHamiltonian.clairaut_residual

    def counted(self, *args):
        single_calls.append(args)
        return residual(self, *args)

    with monkeypatch.context() as m:
        m.setattr(MixedHamiltonian, "clairaut_residual", counted)
        got = run_cli(["verify", str(path)], capsys)
    with monkeypatch.context() as m:
        m.setattr(cli, "run_property_suite", verify_oracle.run_property_suite)
        want = run_cli(["verify", str(path)], capsys)
    assert got == want
    assert got[0] == cli.EXIT_SOLVER and got[2].startswith("error: ")
    if case == "overflowing_trial":
        # the stacked solve gave up on the overflow, and the single-point
        # maps took over the chunk and halved the step
        assert len(single_calls) == 30
        assert got[2].startswith(
            "error: backtracking could not reduce the inverse-transform "
            "residual; residual history [11.1574")


def test_stacked_solve_gives_up_where_solve_halves():
    system = LagrangianSystem.from_source(1, "exp(v1)", {"v1": (-12.0, -8.0)})
    solver = MixedHamiltonian.from_system(system).solver
    assert abs(solver.solve([0.0], [1.0], [])[0]) <= 1e-12
    with pytest.raises(EvalDomainError, match="overflow"):
        solver.solve_many([[0.0]], [[1.0]], np.zeros((1, 0)))


def test_stacked_solve_names_the_first_singular_lane():
    system = LagrangianSystem.from_source(1, "v1^4/12", {"v1": (-1.0, 1.0)})
    solver = MixedHamiltonian.from_system(system).solver
    q, p1, c2 = np.zeros((3, 1)), np.full((3, 1), 0.5), np.zeros((3, 0))
    guess = [[1.0], [0.0], [-0.0]]
    with pytest.raises(SingularJacobianError) as err:
        solver.solve_many(q, p1, c2, guess)
    with pytest.raises(SingularJacobianError) as one:
        solver.solve(q[1], p1[1], c2[1], guess[1])
    assert str(err.value) == str(one.value)


@pytest.mark.parametrize("name", ["deg3", "coupled", "chained_pair"])
def test_chunk_size_does_not_change_results(name, monkeypatch):
    ham = MixedHamiltonian.from_system(SYSTEMS[name](name))
    want = verify.run_property_suite(ham, 60, 3, 1e-6, 1e-7)
    monkeypatch.setattr(verify, "CHUNK_ROWS", 7)
    got = verify.run_property_suite(ham, 60, 3, 1e-6, 1e-7)
    assert_same_results(got, want)


# --------------------------------------------------------------------------
# stacked maps against the single-point maps
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(corpus.SYSTEMS))
def test_stacked_maps_equal_single_point_maps(name):
    system = corpus.make_system(name)
    ham = MixedHamiltonian.from_system(system)
    n, reg, nonreg = ham.n, list(ham._reg), list(ham._nonreg)
    rng = np.random.default_rng(5)
    x = system.sample(rng, 40)
    q, v = x[:, :n], x[:, n:]
    v2 = v[:, nonreg]
    p = rng.uniform(system.domain_lo[n:], system.domain_hi[n:], (40, n))
    probe = rng.uniform(system.domain_lo[n:], system.domain_hi[n:],
                        (40, n))[:, nonreg]
    pairs = [
        (ham.solver.solve_many(q, p[:, reg], v2),
         [ham.solver.solve(*a) for a in zip(q, p[:, reg], v2)]),
        (ham.value_many(q, p, v2), [ham.value(*a) for a in zip(q, p, v2)]),
        (ham.psi_many(q, p[:, reg], probe),
         [ham.psi(*a) for a in zip(q, p[:, reg], probe)]),
        (ham.phi_many(q, p), [ham.phi(*a) for a in zip(q, p)]),
        (ham.h_zero_many(q, p[:, reg]),
         [ham.h_zero(*a) for a in zip(q, p[:, reg])]),
        (ham.clairaut_residual_many(q, p, v2),
         [ham.clairaut_residual(*a) for a in zip(q, p, v2)]),
        (ham.inverse_transform_many(q, v, p[:, nonreg]),
         [ham.inverse_transform(*a) for a in zip(q, v, p[:, nonreg])]),
    ]
    for got, want in pairs:
        want = np.array(want).reshape(got.shape)
        assert got.tobytes() == want.tobytes()


def test_stacked_solve_backtracks_like_solve():
    # W11 = (1 + v1^2)^-1.5 is tiny far from 0 and negative for the second
    # Lagrangian, so full Newton steps overshoot and are halved, per lane
    for source in ("sqrt(1+v1^2) + q1*v1", "-sqrt(1+v1^2) + q1*v1"):
        system = LagrangianSystem.from_source(1, source, {"v1": (-2.0, 2.0)})
        solver = MixedHamiltonian.from_system(system).solver
        rng = np.random.default_rng(2)
        q = rng.uniform(-0.1, 0.1, (60, 1))
        p1 = rng.uniform(-0.8, 0.8, (60, 1))
        guess = rng.uniform(-6.0, 6.0, (60, 1))
        c2 = np.zeros((60, 0))
        got = solver.solve_many(q, p1, c2, guess)
        want = [solver.solve(*a) for a in zip(q, p1, c2, guess)]
        assert got.tobytes() == np.array(want).tobytes()


def test_worst_values_skip_nan_samples_as_max_does(monkeypatch):
    ham = MixedHamiltonian.from_system(corpus.make_system("osc"))
    values = [np.nan, 2e-7, np.nan, 1e-7]
    monkeypatch.setattr(ham, "clairaut_residual_many",
                        lambda *args: np.array(values))
    stream = iter(values)
    monkeypatch.setattr(ham, "clairaut_residual", lambda *args: next(stream))
    got = verify.run_property_suite(ham, 4, 0, 1e-6, 1e-7)[0]
    want = verify_oracle.run_property_suite(ham, 4, 0, 1e-6, 1e-7)[0]
    assert vars(got) == vars(want) and got.worst == 2e-7


def test_stacked_maps_check_shapes():
    ham = MixedHamiltonian.from_system(corpus.make_system("deg1"))
    with pytest.raises(ValueError, match="p has shape"):
        ham.value_many(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"c2 has shape \(2, 1\), expected "
                                         r"\(3, 1\)"):
        ham.solver.solve_many(np.zeros((3, 2)), np.zeros((3, 1)),
                              np.zeros((2, 1)))
