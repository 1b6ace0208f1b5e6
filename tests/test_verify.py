"""The stacked property suite against the sample-by-sample reference.

``verify_oracle.py`` keeps the suite as it was before its properties ran on
stacked samples.  The stacked suite must report the same statuses, sample
counts and worst values, end in the same CLI error where a property cannot
be evaluated, and give the same results whatever its chunk size.  The
stacked maps of ``MixedHamiltonian`` must equal the reference single-point
maps of ``maps_oracle.py`` (and the envelope Newton ``helpers.
reference_newton``) row by row, and the single-point maps, now one-row
calls of the stacked ones, must check their arguments and return as the
reference does.
"""

import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import helpers
import maps_oracle
import verify_oracle
from legclair import clairaut, cli, verify
from legclair.clairaut import (
    EnvelopeSolver,
    MixedHamiltonian,
    SingularJacobianError,
)
from legclair.expr import EvalDomainError, to_source
from legclair.partition import (
    LagrangianSystem,
    RankNotConstantError,
    partition_indices,
    qv_names,
)

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
# which the inverse transform cannot reduce its residual; exp(v1) - exp(v2)
# cannot reach p1 <= 0 or p2 >= 0, and its Newton meets a singular W11
FAILING = {
    "singular_start": ("v1^4/12", {"v1": [-1, 1]}),
    "overflowing_trial": ("exp(v1) + 5e-7*v1^2 - 13*v1", {"v1": [-12, -8]}),
    "unreachable_momenta": ("exp(v1)", {"v1": [-12, -8]}),
    "two_exponentials": ("exp(v1) - exp(v2)", {"v1": [-1, 1], "v2": [-1, 1]}),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_inputs_end_in_the_reference_error(case, tmp_path, capsys,
                                                   monkeypatch):
    lagrangian, domain = FAILING[case]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": len(domain), "lagrangian": lagrangian,
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
    # the suite reaches the reference error through the stacked maps alone
    assert single_calls == []
    if case == "overflowing_trial":
        assert got[2].startswith(
            "error: backtracking could not reduce the inverse-transform "
            "residual; residual history [11.1574")


def test_singular_classical_start_exits_with_a_solver_error(tmp_path, capsys):
    # regular on [0.5, 1], but the classical Newton of regular_reduction
    # starts at v1 = 0, where the velocity Hessian v1^2 vanishes
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 1, "lagrangian": "v1^4/12",
                                "domain": {"v1": [0.5, 1]}}))
    code, _, err = run_cli(["verify", str(path)], capsys)
    assert code == cli.EXIT_SOLVER
    assert err == ("error: velocity Hessian is singular at classical Newton "
                   "iterate v=[0.0]\n")


def test_stacked_residual_meets_errors_in_the_single_point_order():
    # the shifted momenta p - e1 and p + e2 both meet a singular W11, at
    # mirrored iterates; the single-point map calls p - e1 first, so a stack
    # ordered p, +e1, +e2, -e1, -e2 would name the other iterate
    system = LagrangianSystem.from_source(
        2, "exp(v1) - exp(v2)", {"v1": (-1.0, 1.0), "v2": (-1.0, 1.0)})
    ham = MixedHamiltonian.from_system(system)
    q, p, v2 = np.zeros(2), np.array([1e-7, -1e-7]), np.zeros(0)
    with pytest.raises(Exception) as one:
        maps_oracle.clairaut_residual(ham, q, p, v2)
    with pytest.raises(Exception) as many:
        ham.clairaut_residual_many(q[None], p[None], v2[None])
    assert type(many.value) is type(one.value)
    assert str(many.value) == str(one.value)


def error_outcome(err):
    """An error as (type, message, residual history or None)."""
    return type(err), str(err), getattr(err, "residual_history", None)


def outcome(call):
    """The value of ``call()``, or its error as :func:`error_outcome`."""
    try:
        return call()
    except Exception as err:
        return error_outcome(err)


def reference(solver, q, p1, c2, guess=None):
    """The outcome of ``helpers.reference_newton`` at one row, the envelope
    Newton written apart from the lane driver."""
    return outcome(lambda: helpers.reference_newton(solver, q, p1, c2,
                                                    guess))


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# (lagrangian, domain, p1 rows, guess rows or None, solver limits, how
# the reference Newton ends at each row)
LANE_STACKS = {
    # p1 = 1 from v1 = -10: the first trial overflows, is finite, and is
    # halved; p1 = -1 is out of reach; a NaN guess fails the first evaluation
    "overflowing_trial": (
        "exp(v1)", {"v1": (-12.0, -8.0)}, [1.0, 1e-4, -1.0, 3.0],
        [-10.0, -10.0, -10.0, np.nan], {},
        ["converged", "converged", "SingularJacobianError", "EvalDomainError"],
    ),
    "singular_guess": (
        "v1^4/12", {"v1": (-1.0, 1.0)}, [0.5, 0.5, 0.5, 0.5, -0.2],
        [1.0, 0.0, 0.5, -0.0, 2.0], {},
        ["converged", "SingularJacobianError", "converged",
         "SingularJacobianError", "converged"],
    ),
    # a lane that has converged at its guess leaves before the W11 = 1e-8
    # lane's first trial overflows to inf, which ends that lane
    "non_finite_trial": (
        "v1^4/12", {"v1": (-1.0, 1.0)}, [1 / 3, 1e305, 0.5, 3.0],
        [1.0, 1e-4, 1.0, np.nan], {},
        ["converged", "EvalDomainError", "converged", "EvalDomainError"],
    ),
    # an exactly singular 2x2 block must not stop the other lanes' solve
    "singular_2x2_guess": (
        "v1^4/12 + v2^4/12", {"v1": (-1.0, 1.0), "v2": (-1.0, 1.0)},
        [[0.5, 0.5], [0.5, 0.5], [0.1, -0.2]],
        [[1.0, 1.0], [0.0, 0.0], [0.5, -0.5]], {},
        ["converged", "SingularJacobianError", "converged"],
    ),
    # the same with 3x3 blocks, which only the SVD decides
    "singular_3x3_guess": (
        "v1^4/12 + v2^4/12 + v3^4/12",
        {"v1": (-1.0, 1.0), "v2": (-1.0, 1.0), "v3": (-1.0, 1.0)},
        [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.1, -0.2, 0.3]],
        [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.5, -0.5, 0.5]], {},
        ["converged", "SingularJacobianError", "converged"],
    ),
    "backtracking_exhausted": (
        "-cos(v1)", {"v1": (-1.0, 1.0)}, [2.0, 0.5, -1.2, 0.99], None, {},
        ["NewtonDivergedError", "converged", "NewtonDivergedError",
         "converged"],
    ),
    "iterations_exhausted": (
        "exp(v1)", {"v1": (-12.0, -8.0)}, [1.0, -1.0, 1e-4, 1e-5], None,
        {"max_iter": 4},
        ["NewtonDivergedError", "SingularJacobianError",
         "NewtonDivergedError", "NewtonDivergedError"],
    ),
    "two_dof": (
        "exp(v1) - exp(v2)", {"v1": (-1.0, 1.0), "v2": (-1.0, 1.0)},
        [[1e-7, -1e-7], [1.1000001e-6, -1e-7], [-9.000001e-7, -1e-7],
         [1e-7, 9.000001e-7], [1e-7, -1.1000001e-6]], None, {},
        ["converged", "converged", "SingularJacobianError",
         "SingularJacobianError", "converged"],
    ),
    # W11 = [[1, 0], [0, v2^2]]: three entries known at generation stay
    # floats beside a lane column, and a guess with v2 = 0 is singular
    "partly_known_w11": (
        "0.5*v1^2 + v2^4/12", {"v1": (-1.0, 1.0), "v2": (-1.0, 1.0)},
        [[0.5, 0.1], [0.5, 0.1], [-0.3, -0.2], [0.2, 0.3]],
        [[1.0, 1.0], [0.5, 0.0], [0.0, -0.5], [0.5, -0.0]], {},
        ["converged", "SingularJacobianError", "converged",
         "SingularJacobianError"],
    ),
    # a constant W11, decided once on floats: the NaN guess fails its first
    # evaluation while the other lanes converge
    "known_w11": (
        "0.5*v1^2 + 0.5*v2^2 + 0.25*v1*v2",
        {"v1": (-1.0, 1.0), "v2": (-1.0, 1.0)},
        [[0.5, 0.1], [0.5, 0.1], [-0.3, 0.2]],
        [[1.0, 1.0], [np.nan, 0.0], [0.5, -0.5]], {},
        ["converged", "EvalDomainError", "converged"],
    ),
}


def row_orders(count):
    """The rows in their given order, reversed, and shuffled: lanes leave a
    stack in another order, and each must still end under its own row."""
    given, rng = np.arange(count), np.random.default_rng(0)
    shuffled = given
    while shuffled[0] in (0, count - 1):  # neither given nor reversed
        shuffled = rng.permutation(count)
    return given, given[::-1], shuffled


@pytest.mark.parametrize("case", sorted(LANE_STACKS))
def test_solve_lanes_end_as_solve_ends(case):
    source, domain, p1_given, guess_given, limits, kinds = LANE_STACKS[case]
    n = len(domain)
    system = LagrangianSystem.from_source(n, source, domain)
    partition = MixedHamiltonian.from_system(system).partition
    solver = EnvelopeSolver(system, partition, **limits)
    count = len(p1_given)
    q, c2 = np.zeros((count, n)), np.zeros((count, 0))
    p1_given = np.array(p1_given, dtype=float).reshape(count, n)
    for order in row_orders(count):
        p1 = p1_given[order]
        guess = None if guess_given is None else np.c_[guess_given][order]
        out, failed = solver.solve_lanes(q, p1, c2, guess)
        want = [reference(solver, q[i], p1[i], c2[i],
                          None if guess is None else guess[i])
                for i in range(count)]
        for i, w in enumerate(want):
            if i in failed:
                err = failed.pop(i)
                assert np.isnan(out[i]).all()
                assert_same_outcome(error_outcome(err), w)
            else:
                assert_same_outcome(out[i], w)
        assert not failed
        assert [w[0].__name__ if isinstance(w, tuple) else "converged"
                for w in want] == [kinds[i] for i in order]
        first = next((w for w in want if isinstance(w, tuple)), out)
        assert_same_outcome(
            outcome(lambda: solver.solve_many(q, p1, c2, guess)), first)


def random_lagrangian(rng, kind):
    """The first of up to ten random n = 2 Lagrangians of ``kind`` (a
    ``helpers`` random source) on [-1, 1]^4 that partitions with k > 0, as
    (system, partition), or None."""
    names = qv_names(2)
    for _ in range(10):
        if kind == "tree":
            source = to_source(helpers.random_tree(rng, names))
        else:
            source = getattr(helpers, f"random_{kind}_source")(rng, names)
        system = LagrangianSystem.from_source(
            2, source, {name: (-1.0, 1.0) for name in names})
        try:
            partition = partition_indices(system)
        except (RankNotConstantError, EvalDomainError):
            continue
        if partition.k:
            return system, partition
    return None


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["smooth", "polynomial", "tree"]), st.booleans())
def test_solve_lanes_rows_end_as_solve_on_random_systems(seed, kind,
                                                          guessed):
    # constant, partly known and varying W11 blocks; lanes that converge,
    # meet a singular W11, diverge or leave L's domain
    rng = np.random.default_rng(seed)
    drawn = random_lagrangian(rng, kind)
    if drawn is None:
        return
    solver = EnvelopeSolver(*drawn)
    k, count = solver.partition.k, 6
    q = rng.uniform(-1.0, 1.0, (count, 2))
    p1 = rng.uniform(-2.0, 2.0, (count, k))
    c2 = rng.uniform(-1.0, 1.0, (count, 2 - k))
    guess = rng.uniform(-1.0, 1.0, (count, k)) if guessed else None
    out, failed = solver.solve_lanes(q, p1, c2, guess)
    for i in range(count):
        want = reference(solver, q[i], p1[i], c2[i],
                         None if guess is None else guess[i])
        if i in failed:
            err = failed.pop(i)
            assert np.isnan(out[i]).all()
            assert_same_outcome(error_outcome(err), want)
        else:
            assert_same_outcome(out[i], want)
    assert not failed


@pytest.mark.parametrize("source, domain", [
    # nested envelope solves that exhaust their backtracking
    ("-cos(v1)", (-1.5, 1.5)),
    # an outer inverse-transform Newton that exhausts its backtracking, or
    # (for 8 and 11 iterations) its iterations while others converge
    ("exp(v1) + 5e-7*v1^2 - 13*v1", (-12.0, -8.0)),
])
@pytest.mark.parametrize("max_iter", [2, 8, 11, 50])
def test_inverse_transform_many_ends_as_inverse_transform_ends(
        source, domain, max_iter):
    system = LagrangianSystem.from_source(1, source, {"v1": domain})
    partition = MixedHamiltonian.from_system(system).partition
    ham = MixedHamiltonian(system, partition,
                           EnvelopeSolver(system, partition, max_iter=max_iter))
    v = np.linspace(*domain, 9)[::-1, None]
    q, p2 = np.zeros((9, 1)), np.zeros((9, 0))
    want = [outcome(lambda: maps_oracle.inverse_transform(ham, *a))
            for a in zip(q, v, p2)]
    assert any(isinstance(w, tuple) for w in want)
    for row, w in enumerate(want):
        one = slice(row, row + 1)
        got = outcome(lambda: ham.inverse_transform_many(q[one], v[one],
                                                         p2[one]))
        assert_same_outcome(got if isinstance(got, tuple) else got[0], w)
    for order in row_orders(len(v)):
        first = next((want[i] for i in order if isinstance(want[i], tuple)),
                     None)
        got = outcome(lambda: ham.inverse_transform_many(q, v[order], p2))
        assert_same_outcome(got, first)


def test_stacked_solve_names_the_first_singular_lane():
    system = LagrangianSystem.from_source(1, "v1^4/12", {"v1": (-1.0, 1.0)})
    solver = MixedHamiltonian.from_system(system).solver
    q, p1, c2 = np.zeros((3, 1)), np.full((3, 1), 0.5), np.zeros((3, 0))
    guess = [[1.0], [0.0], [-0.0]]
    with pytest.raises(SingularJacobianError) as err:
        solver.solve_many(q, p1, c2, guess)
    with pytest.raises(SingularJacobianError) as one:
        helpers.reference_newton(solver, q[1], p1[1], c2[1], guess[1])
    assert str(err.value) == str(one.value)


def test_distinct_rows_come_in_the_order_they_first_occur():
    # rank_agreement solves these rows, so the lowest failing stencil point
    # is the first occurrence of the lowest failing row; rows compare bit
    # for bit, so -0.0 and 0.0 stay apart
    x = np.array([[1.0, 2.0], [0.5, 2.0], [1.0, 2.0], [-0.0, 1.0],
                  [0.0, 1.0], [0.5, 2.0]])
    first, inverse = verify._distinct_rows(x)
    assert first.tolist() == [0, 1, 3, 4]
    assert inverse.tolist() == [0, 1, 0, 2, 3, 1]
    assert x[first][inverse].tobytes() == x.tobytes()


@pytest.mark.parametrize("name", ["deg3", "coupled", "chained_pair"])
def test_chunk_size_does_not_change_results(name, monkeypatch):
    ham = MixedHamiltonian.from_system(SYSTEMS[name](name))
    want = verify.run_property_suite(ham, 60, 3, 1e-6, 1e-7)
    monkeypatch.setattr(clairaut, "CHUNK_ROWS", 7)
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
    solve = functools.partial(helpers.reference_newton, ham.solver)
    pairs = [
        (ham.solver.solve_many(q, p[:, reg], v2),
         [solve(*a) for a in zip(q, p[:, reg], v2)]),
        (ham.value_many(q, p, v2),
         [maps_oracle.value(ham, *a) for a in zip(q, p, v2)]),
        (ham.phi_many(q, p), [maps_oracle.phi(ham, *a) for a in zip(q, p)]),
        (ham.clairaut_residual_many(q, p, v2),
         [maps_oracle.clairaut_residual(ham, *a) for a in zip(q, p, v2)]),
        (ham.inverse_transform_many(q, v, p[:, nonreg]),
         [maps_oracle.inverse_transform(ham, *a)
          for a in zip(q, v, p[:, nonreg])]),
    ]
    # V, Psi and H0 of envelope_many, at the drawn probes and at the default
    refs = (solve, lambda *a: maps_oracle.psi(ham, *a),
            lambda *a: maps_oracle.h_zero(ham, *a))
    for c2, given in [(probe, probe), ([ham.default_probe()] * len(q), None)]:
        env = ham.envelope_many(q, p[:, reg], given)
        pairs += [(got, [ref(*a) for a in zip(q, p[:, reg], c2)])
                  for got, ref in zip(env, refs)]
    for got, want in pairs:
        want = np.array(want).reshape(got.shape)
        assert got.tobytes() == want.tobytes()


# (map, arguments): deg1 has n = 2 and k = 1; the last call of each map is
# well formed
ONE_ROW_CALLS = [
    ("value", ([0.1, 0.2], [1.0, 2.0, 3.0], [0.5])),
    ("value", ([0.1], [1.0, 2.0], [0.5])),
    ("value", ([0.1, 0.2], [1.0, 2.0], [0.5, 0.5])),
    ("value", ([0.1, 0.2], [1.0, 2.0], [0.5], [0.7])),
    ("phi", ([0.1, 0.2], [1.0])),
    ("phi", ([0.1, 0.2, 0.3], [1.0, 2.0])),
    ("phi", ([0.1, 0.2], [1.0, 2.0], [])),
    ("phi", ([0.1, 0.2], [1.0, 2.0], [0.5], [0.3])),
    ("h_zero", ([0.1], [1.0])),
    ("h_zero", ([0.1, 0.2], [1.0, 2.0])),
    ("h_zero", ([0.1, 0.2], [1.0], [0.5, 0.5])),
    ("h_zero", ([0.1, 0.2], [1.0], [0.5])),
    ("clairaut_residual", ([0.1, 0.2], [1.0], [0.5])),
    ("clairaut_residual", ([], [1.0, 2.0], [0.5])),
    ("clairaut_residual", ([0.1, 0.2], [1.0, 2.0], [])),
    ("clairaut_residual", ([0.1, 0.2], [1.0, 2.0], [0.5])),
    ("inverse_transform", ([0.1, 0.2], [1.0], [0.5])),
    ("inverse_transform", ([0.1, 0.2], [1.0, 1.0], [0.5, 0.5])),
    ("inverse_transform", ([0.1], [1.0, 1.0], [0.5])),
    ("inverse_transform", ([0.1, 0.2], [1.0, 1.0], [0.5], [0.0, 0.0])),
    ("inverse_transform", ([0.1, 0.2], [1.0, 1.0], [0.5], [0.9])),
    ("psi", ([0.1], [1.0])),
    ("psi", ([0.1, 0.2], [1.0, 2.0])),
    ("psi", ([0.1, 0.2], [1.0], [0.5, 0.5])),
    ("psi", ([0.1, 0.2], [1.0], [0.5], [0.3])),
]


@pytest.mark.parametrize("name, args", ONE_ROW_CALLS)
def test_single_point_maps_check_and_return_as_the_reference(name, args):
    ham = MixedHamiltonian.from_system(corpus.make_system("deg1"))
    got = outcome(lambda: getattr(ham, name)(*args))
    want = outcome(lambda: getattr(maps_oracle, name)(ham, *args))
    assert type(got) is type(want)
    assert_same_outcome(got, want)


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
        want = [helpers.reference_newton(solver, *a)
                for a in zip(q, p1, c2, guess)]
        assert got.tobytes() == np.array(want).tobytes()


def test_worst_values_skip_nan_samples_as_max_does(monkeypatch):
    ham = MixedHamiltonian.from_system(corpus.make_system("osc"))
    values = [np.nan, 2e-7, np.nan, 1e-7]
    monkeypatch.setattr(ham, "clairaut_residual_at",
                        lambda *args: np.array(values))
    stream = iter(values)
    monkeypatch.setattr(maps_oracle, "clairaut_residual",
                        lambda *args: next(stream))
    got = verify.run_property_suite(ham, 4, 0, 1e-6, 1e-7)[0]
    want = verify_oracle.run_property_suite(ham, 4, 0, 1e-6, 1e-7)[0]
    assert vars(got) == vars(want) and got.worst == 2e-7


def residual_samples(ham, samples, monkeypatch):
    """The q rows of the Clairaut residual's samples, in order, and the
    sizes of its stacked calls; the residual reads 0 at every sample."""
    seen = []

    def stacked(q, p, v2, v1, v1_stencil):
        seen.append(q.copy())
        return np.zeros(len(q))

    with monkeypatch.context() as m:
        m.setattr(ham, "clairaut_residual_at", stacked)
        verify.run_property_suite(ham, samples, 0, 1e-6, 1e-7)
    return np.concatenate(seen), [len(q) for q in seen]


def fail_residual_at(ham, failing_q, monkeypatch):
    """Make the Clairaut residual raise at the samples whose q1 is in
    ``failing_q``: the single-point map at its own sample, the stacked map
    at the last such sample of its rows.  Returns the stacked map's calls."""
    calls = []

    def single(ham, q, p, v2):
        if q[0] in failing_q:
            raise SingularJacobianError(f"sample at q={q.tolist()}")
        return 0.0

    def stacked(q, p, v2, v1, v1_stencil):
        calls.append(len(q))
        failing = [i for i, row in enumerate(q) if row[0] in failing_q]
        if failing:
            single(ham, q[failing[-1]], p, v2)
        return np.zeros(len(q))

    monkeypatch.setattr(maps_oracle, "clairaut_residual", single)
    monkeypatch.setattr(ham, "clairaut_residual_at", stacked)
    return calls


# (chunk rows, indices of the failing samples among 20)
FAILING_SAMPLES = [
    (clairaut.CHUNK_ROWS, (0,)),
    (clairaut.CHUNK_ROWS, (19,)),
    (clairaut.CHUNK_ROWS, (4, 5)),
    (clairaut.CHUNK_ROWS, (2, 9, 13, 19)),
    (clairaut.CHUNK_ROWS, tuple(range(1, 20, 2))),
    (8, (7, 8)),
    (8, (9, 12, 14)),
    (8, tuple(range(8, 16))),
]


def test_a_failing_chunk_ends_in_the_first_failing_sample_error(monkeypatch):
    # a stacked map may meet a later sample's error first, as when that
    # sample fails at an earlier stage; the suite must still end in the
    # first failing sample's error, as the reference does
    ham = MixedHamiltonian.from_system(corpus.make_system("osc"))
    for chunk, failing in FAILING_SAMPLES:
        with monkeypatch.context() as m:
            m.setattr(clairaut, "CHUNK_ROWS", chunk)
            q = residual_samples(ham, 20, m)[0]
            fail_residual_at(ham, {q[i, 0] for i in failing}, m)
            errors = []
            for suite in (verify.run_property_suite,
                          verify_oracle.run_property_suite):
                with pytest.raises(SingularJacobianError) as err:
                    suite(ham, 20, 0, 1e-6, 1e-7)
                errors.append(str(err.value))
        first = f"sample at q={q[failing[0]].tolist()}"
        assert errors[0] == errors[1] == first, (chunk, failing)


@pytest.mark.parametrize("count, failing", [
    (1, {0}), (2, {1}), (5, {0, 4}), (7, {2, 3}), (64, {17}),
    (64, set(range(64))), (40, {15, 16, 31, 39}),
])
def test_failing_rows_yields_each_failing_row_in_order(count, failing,
                                                       monkeypatch):
    # chunks of 16 rows: 40 rows fail on both sides of each boundary
    helpers.set_chunk_rows(monkeypatch, 16)
    calls = []

    def run(rows):
        calls.append(len(rows))
        bad = [i for i in rows.tolist() if i in failing]
        if bad:
            raise SingularJacobianError(bad[-1])

    got = [(int(row), str(error))
           for row, error in clairaut.row_failures(run, np.arange(count))]
    assert got == [(i, str(i)) for i in sorted(failing)]
    assert 0 not in calls  # no empty half runs
    assert max(calls) == min(count, 16)


def test_row_failures_raise_what_no_row_raises_alone(monkeypatch):
    helpers.set_chunk_rows(monkeypatch, 4)

    def not_a_row_error(rows):
        if 5 in rows:
            raise ValueError("not a row's error")

    with pytest.raises(ValueError, match="not a row's error"):
        list(clairaut.row_failures(not_a_row_error, np.arange(8)))

    def whole_chunk(rows):  # a chunk fails, and no row of it alone
        if len(rows) > 1 and 5 in rows:
            raise EvalDomainError("only together", "L")

    with pytest.raises(EvalDomainError, match="only together"):
        list(clairaut.row_failures(whole_chunk, np.arange(8)))


@pytest.mark.parametrize("failing", [0, 1, 31, 32, 62, 63])
def test_a_failing_chunk_is_narrowed_by_bisection(failing, monkeypatch):
    # 64 rows with one failing row: the chunk's own call, then at most two
    # calls per halving
    ham = MixedHamiltonian.from_system(corpus.make_system("osc"))
    q = residual_samples(ham, 64, monkeypatch)[0]
    calls = fail_residual_at(ham, {q[failing, 0]}, monkeypatch)
    with pytest.raises(SingularJacobianError) as err:
        verify.run_property_suite(ham, 64, 0, 1e-6, 1e-7)
    assert str(err.value) == f"sample at q={q[failing].tolist()}"
    assert calls[0] == 64 and len(calls) <= 1 + 2 * 6


def test_a_property_evaluates_at_most_chunk_rows_samples_at_once(
        monkeypatch):
    # the chunk bounds the suite's memory whatever the problem's samples,
    # and so does the row bound of its stacked envelope solves, which merge
    # the rows of several chunks
    ham = MixedHamiltonian.from_system(corpus.make_system("osc"))
    samples = 2 * clairaut.CHUNK_ROWS + 1
    calls = helpers.record_lanes(monkeypatch)[0]
    sizes = residual_samples(ham, samples, monkeypatch)[1]
    assert sizes == [clairaut.CHUNK_ROWS, clairaut.CHUNK_ROWS, 1]
    bound = verify.LANE_CHUNKS * clairaut.CHUNK_ROWS
    assert max(rows for rows, _ in calls) <= bound
    assert any(clairaut.CHUNK_ROWS < rows < bound for rows, _ in calls)


def test_stacked_maps_check_shapes():
    ham = MixedHamiltonian.from_system(corpus.make_system("deg1"))
    with pytest.raises(ValueError, match="p has shape"):
        ham.value_many(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"c2 has shape \(2, 1\), expected "
                                         r"\(3, 1\)"):
        ham.solver.solve_many(np.zeros((3, 2)), np.zeros((3, 1)),
                              np.zeros((2, 1)))
