import numpy as np
import pytest
from numpy.testing import assert_allclose

import corpus
import partition_oracle
from legclair.partition import (
    HessianPartition,
    LagrangianSystem,
    NoValidMinorError,
    RankNotConstantError,
    hessian,
    numerical_rank,
    partition_indices,
    qv_names,
)


# --------------------------------------------------------------------------
# hessian
# --------------------------------------------------------------------------

def test_hessian_of_squared_sum():
    sys = corpus.make_system("deg1")
    w = hessian(sys, [0.3, -1.0], [0.7, 0.2])
    assert np.array_equal(w, [[1.0, 1.0], [1.0, 1.0]])


def test_hessian_with_coordinate_coupling():
    sys = corpus.make_system("deg2")
    w = hessian(sys, [2.0, 0.0], [1.0, 1.0])
    assert np.array_equal(w, [[1.0, 0.0], [0.0, 0.0]])


def test_hessian_bilinear():
    sys = corpus.make_system("bilinear")
    w = hessian(sys, [0.0, 0.0], [3.0, 4.0])
    assert np.array_equal(w, [[0.0, 1.0], [1.0, 0.0]])


# --------------------------------------------------------------------------
# numerical_rank
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "matrix,rank",
    [
        ([[1.0, 1.0], [1.0, 1.0]], 1),
        ([[0.0, 1.0], [1.0, 0.0]], 2),
        (np.zeros((3, 3)), 0),
        (np.zeros((0, 0)), 0),
        (np.diag([1.0, 1e-12]), 1),
        (np.diag([1.0, 1e-6]), 2),
    ],
)
def test_numerical_rank(matrix, rank):
    assert numerical_rank(matrix) == rank


def test_numerical_rank_rejects_nonsquare():
    with pytest.raises(ValueError):
        numerical_rank(np.zeros((2, 3)))


def test_numerical_rank_scale_invariance():
    w = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert numerical_rank(1e-30 * w) == 1
    assert numerical_rank(1e30 * w) == 1


# --------------------------------------------------------------------------
# partition_indices
# --------------------------------------------------------------------------

def test_partition_squared_sum():
    part = partition_indices(corpus.make_system("deg1"), seed=5)
    assert part.k == 1
    assert part.regular == (0,)
    assert part.nonregular == (1,)
    assert part.sigma == (0, 1)


def test_partition_coordinate_coupled():
    part = partition_indices(corpus.make_system("deg2"), seed=5)
    assert part.k == 1
    assert part.regular == (0,)
    assert part.nonregular == (1,)


def test_partition_regular_system():
    part = partition_indices(corpus.make_system("coupled"), seed=5)
    assert part.k == 2
    assert part.regular == (0, 1)
    assert part.nonregular == ()


def test_partition_three_dof():
    part = partition_indices(corpus.make_system("deg3"), seed=5)
    assert part.k == 2
    assert part.regular == (0, 1)
    assert part.nonregular == (2,)


def test_partition_zero_hessian():
    sys = LagrangianSystem.from_source(1, "q1*v1")
    part = partition_indices(sys, seed=5)
    assert part.k == 0
    assert part.regular == ()
    assert part.nonregular == (0,)


def test_partition_rejects_rank_straddling_domain():
    sys = LagrangianSystem.from_source(
        2, "0.5*q1*v2^2", {"q1": (-1.0, 1.0)}
    )
    with pytest.raises(RankNotConstantError) as err:
        partition_indices(sys, seed=3)
    # the error names two concrete witnesses
    assert err.value.point_a.shape == (4,)
    assert err.value.point_b.shape == (4,)


def test_partition_accepts_sign_definite_restriction():
    sys = LagrangianSystem.from_source(
        2, "0.5*q1*v2^2", {"q1": (0.5, 1.0)}
    )
    part = partition_indices(sys, seed=3)
    assert part.k == 1
    assert part.regular == (1,)
    assert part.nonregular == (0,)
    assert part.sigma == (1, 0)


def test_partition_detects_velocity_dependent_rank():
    # W depends on v1 and crosses zero inside the box
    sys = LagrangianSystem.from_source(1, "v1^3")
    with pytest.raises(RankNotConstantError):
        partition_indices(sys, seed=11)


def test_partition_deterministic():
    a = partition_indices(corpus.make_system("deg3"), seed=42)
    b = partition_indices(corpus.make_system("deg3"), seed=42)
    assert a == b


def test_partition_tie_breaks_to_lowest_index():
    # both candidate minors of [[1,1],[1,1]] have the same singular value
    part = partition_indices(corpus.make_system("deg1"), seed=0)
    assert part.regular == (0,)


@pytest.mark.parametrize("name", corpus.SYSTEMS)
def test_partition_invariants_on_corpus(name):
    sys = corpus.make_system(name)
    part = partition_indices(sys, seed=9)
    assert part.k == corpus.expected_rank(name)
    assert sorted(part.regular + part.nonregular) == list(range(sys.n))
    assert part.sigma == part.regular + part.nonregular

    rng = np.random.default_rng(123)
    reg = np.array(part.regular, dtype=int)
    for x in sys.sample(rng, 100):
        w = hessian(sys, x[: sys.n], x[sys.n :])
        assert numerical_rank(w, part.rank_tolerance) == part.k
        if part.k:
            block = w[np.ix_(reg, reg)]
            assert abs(np.linalg.det(block)) > part.rank_tolerance
            # permutation soundness: sigma moves the block to the corner
            perm = np.array(part.sigma, dtype=int)
            shuffled = w[np.ix_(perm, perm)]
            assert_allclose(shuffled[: part.k, : part.k], block, rtol=0, atol=0)


def test_partition_names_the_sample_where_no_minor_is_valid():
    # W = [[1, q1], [q1, q1^2]] has rank 1; the mean Hessian favours v2,
    # whose block q1^2 is at most rel_tol times the scale 1 + q1^2 wherever
    # |q1| <= 1
    sys = LagrangianSystem.from_source(
        2, "0.5*(v1+q1*v2)^2", {"q1": (-3.0, 3.0)}
    )
    with pytest.raises(NoValidMinorError, match=r"indices \(1,\) is singular"):
        partition_indices(sys, rel_tol=0.5)


# --------------------------------------------------------------------------
# partition_indices against the sample-by-sample reference
# --------------------------------------------------------------------------

def partition_outcome(fn, system, **kwargs):
    try:
        return fn(system, **kwargs)
    except (RankNotConstantError, NoValidMinorError) as exc:
        return exc


def assert_same_partition(system, **kwargs):
    got = partition_outcome(partition_indices, system, **kwargs)
    want = partition_outcome(partition_oracle.partition_indices, system,
                             **kwargs)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        if isinstance(want, RankNotConstantError):
            assert np.array_equal(got.point_a, want.point_a)
            assert np.array_equal(got.point_b, want.point_b)
    else:
        assert got == want
    return got


@pytest.mark.parametrize("name", corpus.SYSTEMS)
def test_partition_matches_reference_on_corpus(name):
    sys = corpus.make_system(name)
    for seed in range(32):
        part = assert_same_partition(sys, seed=seed)
        assert part.k == corpus.expected_rank(name)


@pytest.mark.parametrize(
    "n,source,domain,kwargs,outcome",
    [
        # W = diag(0, q1): rank 1 throughout, the v2 eigenvalue flips sign
        (2, "0.5*q1*v2^2", {"q1": (-1.0, 1.0)}, {}, "inertia is not constant"),
        (2, "0.5*q1*v2^2", {"q1": (0.5, 1.0)}, {}, HessianPartition),
        (1, "v1^3", None, {}, "inertia is not constant"),
        (1, "q1*v1", None, {}, HessianPartition),
        # W = diag(1, q1): the cutoff 0.5 drops q1 <= 0.5, so the rank moves
        (2, "0.5*v1^2 + 0.5*q1*v2^2", {"q1": (0.1, 1.0)}, {"rel_tol": 0.5},
         "rank is not constant"),
        (2, "0.5*(v1+q1*v2)^2", {"q1": (-3.0, 3.0)}, {"rel_tol": 0.5},
         NoValidMinorError),
        # the same with W negative semidefinite: the scale is max |eigenvalue|
        (2, "-0.5*(v1+q1*v2)^2", {"q1": (-3.0, 3.0)}, {"rel_tol": 0.5},
         NoValidMinorError),
    ],
)
def test_partition_matches_reference_on_edge_cases(n, source, domain, kwargs,
                                                   outcome):
    sys = LagrangianSystem.from_source(n, source, domain)
    for seed in range(32):
        got = assert_same_partition(sys, seed=seed, **kwargs)
        if isinstance(outcome, str):
            assert isinstance(got, RankNotConstantError)
            assert outcome in str(got)
        else:
            assert isinstance(got, outcome)


def test_variable_table_helpers():
    assert qv_names(2) == ("q1", "q2", "v1", "v2")
    sys = corpus.make_system("deg1")
    assert sys.lagrangian.variables == qv_names(2)
    with pytest.raises(ValueError):
        LagrangianSystem.from_source(1, "0.5*v1^2", {"bogus": (0, 1)})


def test_domain_must_have_width():
    with pytest.raises(ValueError, match="lo < hi"):
        LagrangianSystem.from_source(1, "0.5*v1^2", {"q1": (1.0, 1.0)})
