"""Legendre transforms for Lagrangians with singular velocity Hessians.

The classical transform needs an invertible velocity-to-momentum map.  This
package works without that: it splits the velocities by the numerical rank
of the velocity Hessian, inverts only the regular block, and treats the
rest as explicit parameters.  The result is a Hamiltonian carrying the
unresolved velocities as arguments, the primary constraints relating the
remaining momenta to positions, and equations of motion that reproduce the
Euler-Lagrange flow once a gauge fixes the unresolved velocities.

Entry points:

* :func:`legclair.parse` / :class:`legclair.Expression` - the expression
  language for Lagrangians;
* :class:`legclair.LagrangianSystem` / :func:`legclair.partition_indices` -
  domain boxes and the Hessian rank split;
* :class:`legclair.MixedHamiltonian` - the transform and everything derived
  from it (constraints, residuals, the inverse transform);
* :func:`legclair.integrate_el` / :func:`legclair.integrate_ham` - the two
  gauge-fixed flows;
* ``legclair`` (console script) - the command-line interface.
"""

from .clairaut import (
    EnvelopeSolver,
    MixedHamiltonian,
    NewtonDivergedError,
    SingularJacobianError,
    general_solution,
    generic_transform,
)
from .dynamics import (
    ComparisonReport,
    GaugeChoice,
    NonFiniteStateError,
    PrimaryConstraintError,
    Trajectory,
    compare_trajectories,
    el_rhs,
    ham_rhs,
    integrate_el,
    integrate_ham,
    write_trajectory_csv,
)
from .expr import (
    EvalDomainError,
    ExprError,
    Expression,
    ParseError,
    eval_dual2,
    evaluate,
    parse,
)
from .partition import (
    HessianPartition,
    LagrangianSystem,
    NoValidMinorError,
    RankNotConstantError,
    numerical_rank,
    partition_indices,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "EnvelopeSolver",
    "EvalDomainError",
    "ExprError",
    "Expression",
    "GaugeChoice",
    "HessianPartition",
    "LagrangianSystem",
    "MixedHamiltonian",
    "NewtonDivergedError",
    "NoValidMinorError",
    "NonFiniteStateError",
    "ParseError",
    "PrimaryConstraintError",
    "RankNotConstantError",
    "SingularJacobianError",
    "Trajectory",
    "compare_trajectories",
    "el_rhs",
    "eval_dual2",
    "evaluate",
    "general_solution",
    "generic_transform",
    "ham_rhs",
    "integrate_el",
    "integrate_ham",
    "numerical_rank",
    "parse",
    "partition_indices",
    "write_trajectory_csv",
    "__version__",
]
