"""Solver and sensitivity toolkit for X - sum(Ai* X^-1 Ai) = Q.

The equation has a unique Hermitian positive definite solution for any
positive definite Q; this package computes it, encloses it a priori,
bounds its sensitivity to data perturbations, certifies approximate
solutions, and evaluates its condition numbers.
"""

from .backward import BackwardErrorReport, backward_bound
from .bounds import (
    MatrixInterval,
    ScalarBounds,
    coarse_interval,
    membership,
    refined_interval,
    scalar_bounds,
    scalar_interval,
)
from .conditioning import ConditionReport, cond_complex, cond_fd_oracle, cond_real
from .errors import (
    ConditionViolated,
    DimensionMismatch,
    EigenSolverError,
    MatfixError,
    NonzeroDeltaQ,
    NotHermitian,
    NotPositiveDefinite,
    NotReal,
    OperatorTooLarge,
    ParseError,
    SingularIterate,
    SingularMatrix,
    SingularOperator,
    ValidationError,
)
from .linalg import (
    eig_extremes,
    frobenius_norm,
    hermitian_part,
    inverse,
    is_positive_definite,
    spectral_norm,
    unvec,
    vec,
    vec_permutation,
)
from .operators import OperatorBundle, build_bundle
from .perturbation import (
    BoundReport,
    ConditionValue,
    PerturbationSpec,
    feasibility_table,
    first_order_delta,
    xi1,
    xi2,
    xi3,
)
from .solver import (
    EquationInstance,
    SolveReport,
    SolveSettings,
    residual,
    scalar_solution,
    solve,
    solve_many,
    solve_stack,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardErrorReport",
    "BoundReport",
    "ConditionReport",
    "ConditionValue",
    "ConditionViolated",
    "DimensionMismatch",
    "EigenSolverError",
    "EquationInstance",
    "MatfixError",
    "MatrixInterval",
    "NonzeroDeltaQ",
    "NotHermitian",
    "NotPositiveDefinite",
    "NotReal",
    "OperatorBundle",
    "OperatorTooLarge",
    "ParseError",
    "PerturbationSpec",
    "ScalarBounds",
    "SingularIterate",
    "SingularMatrix",
    "SingularOperator",
    "SolveReport",
    "SolveSettings",
    "ValidationError",
    "backward_bound",
    "build_bundle",
    "coarse_interval",
    "cond_complex",
    "cond_fd_oracle",
    "cond_real",
    "eig_extremes",
    "feasibility_table",
    "first_order_delta",
    "frobenius_norm",
    "hermitian_part",
    "inverse",
    "is_positive_definite",
    "membership",
    "refined_interval",
    "residual",
    "scalar_bounds",
    "scalar_interval",
    "scalar_solution",
    "solve",
    "solve_many",
    "solve_stack",
    "spectral_norm",
    "unvec",
    "validate",
    "vec",
    "vec_permutation",
    "xi1",
    "xi2",
    "xi3",
]
