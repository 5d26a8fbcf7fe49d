"""Tropical (max-plus) linear algebra, closed-form span minimization
under two-sided constraints, and just-in-time project scheduling.

The public surface:

  semifield  max-plus scalar arithmetic (Semifield, MAXPLUS)
  linalg     Matrix, Vector, RowVector, closures, chain families
  linsolve   inequality systems with explicit solution families
  optimize   constrained span minimization in closed form
  schedule   flow-time optimal schedules with full intermediates
  oracle     brute-force cross-checks (grids, cycles)
  serialize  JSON input and output
  cli        the `tropt` command

`solve_problem`, `solve_schedule`, `solve_schedule_detailed`,
`solve_fixpoint_lower` and `solve_combined` take the float dust
tolerance as `eps=` (default 1e-9).
"""

from .errors import (
    AllZeroVector,
    DegenerateProblem,
    EmptyParameterBox,
    GridTooLarge,
    IndexOutOfRange,
    InfeasibleConstraints,
    InfeasibleSchedule,
    InversionOfZero,
    NoFeasiblePoint,
    NoRegularSolution,
    NotColumnRegular,
    NotRegularVector,
    NotSquare,
    ShapeMismatch,
    SpecValidation,
    TooLarge,
    TooManyDigits,
    TroptError,
    UndefinedPower,
    Unsolvable,
    ZeroSpectralRadius,
)
from .linalg import (
    Matrix,
    RowVector,
    Vector,
    chain_sum,
    chain_sums,
    closure_sum,
    closure_sums,
    outer,
)
from .linsolve import (
    SolutionSet,
    solve_combined,
    solve_fixpoint_lower,
    solve_upper_bounded,
)
from .optimize import (
    OptResult,
    Problem,
    ProblemKind,
    minimize_basic,
    minimize_box_constrained,
    minimize_extended,
    minimize_fixpoint_constrained,
    minimize_general,
    minimize_linear_constrained,
    objective_value,
    solve_problem,
    verify_solution,
)
from .schedule import (
    ScheduleResult,
    ScheduleSpec,
    build_problem,
    collapse_solution_line,
    solve_schedule,
    solve_schedule_detailed,
)
from .semifield import MAXPLUS, Semifield

__version__ = "0.1.0"

__all__ = [
    "AllZeroVector",
    "DegenerateProblem",
    "EmptyParameterBox",
    "GridTooLarge",
    "IndexOutOfRange",
    "InfeasibleConstraints",
    "InfeasibleSchedule",
    "InversionOfZero",
    "MAXPLUS",
    "Matrix",
    "NoFeasiblePoint",
    "NoRegularSolution",
    "NotColumnRegular",
    "NotRegularVector",
    "NotSquare",
    "OptResult",
    "Problem",
    "ProblemKind",
    "RowVector",
    "ScheduleResult",
    "ScheduleSpec",
    "Semifield",
    "ShapeMismatch",
    "SolutionSet",
    "SpecValidation",
    "TooLarge",
    "TooManyDigits",
    "TroptError",
    "UndefinedPower",
    "Unsolvable",
    "Vector",
    "ZeroSpectralRadius",
    "build_problem",
    "chain_sum",
    "chain_sums",
    "closure_sum",
    "closure_sums",
    "collapse_solution_line",
    "minimize_basic",
    "minimize_box_constrained",
    "minimize_extended",
    "minimize_fixpoint_constrained",
    "minimize_general",
    "minimize_linear_constrained",
    "objective_value",
    "outer",
    "solve_combined",
    "solve_fixpoint_lower",
    "solve_problem",
    "solve_schedule",
    "solve_schedule_detailed",
    "solve_upper_bounded",
    "verify_solution",
]
