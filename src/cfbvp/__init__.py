"""Numerical construction and verification of symmetric positive solutions
for a singular integro-differential two-point boundary value problem with
exponential-kernel fractional derivatives."""

from .expressions import Expr, evaluate, parse, unparse
from .green import GreenOperator, green_diagonal_jump, green_eval, rate_of
from .hypotheses import (HypothesisReport, NumericsConfig, ProblemSpec,
                         check_A1, check_A2, sigma_R)
from .problem_io import load_problem, parse_problem_text
from .quadrature import Mesh, build_mesh, integrate
from .solver import (SolveReport, apply_Tm, clamp_m, residual_nonlinear, solve,
                     solve_fixed_m)

__all__ = [
    "rate_of",
    "Expr", "evaluate", "parse", "unparse",
    "GreenOperator", "green_diagonal_jump", "green_eval",
    "HypothesisReport", "NumericsConfig", "ProblemSpec",
    "check_A1", "check_A2", "sigma_R",
    "load_problem", "parse_problem_text",
    "Mesh", "build_mesh", "integrate",
    "SolveReport", "apply_Tm", "clamp_m",
    "residual_nonlinear", "solve", "solve_fixed_m",
]

__version__ = "0.1.0"
