"""Numerical construction and verification of symmetric positive solutions
for a singular integro-differential two-point boundary value problem with
exponential-kernel fractional derivatives."""

from .cf_derivative import FracOrder, cf_left, cf_right, rate_of
from .expressions import Expr, evaluate, parse, unparse
from .green import (GreenOperator, apply_green, green_diagonal_jump, green_eval,
                    green_sup)
from .gridfn import SymmetricGridFunction
from .hypotheses import (HypothesisReport, NumericsConfig, ProblemSpec,
                         check_A1, check_A2, epsilon_max, sigma_R)
from .linear import (GeneralSolutionCoeffs, general_solution_left_half,
                     general_solution_right_half, residual_linear)
from .problem_io import load_problem, parse_problem_text
from .quadrature import Mesh, build_mesh, integrate
from .solver import (SolveReport, apply_Tm, clamp_m, residual_nonlinear, solve,
                     solve_fixed_m)

__all__ = [
    "FracOrder", "cf_left", "cf_right", "rate_of",
    "Expr", "evaluate", "parse", "unparse",
    "GreenOperator", "apply_green", "green_diagonal_jump", "green_eval", "green_sup",
    "SymmetricGridFunction",
    "HypothesisReport", "NumericsConfig", "ProblemSpec",
    "check_A1", "check_A2", "epsilon_max", "sigma_R",
    "GeneralSolutionCoeffs", "general_solution_left_half",
    "general_solution_right_half", "residual_linear",
    "load_problem", "parse_problem_text",
    "Mesh", "build_mesh", "integrate",
    "SolveReport", "apply_Tm", "clamp_m",
    "residual_nonlinear", "solve", "solve_fixed_m",
]

__version__ = "0.1.0"
