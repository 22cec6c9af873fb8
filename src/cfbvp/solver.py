"""Regularized fixed-point construction of a symmetric positive solution.

The singular nonlinearity is tamed by the clamp
min(max(x + 1/m, 1/m), R), which keeps every evaluation of f inside
[1/m, R].  At each regularization level m a damped Picard iteration is run
to a sup-norm stopping rule, and the levels are swept over an increasing
schedule; stabilization of successive level solutions is the constructive
stand-in for the compactness argument that proves existence.
Non-convergence is a reported outcome, not an error in the theory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .green import GreenOperator
from .gridfn import SymmetricGridFunction
from .hypotheses import (HypothesisReport, ProblemSpec, check_A1, check_A2,
                         epsilon_max)
from .linear import ResidualReport
from .quadrature import Mesh

__all__ = ["SolveConfig", "SolveReport", "InnerStats", "clamp_m", "apply_Tm",
           "solve_fixed_m", "solve", "residual_nonlinear", "HypothesisError",
           "SolverError"]


class HypothesisError(RuntimeError):
    """The problem failed its assumption checks; the solver refuses to run."""

    def __init__(self, message, failures=()):
        self.failures = tuple(failures)
        super().__init__(message)


class SolverError(RuntimeError):
    pass


def clamp_m(x, m: int, R: float):
    """min(max(x + 1/m, 1/m), R); keeps f's argument inside [1/m, R]."""
    if m < 1:
        raise ValueError("regularization index m must be >= 1")
    if not R > 0:
        raise ValueError("truncation level R must be positive")
    return np.minimum(np.maximum(x + 1.0 / m, 1.0 / m), R)


@dataclass(frozen=True)
class SolveConfig:
    """Iteration controls; mesh/expression data live in the ProblemSpec."""

    m_schedule: tuple[int, ...] = (16, 32, 64, 128)
    omega: float = 1.0
    inner_tol: float = 1e-10
    max_inner: int = 200
    inter_m_tol: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("damping factor must lie in (0, 1]")
        if not self.m_schedule or any(m < 1 for m in self.m_schedule):
            raise ValueError("m schedule must be nonempty positive integers")
        if list(self.m_schedule) != sorted(set(self.m_schedule)):
            raise ValueError("m schedule must strictly increase")

    @classmethod
    def from_numerics(cls, n) -> "SolveConfig":
        return cls(m_schedule=tuple(n.m_schedule), omega=n.omega,
                   inner_tol=n.inner_tol, max_inner=n.max_inner,
                   inter_m_tol=n.inter_m_tol)


@dataclass(frozen=True)
class InnerStats:
    m: int
    iterations: int
    final_step: float
    converged: bool


@dataclass(frozen=True)
class SolveReport:
    status: str  # "converged" | "inner_failed" | "not_stabilized"
    x: SymmetricGridFunction
    iterate: np.ndarray  # the final iterate at GreenOperator.points
    sigma: SymmetricGridFunction
    eps: float
    eps_max: float
    inner: tuple[InnerStats, ...]
    inter_m_deviations: tuple[float, ...]
    lower_margin: float
    upper_margin: float
    residual: ResidualReport
    residual_limit_sup: float
    hypothesis: HypothesisReport

    @property
    def residual_sup(self) -> float:
        return self.residual.sup


def _integrand(spec: ProblemSpec, x: np.ndarray, m: int | None, op: GreenOperator):
    """tau -> f(tau, x(tau)) at the nodes, the argument clamped at level m."""
    xv = x[len(op.grid):]
    arg = clamp_m(xv, m, spec.R) if m is not None else xv
    return lambda tau: spec.f_at(tau, arg)


def apply_Tm(spec: ProblemSpec, x: np.ndarray, m: int, mesh: Mesh,
             eps_max: float | None = None,
             op: GreenOperator | None = None) -> np.ndarray:
    """One application of the regularized operator, on the Nystrom points.

    x and the result hold values at ``op.points`` (the mesh breakpoints,
    then the Gauss nodes); f reads x at the nodes only.  f is only
    evaluated at clamped arguments in [1/m, R], so the x = 0 singularity is
    never touched; the output is symmetric by construction.
    """
    if eps_max is not None and not 1.0 / m < eps_max:
        raise ValueError(f"m = {m} violates 1/m < eps_max = {eps_max}")
    op = op or GreenOperator(spec.mu, mesh)
    return op.apply(_integrand(spec, x, m, op), nodes=True)


def solve_fixed_m(spec: ProblemSpec, m: int, config: SolveConfig, mesh: Mesh,
                  x0: np.ndarray,
                  op: GreenOperator | None = None) -> tuple[np.ndarray, InnerStats]:
    """Damped Picard iteration x <- (1-w) x + w T_m x at fixed m.

    The iterate holds values at ``op.points``.  Stops when the sup-norm
    step drops below the inner tolerance; ten consecutive step growths
    abort with a divergence diagnostic, and a non-finite value of T_m x
    aborts naming its first point.
    """
    op = op or GreenOperator(spec.mu, mesh)
    x = x0
    prev_step = np.inf
    growth = 0
    for it in range(1, config.max_inner + 1):
        tx = apply_Tm(spec, x, m, mesh, op=op)
        bad = np.flatnonzero(~np.isfinite(tx))
        if bad.size:
            raise SolverError(
                f"T_m x is not finite at t = {op.points[bad[0]]:.6g} "
                f"(m = {m}, iteration {it})")
        new = (1.0 - config.omega) * x + config.omega * tx
        step = float(np.max(np.abs(new - x)))
        x = new
        if step < config.inner_tol:
            return x, InnerStats(m=m, iterations=it, final_step=step, converged=True)
        if step > prev_step:
            growth += 1
            if growth >= 10:
                raise SolverError(
                    f"divergence at m = {m}: step grew for 10 consecutive iterations "
                    f"(last step {step:.3g})")
        else:
            growth = 0
        prev_step = step
    return x, InnerStats(m=m, iterations=config.max_inner, final_step=prev_step,
                         converged=False)


def residual_nonlinear(spec: ProblemSpec, x: np.ndarray, mesh: Mesh,
                       m: int | None = None,
                       op: GreenOperator | None = None):
    """Integral-equation residual x - int G(t, .) f(., x(.)) at the breakpoints.

    x holds values at ``op.points``; f reads it at the nodes.  With m
    given, f is evaluated at the clamped argument, i.e. the residual is
    taken against the regularized equation the iteration actually solves;
    with m = None it is taken against the limit equation, where it carries
    an O(1/m) regularization offset for any finite-m iterate.
    """
    op = op or GreenOperator(spec.mu, mesh)
    n = len(op.grid)
    if m is None and np.any(x[n:] <= 0.0):
        raise ValueError("limit-equation residual needs x > 0 at the nodes")
    gx = op.apply(_integrand(spec, x, m, op))
    return ResidualReport(nodes=op.grid, values=x[:n] - gx)


def solve(spec: ProblemSpec, config: SolveConfig | None = None,
          mesh: Mesh | None = None,
          hypothesis: HypothesisReport | None = None) -> SolveReport:
    """Sweep the m schedule and extract the stabilized solution.

    Refuses to run unless both assumption checks pass.  The iterate lives
    on the mesh breakpoints and Gauss nodes (Nystrom): f is evaluated at
    the nodes, and the breakpoint values carry the margins, the inter-level
    deviations and ``x``.  The barrier of the A2 report (a supplied one
    must come from the same mesh) is the first iterate, and its Green
    operator is the solve's.  Success requires every inner iteration to
    converge and the last two level solutions to agree within the
    inter-level tolerance.  An expression error during the
    sweep is a SolverError.
    """
    config = config or SolveConfig.from_numerics(spec.numerics)
    mesh = mesh or spec.default_mesh()

    a1 = check_A1(spec)
    if not a1.passed:
        raise HypothesisError("growth/symmetry assumptions failed", a1.failures)
    report = hypothesis or check_A2(spec, mesh)
    if not report.passed:
        raise HypothesisError("barrier/size assumptions failed", report.failures)

    eps_max = epsilon_max(report)
    eps = 0.5 * eps_max  # strictly inside the admissible slack
    for m in config.m_schedule:
        if not 1.0 / m < eps:
            raise SolverError(f"schedule entry m = {m} violates 1/m < eps = {eps:.3g}")

    op = report.operator
    if not (np.array_equal(op.grid, mesh.breakpoints) and np.array_equal(op.tau, mesh.flat_nodes)):
        raise ValueError("the hypothesis report's barrier grid is not the "
                         "solver mesh's breakpoints and nodes")
    sigma = report.sigma

    n = len(op.grid)
    x = np.concatenate((sigma.values, report.sigma_nodes))
    inner: list[InnerStats] = []
    deviations: list[float] = []
    prev = None
    try:
        for m in config.m_schedule:
            x, stats = solve_fixed_m(spec, m, config, mesh, x0=x, op=op)
            inner.append(stats)
            if prev is not None:
                deviations.append(float(np.max(np.abs(x[:n] - prev[:n]))))
            prev = x
        res = residual_nonlinear(spec, x, mesh, m=config.m_schedule[-1], op=op)
    except ex.ExprDomainError as err:
        raise SolverError(f"expression error at m = {m}: {err}") from err
    try:
        res_limit = residual_nonlinear(spec, x, mesh, m=None, op=op).sup
    except (ValueError, ArithmeticError):
        res_limit = float("nan")

    lower_margin = float(np.min(x[:n] - sigma.values))
    upper_margin = float(np.min((spec.R - eps) - x[:n]))

    if not all(s.converged for s in inner):
        status = "inner_failed"
    elif deviations and deviations[-1] >= config.inter_m_tol:
        status = "not_stabilized"
    else:
        status = "converged"

    return SolveReport(status=status, x=SymmetricGridFunction(op.grid, x[:n]), iterate=x,
                       sigma=sigma, eps=eps, eps_max=eps_max,
                       inner=tuple(inner), inter_m_deviations=tuple(deviations),
                       lower_margin=lower_margin, upper_margin=upper_margin,
                       residual=res, residual_limit_sup=res_limit,
                       hypothesis=report)
