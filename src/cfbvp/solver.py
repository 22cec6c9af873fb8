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

__all__ = ["SolveReport", "InnerStats", "clamp_m", "apply_Tm",
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


def apply_Tm(spec: ProblemSpec, x: np.ndarray, m: int, op: GreenOperator) -> np.ndarray:
    """One application of the regularized operator, on the Nystrom points.

    x and the result hold values at ``op.points`` (the mesh breakpoints,
    then the Gauss nodes); f reads x at the nodes only.  f is only
    evaluated at clamped arguments in [1/m, R], so the x = 0 singularity is
    never touched; the output is symmetric by construction.
    """
    return op.apply(_integrand(spec, x, m, op), nodes=True)


def solve_fixed_m(spec: ProblemSpec, m: int, op: GreenOperator,
                  x0: np.ndarray) -> tuple[np.ndarray, InnerStats]:
    """Damped Picard iteration x <- (1-w) x + w T_m x at fixed m.

    The iterate holds values at ``op.points``; the damping w, the inner
    tolerance and the iteration budget come from ``spec.numerics``.  Stops
    when the sup-norm step drops below the inner tolerance; ten consecutive
    step growths abort with a divergence diagnostic, and a non-finite value
    of T_m x aborts naming its first point.
    """
    config = spec.numerics
    x = x0
    prev_step = np.inf
    growth = 0
    for it in range(1, config.max_inner + 1):
        tx = apply_Tm(spec, x, m, op)
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


def residual_nonlinear(spec: ProblemSpec, x: np.ndarray, op: GreenOperator,
                       m: int | None = None):
    """Integral-equation residual x - int G(t, .) f(., x(.)) at the breakpoints.

    x holds values at ``op.points``; f reads it at the nodes.  With m
    given, f is evaluated at the clamped argument, i.e. the residual is
    taken against the regularized equation the iteration actually solves;
    with m = None it is taken against the limit equation, where it carries
    an O(1/m) regularization offset for any finite-m iterate.
    """
    n = len(op.grid)
    if m is None and np.any(x[n:] <= 0.0):
        raise ValueError("limit-equation residual needs x > 0 at the nodes")
    gx = op.apply(_integrand(spec, x, m, op))
    return ResidualReport(nodes=op.grid, values=x[:n] - gx)


def solve(spec: ProblemSpec, hypothesis: HypothesisReport | None = None) -> SolveReport:
    """Sweep the m schedule of ``spec.numerics`` and extract the stabilized solution.

    Refuses to run unless both assumption checks pass; the A2 report, if
    not supplied, is computed on the spec's default mesh.  The solve runs
    on the report's mesh: the report's barrier is the first iterate and
    its Green operator is the solve's.  The iterate lives on the mesh
    breakpoints and Gauss nodes (Nystrom): f is evaluated at the nodes,
    and the breakpoint values carry the margins, the inter-level
    deviations and ``x``.  Success requires every inner iteration to
    converge and the last two level solutions to agree within the
    inter-level tolerance.  An expression error during the sweep is a
    SolverError.
    """
    config = spec.numerics
    a1 = check_A1(spec)
    if not a1.passed:
        raise HypothesisError("growth/symmetry assumptions failed", a1.failures)
    report = hypothesis or check_A2(spec)
    if not report.passed:
        raise HypothesisError("barrier/size assumptions failed", report.failures)

    eps_max = epsilon_max(report)
    eps = 0.5 * eps_max  # strictly inside the admissible slack
    for m in config.m_schedule:
        if not 1.0 / m < eps:
            raise SolverError(f"schedule entry m = {m} violates 1/m < eps = {eps:.3g}")

    op = report.operator
    sigma = report.sigma

    n = len(op.grid)
    x = np.concatenate((sigma.values, report.sigma_nodes))
    inner: list[InnerStats] = []
    deviations: list[float] = []
    prev = None
    try:
        for m in config.m_schedule:
            x, stats = solve_fixed_m(spec, m, op, x)
            inner.append(stats)
            if prev is not None:
                deviations.append(float(np.max(np.abs(x[:n] - prev[:n]))))
            prev = x
        res = residual_nonlinear(spec, x, op, m=config.m_schedule[-1])
    except ex.ExprDomainError as err:
        raise SolverError(f"expression error at m = {m}: {err}") from err
    try:
        res_limit = residual_nonlinear(spec, x, op).sup
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
