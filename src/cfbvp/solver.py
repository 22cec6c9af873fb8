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
from .hypotheses import HypothesisReport, ProblemSpec, check_A1, check_A2

__all__ = ["SolveReport", "InnerStats", "clamp_m", "apply_Tm",
           "solve_fixed_m", "solve", "residual_nonlinear", "HypothesisError",
           "SolverError"]


# Picard iterations per level before it is reported as not converged
MAX_INNER = 200


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
    floor = 1.0 / m
    # np.clip's bounds, without its Python wrapper
    return np.minimum(np.maximum(x + floor, floor), R)


@dataclass(frozen=True)
class InnerStats:
    m: int | None
    iterations: int
    final_step: float
    converged: bool


@dataclass(frozen=True)
class SolveReport:
    status: str  # "converged" | "inner_failed" | "not_stabilized"
    x: np.ndarray  # the last level's solution at hypothesis.operator.points
    eps: float  # half the A2 report's eps_max
    inner: tuple[InnerStats, ...]
    inter_m_deviations: tuple[float, ...]
    lower_margin: float
    upper_margin: float
    residual: np.ndarray  # the regularized equation's residual at hypothesis.operator.grid
    residual_limit_sup: float
    hypothesis: HypothesisReport

    @property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(self.residual)))


def apply_Tm(spec: ProblemSpec, f, x: np.ndarray, m: int | None,
             op: GreenOperator) -> np.ndarray:
    """One application of the regularized operator, on the Nystrom points.

    x and the result hold values at ``op.points`` (the mesh breakpoints,
    then the Gauss nodes); f is ``spec.f`` bound to the nodes ``op.tau``
    (``expressions.bind(spec.f, {"t": op.tau})``) and reads x at the nodes
    only.  At level m, f is only evaluated at clamped arguments in
    [1/m, R], so the x = 0 singularity is never touched; m = None is the
    limit map, where f reads x itself.  The output is symmetric by
    construction.
    """
    xv = x[len(op.grid):]
    return op.apply(f({"x": xv if m is None else clamp_m(xv, m, spec.R)}))


def solve_fixed_m(spec: ProblemSpec, f, m: int | None, op: GreenOperator,
                  x0: np.ndarray) -> tuple[np.ndarray, InnerStats]:
    """Damped Picard iteration x <- (1-w) x + w T_m x at fixed m (m = None:
    the limit map; f and x as in apply_Tm).

    The damping w and the inner tolerance come from ``spec.numerics``, and
    at most MAX_INNER iterations run.  A step evaluates f at the nodes once
    and applies the operator to those values.  Stops when the sup-norm step
    drops below the inner tolerance; ten consecutive step growths abort
    with a divergence diagnostic, and a non-finite value of T_m x aborts
    naming the first node where the step's f is not finite (else the first
    point where T_m x is not).
    """
    config = spec.numerics
    omega = config.omega
    n = len(op.grid)
    x = x0
    prev_step = np.inf
    growth = 0
    for it in range(1, MAX_INNER + 1):
        xv = x[n:]
        fx = f({"x": xv if m is None else clamp_m(xv, m, spec.R)})
        tx = op.apply(fx)  # a new array: the steps below reuse it
        if not np.isfinite(tx).all():
            # a nan of f at one node spreads through the integrals: name that node
            bad = np.flatnonzero(~np.isfinite(fx))
            at = op.tau[bad[0]] if bad.size else op.points[np.flatnonzero(~np.isfinite(tx))[0]]
            raise SolverError(f"T_m x is not finite at t = {at:.6g} "
                              f"(m = {m}, iteration {it})")
        new = (1.0 - omega) * x
        tx *= omega
        new += tx
        np.subtract(new, x, out=tx)
        step = float(np.abs(tx, out=tx).max())
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
    return x, InnerStats(m=m, iterations=MAX_INNER, final_step=prev_step,
                         converged=False)


def residual_nonlinear(spec: ProblemSpec, f, x: np.ndarray, op: GreenOperator,
                       m: int | None = None) -> np.ndarray:
    """Integral-equation residual x - int G(t, .) f(., x(.)) at ``op.grid``.

    f and x are as in apply_Tm.  With m given, f is evaluated at the
    clamped argument, i.e. the residual is taken against the regularized
    equation the iteration actually solves; with m = None it is taken
    against the limit equation, where it carries an O(1/m) regularization
    offset for any finite-m solution.
    """
    n = len(op.grid)
    if m is None and np.any(x[n:] <= 0.0):
        raise ValueError("limit-equation residual needs x > 0 at the nodes")
    return x[:n] - apply_Tm(spec, f, x, m, op)[:n]


def solve(spec: ProblemSpec) -> SolveReport:
    """Sweep the m schedule of ``spec.numerics`` and extract the stabilized solution.

    Refuses to run unless both assumption checks pass.  The solve runs on
    the A2 report's mesh: the report's barrier is the starting x and its
    Green operator is the solve's.  x lives on the mesh breakpoints and
    Gauss nodes (Nystrom): f is bound to the nodes once
    (``expressions.bind``), every level and residual evaluates that binding,
    and the breakpoint values carry the margins and the inter-level
    deviations.  Success requires every inner iteration to converge and the
    last two level solutions to agree within the inter-level tolerance.  An
    expression error during the sweep is a SolverError.
    """
    config = spec.numerics
    a1 = check_A1(spec)
    if not a1.passed:
        raise HypothesisError("growth/symmetry assumptions failed", a1.failures)
    report = check_A2(spec)
    if not report.passed:
        raise HypothesisError("barrier/size assumptions failed", report.failures)

    # a passed report has ratio > 1, so its slack eps_max is positive
    eps = 0.5 * report.eps_max  # strictly inside the admissible slack
    m = config.m_schedule[0]  # the schedule increases: its first 1/m is the largest
    if not 1.0 / m < eps:
        raise SolverError(f"schedule entry m = {m} violates 1/m < eps = {eps:.3g}")

    op = report.operator
    n = len(op.grid)
    x = report.sigma
    inner: list[InnerStats] = []
    deviations: list[float] = []
    prev = None
    # a non-finite f is a SolverError or a nan in the report, not a numpy warning
    with np.errstate(all="ignore"):
        f = ex.bind(spec.f, {"t": op.tau})  # f's t-only part, evaluated once
        try:
            for m in config.m_schedule:
                x, stats = solve_fixed_m(spec, f, m, op, x)
                inner.append(stats)
                if prev is not None:
                    deviations.append(float(np.max(np.abs(x[:n] - prev[:n]))))
                prev = x
            res = residual_nonlinear(spec, f, x, op, m=config.m_schedule[-1])
        except ex.ExprDomainError as err:
            raise SolverError(f"expression error at m = {m}: {err}") from err
        try:
            res_limit = float(np.max(np.abs(residual_nonlinear(spec, f, x, op))))
        except (ValueError, ArithmeticError):
            res_limit = float("nan")

    # sigma_R(1) = x(1) = 0 exactly: the margin is taken where it can be nonzero
    lower_margin = float(np.min(x[:n - 1] - report.sigma[:n - 1]))
    upper_margin = float(np.min((spec.R - eps) - x[:n]))

    if not all(s.converged for s in inner):
        status = "inner_failed"
    elif deviations[-1] >= config.inter_m_tol:  # the schedule has two levels or more
        status = "not_stabilized"
    else:
        status = "converged"

    return SolveReport(status=status, x=x, eps=eps,
                       inner=tuple(inner), inter_m_deviations=tuple(deviations),
                       lower_margin=lower_margin, upper_margin=upper_margin,
                       residual=res, residual_limit_sup=res_limit,
                       hypothesis=report)
