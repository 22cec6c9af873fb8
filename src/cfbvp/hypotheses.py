"""Verification of the structural assumptions on a user problem.

Two assumption groups gate the nonlinear solve:

  * growth/symmetry: f is even in t, vanishes at t = 0, and is majorized
    by q(|t|) (u(x) + v(x)) with u decreasing and v increasing;
  * barrier/size: f dominates a nonnegative profile psi_R for x in (0, R],
    the barrier sigma_R and the two improper integrals of q are finite,
    and the size ratio R / (c * (1 + v(R)/u(R)) * I_qu) exceeds 1.

Where the expressions show their power laws at the endpoints (q and psi as
s -> 1, u as x -> 0), an improper integral is finite iff its integrand's
exponent is below 1, and is computed with that exponent in the last cell;
where an exponent it needs is unread, its finiteness is not shown (a failure).
The barrier and both integrals are computed on one mesh, build_mesh of the
mesh.cells key, whose Green operator takes psi's exponent in its last cell
and is the one the solve reuses.

Inequalities over continua are checked by sampled falsification on a
documented lattice; a pass means "no counterexample found", never a proof.
The kernel bound c is sup G = 2 / (1 + e^{-2 lambda}), the kernel at the
corner t = tau = 0 (it exceeds 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import expressions as ex
from .green import GreenOperator, kernel_bound, rate_of
from .quadrature import Mesh, build_mesh, integrate

if TYPE_CHECKING:
    from .endpoint import EndpointExponents

__all__ = ["NUMERIC_KEYS", "NumericsConfig", "ProblemSpec", "HypothesisReport",
           "CheckFailure", "sigma_R", "check_A1", "check_A2"]


def _schedule(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


# optional problem-file key -> (NumericsConfig field, parser of its value,
# test of its range, the range in words).  NaN fails every comparison, so each
# test is written as what must hold.
NUMERIC_KEYS = {
    "mesh.cells": ("mesh_cells", int, lambda n: n >= 1, "at least 1"),
    # read by nothing (the mesh has no grading), but kept a valid key: the
    # benchmark's problem files set it
    "mesh.gamma": ("gamma", float, lambda g: 1.0 <= g < np.inf, "finite and at least 1"),
    # success needs the last two levels to agree: a level of its own has none
    "solver.m_schedule": ("m_schedule", _schedule,
                          lambda s: len(s) >= 2 and s[0] >= 1
                          and all(a < b for a, b in zip(s, s[1:])),
                          "at least two entries, positive and strictly increasing"),
    "solver.omega": ("omega", float, lambda w: 0.0 < w <= 1.0, "in (0, 1]"),
    "solver.inner_tol": ("inner_tol", float, lambda e: 0.0 < e < np.inf,
                         "positive and finite"),
    "solver.inter_m_tol": ("inter_m_tol", float, lambda e: 0.0 < e < np.inf,
                           "positive and finite"),
}


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization and iteration parameters shared by checker and solver.

    Every range is checked here, once, so ``check`` and ``solve`` accept
    the same values; a ValueError names the problem-file key.
    """

    mesh_cells: int = 128
    gamma: float = 3.0
    m_schedule: tuple[int, ...] = (16, 32, 64, 128)
    omega: float = 1.0
    inner_tol: float = 1e-10
    inter_m_tol: float = 0.05

    def __post_init__(self):
        for key, (name, _, ok, want) in NUMERIC_KEYS.items():
            value = getattr(self, name)
            if not ok(value):
                shown = ",".join(map(str, value)) if isinstance(value, (tuple, list)) else value
                raise ValueError(f"key {key!r}: must be {want}, got {shown}")


@dataclass(frozen=True)
class ProblemSpec:
    """A problem instance: order, truncation level and the five expressions.

    f = f(t, x) is the nonlinearity; q(s), u(x), v(x) are its majorant
    factors; psi(s, R) is the minorant profile.  s stands for the radial
    variable |t|.
    """

    mu: float
    R: float
    f: ex.Expr
    q: ex.Expr
    u: ex.Expr
    v: ex.Expr
    psi: ex.Expr
    numerics: NumericsConfig = field(default_factory=NumericsConfig)

    def __post_init__(self):
        rate_of(self.mu)
        if not 0.0 < self.R < np.inf:
            raise ValueError(f"truncation level R must be positive and finite, got {self.R}")
        if not 10.0 * self.R < np.inf:
            raise ValueError("truncation level R must keep 10 R finite (the A1 lattice "
                             f"reaches x = 10 R), got {self.R}")
        for name, expr, allowed in (("f", self.f, {"t", "x"}),
                                    ("q", self.q, {"s"}),
                                    ("u", self.u, {"x"}),
                                    ("v", self.v, {"x"}),
                                    ("psi", self.psi, {"s", "R"})):
            extra = expr.variables() - allowed
            if extra:
                raise ValueError(f"expression {name} uses disallowed variables {sorted(extra)}")

    @classmethod
    def from_strings(cls, mu, R, f, q, u, v, psi, numerics=None) -> "ProblemSpec":
        return cls(mu=float(mu), R=float(R), f=ex.parse(f), q=ex.parse(q),
                   u=ex.parse(u), v=ex.parse(v), psi=ex.parse(psi),
                   numerics=numerics or NumericsConfig())

    def f_at(self, t, x):
        return ex.evaluate(self.f, {"t": t, "x": x})

    def q_at(self, s):
        return ex.evaluate(self.q, {"s": s})

    def u_at(self, x):
        return ex.evaluate(self.u, {"x": x})

    def v_at(self, x):
        return ex.evaluate(self.v, {"x": x})

    def psi_at(self, s):
        return ex.evaluate(self.psi, {"s": s, "R": self.R})


@dataclass(frozen=True)
class CheckFailure:
    check: str
    witness: dict
    detail: str

    def __str__(self) -> str:
        at = ", ".join(f"{k}={v:.6g}" for k, v in self.witness.items())
        return f"[{self.check}] {self.detail}" + (f" (at {at})" if at else "")


@dataclass(frozen=True)
class A1Report:
    passed: bool
    failures: tuple[CheckFailure, ...]


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    sigma: np.ndarray  # the barrier at operator.points
    operator: GreenOperator  # on build_mesh(mesh.cells); solve reuses it
    sigma_at_zero: float
    I_q: float
    I_qu: float
    c_kernel: float
    ratio: float
    eps_max: float  # the largest admissible slack R - c (1 + v(R)/u(R)) I_qu
    exponents: EndpointExponents  # decide I_q and I_qu; None where unread
    failures: tuple[CheckFailure, ...]


def sigma_R(spec: ProblemSpec, op: GreenOperator) -> np.ndarray:
    """The lower barrier sigma_R(t) = int_0^1 G(t, tau) psi(tau, R) dtau.

    Values at ``op.points``: the right-half mesh breakpoints, then the
    Gauss nodes; the barrier is even in t.  sigma_R(1) = 0 holds exactly
    because the kernel row at t = 1 vanishes identically.
    """
    return op.apply(spec.psi_at(op.tau))


# points of the A1 and A2 lattices per half of the t-axis and along x; read
# at each check, so a test can set another
LATTICE_DENSITY = 41


def _t_lattice(density: int) -> np.ndarray:
    # symmetric interior lattice including 0, avoiding the singular endpoints
    pos = np.linspace(0.0, 1.0, density + 1)[:-1]
    return np.concatenate([-pos[:0:-1], pos])


def _x_lattice(density: int, x_max: float, m_max: int) -> np.ndarray:
    # reaches down to the solver's clamp floor 1/m for every scheduled m
    return np.geomspace(min(1e-3 * min(x_max, 1.0), 1.0 / m_max), x_max, density)


_EXPR_ERRORS = (ex.ExprDomainError, ex.UnboundVariableError, OverflowError)


def _on_lattice(fn, *axes) -> tuple[np.ndarray, np.ndarray]:
    """fn(*axes) over the broadcast lattice, with the expression errors on it.

    fn is evaluated once on the whole arrays.  Only if that raises is it
    re-evaluated point by point, to find which points fail and why: the
    values are NaN there, and ``errors``, in the values' shape, holds each
    such point's message ("" at the others, a broadcast "" if none failed).
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
    with np.errstate(all="ignore"):
        try:
            return (np.broadcast_to(np.asarray(fn(*axes), dtype=float), shape),
                    np.broadcast_to(np.array("", dtype=object), shape))
        except _EXPR_ERRORS:
            pass
        points = np.broadcast_arrays(*axes)
        values = np.full(shape, np.nan)
        errors = np.full(shape, "", dtype=object)
        for idx in np.ndindex(shape):
            try:
                values[idx] = fn(*(p[idx] for p in points))
            except _EXPR_ERRORS as err:
                errors[idx] = str(err)
    return values, errors


def _unusable(value, error: str) -> str:
    """Why a non-finite lattice value is unusable: its expression error, if any."""
    return f"expression error: {error}" if error else f"non-finite value {float(value)}"


def check_A1(spec: ProblemSpec) -> A1Report:
    """Sampled falsification of the growth/symmetry assumptions.

    Checks, on a (t, x) lattice: f(0, x) = 0, f(t, x) = f(-t, x),
    |f(t, x)| <= q(|t|) (u(x) + v(x)), u decreasing and v increasing.
    An expression error or a non-finite value is a failure at its point.
    Each condition is one boolean array; the loops only format its failures.
    """
    density = LATTICE_DENSITY
    ts = _t_lattice(density)
    xs = _x_lattice(density, 10.0 * spec.R, max(spec.numerics.m_schedule))
    mid = density - 1  # ts[mid] = 0 and ts[mid - k] = -ts[mid + k]
    f, f_err = _on_lattice(spec.f_at, ts[:, None], xs)
    q, q_err = _on_lattice(spec.q_at, ts[mid + 1:])
    u, u_err = _on_lattice(spec.u_at, xs)
    v, v_err = _on_lattice(spec.v_at, xs)
    # the t > 0 half, and the t < 0 half mirrored onto it
    fw, w_err, fm, m_err = f[mid + 1:], f_err[mid + 1:], f[mid - 1::-1], f_err[mid - 1::-1]
    with np.errstate(all="ignore"):
        bound = q[:, None] * (u + v)
        f_ok, b_ok, u_ok, v_ok = (np.isfinite(a) for a in (f, bound, u, v))
        w_ok, m_ok = f_ok[mid + 1:], f_ok[mid - 1::-1]
        origin = ~f_ok[mid] | (np.abs(f[mid]) > 1e-12)
        uneven = np.abs(fw - fm) > 1e-12 * np.maximum(1.0, np.abs(fw))
        # an unusable bound fails the majorant
        over = ~b_ok | (np.abs(fw) > bound * (1.0 + 1e-12) + 1e-12)
        # a monotonicity pair counts only where both values are finite
        u_up = u_ok[:-1] & u_ok[1:] & (u[1:] > u[:-1] * (1.0 + 1e-12))
        v_down = v_ok[:-1] & v_ok[1:] & (v[1:] < v[:-1] * (1.0 - 1e-12))
    usable = w_ok & m_ok
    failures: list[CheckFailure] = []
    for j in np.flatnonzero(origin):
        detail = (f"f(0, x) = {f[mid, j]:.6g} != 0" if f_ok[mid, j]
                  else _unusable(f[mid, j], f_err[mid, j]))
        failures.append(CheckFailure("A1.f(0,x)=0", {"t": 0.0, "x": xs[j]}, detail))
    # the failing points' values, gathered once as Python floats and bools
    ii, jj = np.nonzero(~usable | uneven | over)
    for i, j, t, x, w, m, b, ok, odd, big, finite in zip(
            ii.tolist(), jj.tolist(), ts[mid + 1 + ii].tolist(), xs[jj].tolist(),
            *(a[ii, jj].tolist() for a in (fw, fm, bound, usable, uneven, over, b_ok))):
        if not ok:
            for side, side_ok, vals, errs in ((t, w_ok, fw, w_err), (-t, m_ok, fm, m_err)):
                if not side_ok[i, j]:
                    failures.append(CheckFailure("A1.even", {"t": side, "x": x},
                                                 _unusable(vals[i, j], errs[i, j])))
            continue
        if odd:
            failures.append(CheckFailure("A1.even", {"t": t, "x": x},
                                         f"f(t,x) = {w:.6g} but f(-t,x) = {m:.6g}"))
        if big:
            detail = (f"|f| = {abs(w):.6g} exceeds bound {b:.6g}" if finite
                      else _unusable(b, q_err[i] or u_err[j] or v_err[j]))
            failures.append(CheckFailure("A1.majorant", {"t": t, "x": x}, detail))
    for j in np.flatnonzero(~u_ok | ~v_ok):
        for ok, vals, errs in ((u_ok, u, u_err), (v_ok, v, v_err)):
            if not ok[j]:
                failures.append(CheckFailure("A1.monotone", {"x": xs[j]},
                                             _unusable(vals[j], errs[j])))
    for k in np.flatnonzero(u_up | v_down):
        x0, x1 = xs[k], xs[k + 1]
        if u_up[k]:
            failures.append(CheckFailure("A1.u_decreasing", {"x": x1}, f"u({x0:.6g}) = "
                                         f"{u[k]:.6g} < u({x1:.6g}) = {u[k + 1]:.6g}"))
        if v_down[k]:
            failures.append(CheckFailure("A1.v_increasing", {"x": x1}, f"v({x0:.6g}) = "
                                         f"{v[k]:.6g} > v({x1:.6g}) = {v[k + 1]:.6g}"))
    return A1Report(passed=not failures, failures=tuple(failures))


def _improper_integral(failures: list, check: str, name: str, values, mesh: Mesh,
                       beta: float | None, unread) -> float:
    """The integral of ``values``, the integrand at the mesh's nodes or the
    ValueError that failed it, its last cell taking the integrand's exponent
    beta (the plain rule where beta is unread, None, or the integrand zero,
    -inf).  It fails ``check`` as nan where it fails to evaluate, as inf
    where beta >= 1, and as not shown finite where beta is unread, naming
    what ``unread()`` returns."""
    try:
        if isinstance(values, ValueError):
            raise values
        value = (integrate(values, mesh, None if beta == -np.inf else beta)
                 if beta is None or beta < 1.0 else np.inf)
    except ValueError as err:
        failures.append(CheckFailure(check, {}, f"integration failed: {err}"))
        return float("nan")
    if beta is None:
        failures.append(CheckFailure(check, {}, f"{name} not shown finite: {unread()}"))
    elif not beta < 1.0:
        failures.append(CheckFailure(check, {"beta": beta}, f"{name} diverges: its "
                                     "integrand behaves like (1 - t)^(-beta) at t = 1"))
    return value


def check_A2(spec: ProblemSpec) -> HypothesisReport:
    """Compute the barrier and size quantities and test the A2 conditions.

    Conditions: finiteness of I_q = int q and I_qu = int q * u(sigma_R),
    R >= sigma_R(0), the sampled minorant f(t, x) >= psi(|t|, R) on
    (-1, 1) x (0, R], and ratio = R / (c (1 + v(R)/u(R)) I_qu) > 1.
    The barrier and both integrals are computed on build_mesh(mesh.cells),
    whose Green operator takes psi's exponent in its last cell.
    """
    failures: list[CheckFailure] = []
    # each integral's finiteness, and the barrier's, from the exponents it needs
    from .endpoint import endpoint_exponents  # imported where used
    exps = endpoint_exponents(spec)

    with np.errstate(over="ignore", invalid="ignore"):  # lam > 709: reported below
        mesh = build_mesh(spec.numerics.mesh_cells)
        op = GreenOperator(spec.mu, mesh, exps.beta_psi)
        # psi is integrated against every row at once: the whole barrier is undefined
        # where that fails, and infinite on [0, 1) where int psi diverges (G(t, 1) > 0)
        sigma = np.full(op.points.shape, np.nan)
        if exps.barrier_diverges:
            undefined = (f"barrier diverges: psi behaves like (1 - s)^({exps.psi:g}) "
                         "at s = 1, not integrable")
        else:
            try:
                sigma = sigma_R(spec, op)
                undefined = "barrier takes a non-finite value"
            except _EXPR_ERRORS as err:
                undefined = f"barrier undefined: expression error in psi: {err}"
    at_grid = sigma[:len(op.grid)]  # the breakpoints come first
    nonfinite = np.flatnonzero(~np.isfinite(at_grid))
    if nonfinite.size:
        # sigma_R(0) and I_qu = int q u(sigma_R) are left undefined (nan)
        failures.append(CheckFailure("A2.sigma_finite", {"t": float(op.grid[nonfinite[0]])},
                                     undefined))
    sigma0 = float("nan") if nonfinite.size else 0.0 + float(sigma[0])
    if np.min(sigma) < -1e-12:  # at the nodes too: the barrier can dip between breakpoints
        failures.append(CheckFailure("A2.sigma_nonneg",
                                     {"t": float(op.points[np.argmin(sigma)])},
                                     "barrier takes a negative value"))
    if spec.R < sigma0:
        failures.append(CheckFailure("A2.R>=sigma(0)", {"R": spec.R},
                                     f"R = {spec.R:.6g} < sigma_R(0) = {sigma0:.6g}"))

    with np.errstate(all="ignore"):  # a non-finite integrand is integrate's error
        try:  # evaluated once, for both integrals
            q = spec.q_at(op.tau)
        except ValueError as err:
            q = err
        I_q = _improper_integral(failures, "A2.I_q_finite", "int q", q, mesh, exps.beta_q,
                                 lambda: exps.unread("q"))
        I_qu = float("nan")  # I_qu needs sigma_R, and psi's exponent in it
        if not nonfinite.size and exps.psi_positive:
            qu = q  # an error of q fails q u(sigma_R) too
            if not isinstance(q, ValueError):
                try:
                    qu = q * spec.u_at(np.maximum(sigma[len(op.grid):], 0.0))
                except ValueError as err:
                    qu = err
            I_qu = _improper_integral(failures, "A2.I_qu_finite", "int q*u(sigma_R)", qu,
                                      mesh, exps.beta_qu,
                                      lambda: exps.unread("q", "psi", "u"))
        elif not nonfinite.size:
            failures.append(CheckFailure("A2.I_qu_finite", {}, "int q*u(sigma_R) not shown "
                                         "finite: psi is not positive at s = 1"))

    # sampled minorant check f >= psi_R on (-1,1) x (0, R]
    ts = _t_lattice(LATTICE_DENSITY)
    xs = _x_lattice(LATTICE_DENSITY, spec.R, max(spec.numerics.m_schedule))
    psi, psi_err = _on_lattice(spec.psi_at, np.abs(ts))
    f, f_err = _on_lattice(spec.f_at, ts[:, None], xs)
    with np.errstate(all="ignore"):
        psi_ok, f_ok = np.isfinite(psi), np.isfinite(f)
        negative = psi < -1e-12
        below = f < (psi - 1e-12 * np.maximum(1.0, np.abs(psi)))[:, None]
    suspect = ~f_ok | below
    for i in np.flatnonzero(~psi_ok | negative | suspect.any(axis=1)):
        t, p = ts[i], float(psi[i])
        if not psi_ok[i]:
            failures.append(CheckFailure("A2.minorant", {"t": t}, _unusable(p, psi_err[i])))
            continue
        if negative[i]:
            failures.append(CheckFailure("A2.psi_nonneg", {"t": t}, f"psi(|t|) = {p:.6g} < 0"))
        for j in np.flatnonzero(suspect[i]):
            detail = (f"f = {f[i, j]:.6g} < psi = {p:.6g}" if f_ok[i, j]
                      else _unusable(f[i, j], f_err[i, j]))
            failures.append(CheckFailure("A2.minorant", {"t": t, "x": xs[j]}, detail))

    # one failure for each outcome: the ratio is undefined, its denominator is
    # not positive, or it is not above 1.  Only a ratio has a slack eps_max
    c_kernel = kernel_bound(spec.mu)
    ratio = eps_max = float("nan")
    try:
        with np.errstate(all="ignore"):  # a non-finite u(R) or v(R) is a nan ratio
            uR, vR = spec.u_at(spec.R), spec.v_at(spec.R)
            denom = c_kernel * (1.0 + vR / uR) * I_qu
            if not denom <= 0:  # a nan denominator leaves the ratio nan
                ratio = spec.R / denom
    except (ex.ExprDomainError, ZeroDivisionError) as err:
        failures.append(CheckFailure("A2.ratio", {}, f"ratio undefined: {err}"))
    else:
        if denom <= 0:  # R / denom would read as a ratio: name the denominator
            failures.append(CheckFailure("A2.ratio", {"denominator": denom},
                                         "size condition requires a positive denominator "
                                         "c (1 + v(R)/u(R)) I_qu"))
        elif not np.isfinite(ratio) or ratio <= 1.0:
            failures.append(CheckFailure("A2.ratio", {"ratio": ratio},
                                         "size condition requires ratio > 1"))
        if 0 < denom < np.inf:
            eps_max = spec.R - denom

    return HypothesisReport(passed=not failures, sigma=sigma, operator=op,
                            sigma_at_zero=sigma0, I_q=I_q, I_qu=I_qu,
                            c_kernel=c_kernel, ratio=ratio, eps_max=eps_max,
                            exponents=exps, failures=tuple(failures))
