"""Verification of the structural assumptions on a user problem.

Two assumption groups gate the nonlinear solve:

  * growth/symmetry: f is even in t, vanishes at t = 0, and is majorized
    by q(|t|) (u(x) + v(x)) with u decreasing and v increasing;
  * barrier/size: f dominates a nonnegative profile psi_R for x in (0, R],
    the barrier sigma_R and the two improper integrals of q are finite,
    and the size ratio R / (c * (1 + v(R)/u(R)) * I_qu) exceeds 1.

Inequalities over continua are checked by sampled falsification on a
documented lattice; a pass means "no counterexample found", never a proof.
The kernel bound c is sup G = 2 / (1 + e^{-2 lambda}), the kernel at the
corner t = tau = 0 (it exceeds 1); a strict mode substitutes the literal 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .cf_derivative import as_order
from .green import GreenOperator, kernel_bound
from .gridfn import SymmetricGridFunction
from .quadrature import Mesh, build_mesh, integrate

__all__ = ["NumericsConfig", "ProblemSpec", "HypothesisReport", "CheckFailure",
           "sigma_R", "check_A1", "check_A2", "epsilon_max"]


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization and iteration parameters shared by checker and solver.

    Every range is checked here, once, so ``check`` and ``solve`` accept
    the same values; a ValueError names the problem-file key.
    """

    mesh_cells: int = 128
    gamma: float = 3.0
    nodes_per_cell: int = 8
    lattice_density: int = 41
    m_schedule: tuple[int, ...] = (16, 32, 64, 128)
    omega: float = 1.0
    inner_tol: float = 1e-10
    max_inner: int = 200
    inter_m_tol: float = 0.05
    strict_unit_bound: bool = False

    def __post_init__(self):
        s = tuple(self.m_schedule)
        # NaN fails every comparison, so each range is written as what must hold
        for key, value, ok, want in (
                ("mesh.cells", self.mesh_cells, self.mesh_cells >= 1, "at least 1"),
                ("mesh.gamma", self.gamma, 1.0 <= self.gamma < np.inf,
                 "finite and at least 1"),
                ("mesh.nodes_per_cell", self.nodes_per_cell, self.nodes_per_cell >= 2,
                 "at least 2"),
                # a lattice of one point samples t = 0 alone
                ("checks.lattice_density", self.lattice_density, self.lattice_density >= 2,
                 "at least 2"),
                ("solver.m_schedule", ",".join(map(str, s)),
                 len(s) >= 1 and s[0] >= 1 and all(a < b for a, b in zip(s, s[1:])),
                 "non-empty, positive and strictly increasing"),
                ("solver.omega", self.omega, 0.0 < self.omega <= 1.0, "in (0, 1]"),
                ("solver.inner_tol", self.inner_tol, 0.0 < self.inner_tol < np.inf,
                 "positive and finite"),
                ("solver.max_inner", self.max_inner, self.max_inner >= 1, "at least 1"),
                ("solver.inter_m_tol", self.inter_m_tol, 0.0 < self.inter_m_tol < np.inf,
                 "positive and finite")):
            if not ok:
                raise ValueError(f"key {key!r}: must be {want}, got {value}")


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
        as_order(self.mu)
        if not 0.0 < self.R < np.inf:
            raise ValueError(f"truncation level R must be positive and finite, got {self.R}")
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

    def default_mesh(self) -> Mesh:
        n = self.numerics
        return build_mesh(0.0, 1.0, n.mesh_cells, gamma=n.gamma,
                          singular_at="right", nodes_per_cell=n.nodes_per_cell)

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
        return f"[{self.check}] {self.detail} (at {at})"


@dataclass(frozen=True)
class A1Report:
    passed: bool
    failures: tuple[CheckFailure, ...]
    lattice_density: int


@dataclass(frozen=True)
class HypothesisReport:
    passed: bool
    sigma: SymmetricGridFunction
    sigma_nodes: np.ndarray  # the barrier at the mesh's Gauss nodes (flat_nodes)
    operator: GreenOperator  # the mesh's Green operator, which solve reuses
    sigma_at_zero: float
    I_q: float
    I_qu: float
    c_kernel: float
    ratio: float
    eps_max: float
    strict_unit_bound: bool
    failures: tuple[CheckFailure, ...]


def sigma_R(spec: ProblemSpec, op: GreenOperator, nodes: bool = False):
    """The lower barrier sigma_R(t) = int_0^1 G(t, tau) psi(tau, R) dtau.

    Computed on the right-half grid (the breakpoints of the operator's
    mesh) and extended to [-1, 1] evenly; sigma_R(1) = 0 holds exactly
    because the kernel row at t = 1 vanishes identically.  With ``nodes``,
    the barrier at the mesh's Gauss nodes comes too, from the same
    application of the operator: (grid function, node values).
    """
    values = op.apply(spec.psi_at, nodes=nodes)
    sigma = SymmetricGridFunction(op.grid, values[:len(op.grid)])
    return (sigma, values[len(op.grid):]) if nodes else sigma


def _t_lattice(density: int) -> np.ndarray:
    # symmetric interior lattice including 0, avoiding the singular endpoints
    pos = np.linspace(0.0, 1.0, density + 1)[:-1]
    return np.concatenate([-pos[:0:-1], pos])


def _x_lattice(density: int, x_max: float, m_max: int) -> np.ndarray:
    # reaches down to the solver's clamp floor 1/m for every scheduled m
    return np.geomspace(min(1e-3 * min(x_max, 1.0), 1.0 / m_max), x_max, density)


_EXPR_ERRORS = (ex.ExprDomainError, ex.UnboundVariableError, OverflowError)


def _on_lattice(fn, *axes) -> tuple[np.ndarray, dict]:
    """fn(*axes) over the broadcast lattice, with the expression errors on it.

    fn is evaluated once on the whole arrays.  Only if that raises is it
    re-evaluated point by point, to find which points fail and why: the
    values are NaN there, and ``errors`` maps each such index to its message.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in axes))
    with np.errstate(all="ignore"):
        try:
            return np.broadcast_to(np.asarray(fn(*axes), dtype=float), shape), {}
        except _EXPR_ERRORS:
            pass
        points = np.broadcast_arrays(*axes)
        values = np.full(shape, np.nan)
        errors = {}
        for idx in np.ndindex(shape):
            try:
                values[idx] = fn(*(p[idx] for p in points))
            except _EXPR_ERRORS as err:
                errors[idx] = str(err)
    return values, errors


def _unusable(failures: list, check: str, witness: dict, value, error) -> bool:
    """Record an expression error or a non-finite value; True if one was recorded."""
    if error is not None:
        detail = f"expression error: {error}"
    elif not np.isfinite(value):
        detail = f"non-finite value {float(value)}"
    else:
        return False
    failures.append(CheckFailure(check, witness, detail))
    return True


def check_A1(spec: ProblemSpec, sample_density: int | None = None) -> A1Report:
    """Sampled falsification of the growth/symmetry assumptions.

    Checks, on a (t, x) lattice: f(0, x) = 0, f(t, x) = f(-t, x),
    |f(t, x)| <= q(|t|) (u(x) + v(x)), u decreasing and v increasing.
    An expression error or a non-finite value is a failure at its point.
    """
    density = sample_density or spec.numerics.lattice_density
    ts = _t_lattice(density)
    xs = _x_lattice(density, 10.0 * spec.R, max(spec.numerics.m_schedule))
    mid = density - 1  # ts[mid] = 0 and ts[mid - k] = -ts[mid + k]
    f, f_err = _on_lattice(spec.f_at, ts[:, None], xs)
    q, q_err = _on_lattice(spec.q_at, ts[mid + 1:])
    u, u_err = _on_lattice(spec.u_at, xs)
    v, v_err = _on_lattice(spec.v_at, xs)
    fw, fm = f[mid + 1:], f[mid - 1::-1]
    with np.errstate(all="ignore"):
        bound = q[:, None] * (u + v)
        origin = ~np.isfinite(f[mid]) | (np.abs(f[mid]) > 1e-12)
        suspect = (~np.isfinite(fw) | ~np.isfinite(fm) | ~np.isfinite(bound)
                   | (np.abs(fw - fm) > 1e-12 * np.maximum(1.0, np.abs(fw)))
                   | (np.abs(fw) > bound * (1.0 + 1e-12) + 1e-12))
    failures: list[CheckFailure] = []
    for j in np.flatnonzero(origin):
        at = {"t": 0.0, "x": xs[j]}
        if not _unusable(failures, "A1.f(0,x)=0", at, f[mid, j], f_err.get((mid, j))):
            failures.append(CheckFailure("A1.f(0,x)=0", at, f"f(0, x) = {f[mid, j]:.6g} != 0"))
    for i, j in zip(*np.nonzero(suspect)):
        t, x = ts[mid + 1 + i], xs[j]
        bad_w = _unusable(failures, "A1.even", {"t": t, "x": x}, fw[i, j],
                          f_err.get((mid + 1 + i, j)))
        bad_m = _unusable(failures, "A1.even", {"t": -t, "x": x}, fm[i, j],
                          f_err.get((mid - 1 - i, j)))
        if bad_w or bad_m:
            continue
        w, m, b = float(fw[i, j]), float(fm[i, j]), float(bound[i, j])
        if abs(w - m) > 1e-12 * max(1.0, abs(w)):
            failures.append(CheckFailure("A1.even", {"t": t, "x": x},
                                         f"f(t,x) = {w:.6g} but f(-t,x) = {m:.6g}"))
        error = q_err.get((i,)) or u_err.get((j,)) or v_err.get((j,))
        if not _unusable(failures, "A1.majorant", {"t": t, "x": x}, b, error) \
                and abs(w) > b * (1.0 + 1e-12) + 1e-12:
            failures.append(CheckFailure("A1.majorant", {"t": t, "x": x},
                                         f"|f| = {abs(w):.6g} exceeds bound {b:.6g}"))
    u_ok, v_ok = np.isfinite(u), np.isfinite(v)
    for j in np.flatnonzero(~u_ok | ~v_ok):
        _unusable(failures, "A1.monotone", {"x": xs[j]}, u[j], u_err.get((j,)))
        _unusable(failures, "A1.monotone", {"x": xs[j]}, v[j], v_err.get((j,)))
    u_up = u_ok[:-1] & u_ok[1:] & (u[1:] > u[:-1] * (1.0 + 1e-12))
    v_down = v_ok[:-1] & v_ok[1:] & (v[1:] < v[:-1] * (1.0 - 1e-12))
    for k in np.flatnonzero(u_up | v_down):
        x0, x1 = xs[k], xs[k + 1]
        if u_up[k]:
            failures.append(CheckFailure("A1.u_decreasing", {"x": x1}, f"u({x0:.6g}) = "
                                         f"{u[k]:.6g} < u({x1:.6g}) = {u[k + 1]:.6g}"))
        if v_down[k]:
            failures.append(CheckFailure("A1.v_increasing", {"x": x1}, f"v({x0:.6g}) = "
                                         f"{v[k]:.6g} > v({x1:.6g}) = {v[k + 1]:.6g}"))
    return A1Report(passed=not failures, failures=tuple(failures),
                    lattice_density=density)


def _improper_integral(failures: list, check: str, name: str, integrand, meshes,
                       rel_tol: float = 1e-8) -> float:
    """int_0^1 integrand(mesh) on the finer of two refining meshes.

    A divergent (non-finite) improper integral shows up as refinement that
    does not stabilize to rel_tol; that, or a failed integration (nan), is
    recorded as a failure of ``check``.
    """
    try:
        with np.errstate(all="ignore"):  # a non-finite integrand raises in integrate
            vals = [integrate(integrand(m), m) for m in meshes]
    except (ex.ExprDomainError, ValueError) as err:
        failures.append(CheckFailure(check, {}, f"integration failed: {err}"))
        return float("nan")
    change = abs(vals[-1] - vals[-2]) / max(abs(vals[-1]), 1e-300)
    if not change < rel_tol:
        failures.append(CheckFailure(check, {"rel_change": change},
                                     f"{name} did not stabilize under refinement"))
    return vals[-1]


def check_A2(spec: ProblemSpec, mesh: Mesh | None = None) -> HypothesisReport:
    """Compute the barrier and size quantities and test the A2 conditions.

    Conditions: finiteness of I_q = int q and I_qu = int q * u(sigma_R),
    R >= sigma_R(0), the sampled minorant f(t, x) >= psi(|t|, R) on
    (-1, 1) x (0, R], and ratio = R / (c (1 + v(R)/u(R)) I_qu) > 1.
    """
    n = spec.numerics
    mesh = mesh or spec.default_mesh()
    failures: list[CheckFailure] = []

    with np.errstate(over="ignore", invalid="ignore"):  # lam > 709: reported below
        op = GreenOperator(spec.mu, mesh)
        try:
            sigma, sigma_nodes = sigma_R(spec, op, nodes=True)
            undefined = "barrier takes a non-finite value"
        except _EXPR_ERRORS as err:
            # psi is integrated against every row at once: the whole barrier is undefined
            sigma = SymmetricGridFunction(op.grid, np.full(op.grid.shape, np.nan))
            sigma_nodes = np.full(op.tau.shape, np.nan)
            undefined = f"barrier undefined: expression error in psi: {err}"
    nonfinite = np.flatnonzero(~np.isfinite(sigma.values))
    if nonfinite.size:
        # sigma_R(0) and I_qu = int q u(sigma_R) are left undefined (nan)
        failures.append(CheckFailure("A2.sigma_finite", {"t": float(sigma.nodes[nonfinite[0]])},
                                     undefined))
    sigma0 = float("nan") if nonfinite.size else 0.0 + float(sigma.values[0])
    if np.min(sigma.values) < -1e-12:
        failures.append(CheckFailure("A2.sigma_nonneg",
                                     {"t": float(sigma.nodes[np.argmin(sigma.values)])},
                                     "barrier takes a negative value"))
    if spec.R < sigma0:
        failures.append(CheckFailure("A2.R>=sigma(0)", {"R": spec.R},
                                     f"R = {spec.R:.6g} < sigma_R(0) = {sigma0:.6g}"))

    # finiteness by refinement stabilization on meshes of 4c and 8c cells,
    # shared by both integrals; a steeper grading and a resolution floor
    # independent of the solver mesh keep the Gauss rule past the 1e-8 test
    cells_fin = max(n.mesh_cells, 128)
    meshes = [build_mesh(0.0, 1.0, c * cells_fin, gamma=max(n.gamma, 6.0),
                         singular_at="right", nodes_per_cell=n.nodes_per_cell)
              for c in (4, 8)]
    I_q = _improper_integral(failures, "A2.I_q_finite", "int q", lambda m: spec.q_at, meshes)

    def qu(m):  # sigma_R at m's own nodes, through m's operator
        s = np.maximum(sigma_R(spec, GreenOperator(spec.mu, m), nodes=True)[1], 0.0)
        values = np.asarray(spec.q_at(m.flat_nodes), dtype=float) * spec.u_at(s)
        return lambda t: values

    I_qu = float("nan") if nonfinite.size else _improper_integral(
        failures, "A2.I_qu_finite", "int q*u(sigma_R)", qu, meshes)

    # sampled minorant check f >= psi_R on (-1,1) x (0, R]
    density = n.lattice_density
    ts = _t_lattice(density)
    xs = _x_lattice(density, spec.R, max(n.m_schedule))
    psi, psi_err = _on_lattice(spec.psi_at, np.abs(ts))
    f, f_err = _on_lattice(spec.f_at, ts[:, None], xs)
    with np.errstate(all="ignore"):
        floor = psi - 1e-12 * np.maximum(1.0, np.abs(psi))
        suspect = ~np.isfinite(f) | (f < floor[:, None])
    rows = ~np.isfinite(psi) | (psi < -1e-12) | suspect.any(axis=1)
    for i in np.flatnonzero(rows):
        t, p = ts[i], float(psi[i])
        if _unusable(failures, "A2.minorant", {"t": t}, p, psi_err.get((i,))):
            continue
        if p < -1e-12:
            failures.append(CheckFailure("A2.psi_nonneg", {"t": t}, f"psi(|t|) = {p:.6g} < 0"))
        for j in np.flatnonzero(suspect[i]):
            x, fv = xs[j], float(f[i, j])
            if not _unusable(failures, "A2.minorant", {"t": t, "x": x}, fv, f_err.get((i, j))) \
                    and fv < p - 1e-12 * max(1.0, abs(p)):
                failures.append(CheckFailure("A2.minorant", {"t": t, "x": x},
                                             f"f = {fv:.6g} < psi = {p:.6g}"))

    c_kernel = 1.0 if n.strict_unit_bound else kernel_bound(spec.mu)
    try:
        uR, vR = spec.u_at(spec.R), spec.v_at(spec.R)
        denom = c_kernel * (1.0 + vR / uR) * I_qu
        ratio = float("inf") if denom <= 0 else spec.R / denom  # nan stays nan
    except (ex.ExprDomainError, ZeroDivisionError) as err:
        denom = ratio = float("nan")
        failures.append(CheckFailure("A2.ratio", {}, f"ratio undefined: {err}"))
    if not np.isfinite(ratio) or ratio <= 1.0:
        failures.append(CheckFailure("A2.ratio", {"ratio": ratio},
                                     "size condition requires ratio > 1"))
    eps_max = spec.R - denom if np.isfinite(denom) else float("nan")

    return HypothesisReport(passed=not failures, sigma=sigma, sigma_nodes=sigma_nodes,
                            operator=op, sigma_at_zero=sigma0, I_q=I_q, I_qu=I_qu,
                            c_kernel=c_kernel, ratio=ratio, eps_max=eps_max,
                            strict_unit_bound=n.strict_unit_bound, failures=tuple(failures))


def epsilon_max(report: HypothesisReport) -> float:
    """Largest admissible slack: R - c (1 + v(R)/u(R)) I_qu, for ratio > 1."""
    if not (np.isfinite(report.ratio) and report.ratio > 1.0):
        raise ValueError(f"size ratio must exceed 1, got {report.ratio}")
    return report.eps_max
