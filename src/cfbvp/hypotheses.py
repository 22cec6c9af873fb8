"""Verification of the structural assumptions on a user problem.

Two assumption groups gate the nonlinear solve:

  * growth/symmetry: f is even in t, vanishes at t = 0, and is majorized
    by q(|t|) (u(x) + v(x)) with u decreasing and v increasing;
  * barrier/size: f dominates a nonnegative profile psi_R for x in (0, R],
    the barrier sigma_R and the two improper integrals of q are finite,
    and the size ratio R / (c * (1 + v(R)/u(R)) * I_qu) exceeds 1.

Inequalities over continua are checked by sampled falsification on a
documented lattice; a pass means "no counterexample found", never a proof.
The kernel bound c is the numerically audited supremum (which exceeds 1);
a strict mode substitutes the literal constant 1 for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .cf_derivative import as_order
from .green import GreenOperator, green_sup
from .gridfn import SymmetricGridFunction
from .quadrature import Mesh, build_mesh, integrate

__all__ = ["NumericsConfig", "ProblemSpec", "HypothesisReport", "CheckFailure",
           "sigma_R", "check_A1", "check_A2", "epsilon_max"]


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization and iteration parameters shared by checker and solver."""

    mesh_cells: int = 128
    gamma: float = 3.0
    nodes_per_cell: int = 8
    sup_grid: int = 401
    lattice_density: int = 41
    m_schedule: tuple[int, ...] = (16, 32, 64, 128)
    omega: float = 1.0
    inner_tol: float = 1e-10
    max_inner: int = 200
    inter_m_tol: float = 0.05
    strict_unit_bound: bool = False


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
        if not self.R > 0:
            raise ValueError(f"truncation level R must be positive, got {self.R}")
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
    sigma_at_zero: float
    I_q: float
    I_qu: float
    c_kernel: float
    ratio: float
    eps_max: float
    strict_unit_bound: bool
    failures: tuple[CheckFailure, ...]


def sigma_R(spec: ProblemSpec, mesh: Mesh) -> SymmetricGridFunction:
    """The lower barrier sigma_R(t) = int_0^1 G(t, tau) psi(tau, R) dtau.

    Computed on the right-half grid (the mesh breakpoints) and extended to
    [-1, 1] evenly; sigma_R(1) = 0 holds exactly because the kernel row at
    t = 1 vanishes identically.
    """
    op = GreenOperator(spec.mu, mesh)
    return SymmetricGridFunction(op.grid, op.apply(spec.psi_at))


def _t_lattice(density: int) -> np.ndarray:
    # symmetric interior lattice including 0, avoiding the singular endpoints
    pos = np.linspace(0.0, 1.0, density + 1)[:-1]
    return np.concatenate([-pos[:0:-1], pos])


def _x_lattice(density: int, x_max: float, m_max: int) -> np.ndarray:
    # reaches down to the solver's clamp floor 1/m for every scheduled m
    return np.geomspace(min(1e-3 * min(x_max, 1.0), 1.0 / m_max), x_max, density)


def _sample(failures: list, check: str, fn, witness: dict):
    """fn() if it evaluates to a finite number, else None with a failure recorded."""
    try:
        value = fn()
    except (ex.ExprDomainError, ex.UnboundVariableError, OverflowError) as err:
        failures.append(CheckFailure(check, witness, f"expression error: {err}"))
        return None
    if not np.isfinite(value):
        failures.append(CheckFailure(check, witness, f"non-finite value {value}"))
        return None
    return value


def check_A1(spec: ProblemSpec, sample_density: int | None = None) -> A1Report:
    """Sampled falsification of the growth/symmetry assumptions.

    Checks, on a (t, x) lattice: f(0, x) = 0, f(t, x) = f(-t, x),
    |f(t, x)| <= q(|t|) (u(x) + v(x)), u decreasing and v increasing.
    An expression error or a non-finite value is a failure at its point.
    """
    density = sample_density or spec.numerics.lattice_density
    ts = _t_lattice(density)
    xs = _x_lattice(density, 10.0 * spec.R, max(spec.numerics.m_schedule))
    failures: list[CheckFailure] = []
    for x in xs:
        f0 = _sample(failures, "A1.f(0,x)=0", lambda: spec.f_at(0.0, x), {"t": 0.0, "x": x})
        if f0 is not None and abs(f0) > 1e-12:
            failures.append(CheckFailure("A1.f(0,x)=0", {"t": 0.0, "x": x},
                                         f"f(0, x) = {f0:.6g} != 0"))
    for t in ts[ts > 0]:
        for x in xs:
            fw = _sample(failures, "A1.even", lambda: spec.f_at(t, x), {"t": t, "x": x})
            fm = _sample(failures, "A1.even", lambda: spec.f_at(-t, x), {"t": -t, "x": x})
            if fw is None or fm is None:
                continue
            scale = max(1.0, abs(fw))
            if abs(fw - fm) > 1e-12 * scale:
                failures.append(CheckFailure("A1.even", {"t": t, "x": x},
                                             f"f(t,x) = {fw:.6g} but f(-t,x) = {fm:.6g}"))
            bound = _sample(failures, "A1.majorant",
                            lambda: spec.q_at(abs(t)) * (spec.u_at(x) + spec.v_at(x)),
                            {"t": t, "x": x})
            if bound is not None and abs(fw) > bound * (1.0 + 1e-12) + 1e-12:
                failures.append(CheckFailure("A1.majorant", {"t": t, "x": x},
                                             f"|f| = {abs(fw):.6g} exceeds bound {bound:.6g}"))
    uv = [(_sample(failures, "A1.monotone", lambda: spec.u_at(x), {"x": x}),
           _sample(failures, "A1.monotone", lambda: spec.v_at(x), {"x": x}), x) for x in xs]
    for (u0, v0, x0), (u1, v1, x1) in zip(uv, uv[1:]):
        if u0 is not None and u1 is not None and u1 > u0 * (1.0 + 1e-12):
            failures.append(CheckFailure("A1.u_decreasing", {"x": x1},
                                         f"u({x0:.6g}) = {u0:.6g} < u({x1:.6g}) = {u1:.6g}"))
        if v0 is not None and v1 is not None and v1 < v0 * (1.0 - 1e-12):
            failures.append(CheckFailure("A1.v_increasing", {"x": x1},
                                         f"v({x0:.6g}) = {v0:.6g} > v({x1:.6g}) = {v1:.6g}"))
    return A1Report(passed=not failures, failures=tuple(failures),
                    lattice_density=density)


def _stabilized_integral(fn, cells: int, gamma: float, k: int,
                         rel_tol: float = 1e-8) -> tuple[float, bool, float]:
    """Integrate over [0, 1] on right-graded meshes of cells, 2c, 4c, 8c.

    Returns (finest value, stabilized?, last relative change).  Divergent
    (non-finite) improper integrals show up as non-stabilizing refinement.
    """
    vals = []
    for c in (cells, 2 * cells, 4 * cells, 8 * cells):
        m = build_mesh(0.0, 1.0, c, gamma=gamma, singular_at="right", nodes_per_cell=k)
        vals.append(integrate(fn, m))
    scale = max(abs(vals[-1]), 1e-300)
    changes = [abs(b - a) / scale for a, b in zip(vals, vals[1:])]
    return vals[-1], changes[-1] < rel_tol, changes[-1]


def check_A2(spec: ProblemSpec, mesh: Mesh | None = None) -> HypothesisReport:
    """Compute the barrier and size quantities and test the A2 conditions.

    Conditions: finiteness of I_q = int q and I_qu = int q * u(sigma_R),
    R >= sigma_R(0), the sampled minorant f(t, x) >= psi(|t|, R) on
    (-1, 1) x (0, R], and ratio = R / (c (1 + v(R)/u(R)) I_qu) > 1.
    """
    n = spec.numerics
    mesh = mesh or spec.default_mesh()
    failures: list[CheckFailure] = []

    sigma = sigma_R(spec, mesh)
    sigma0 = float(sigma(0.0))
    if np.min(sigma.values) < -1e-12:
        failures.append(CheckFailure("A2.sigma_nonneg",
                                     {"t": float(sigma.nodes[np.argmin(sigma.values)])},
                                     "barrier takes a negative value"))
    if spec.R < sigma0:
        failures.append(CheckFailure("A2.R>=sigma(0)", {"R": spec.R},
                                     f"R = {spec.R:.6g} < sigma_R(0) = {sigma0:.6g}"))

    # improper-integral finiteness decided by refinement stabilization;
    # a steeper grading and a resolution floor independent of the solver
    # mesh keep the graded Gauss rule converging past the 1e-8 threshold
    gamma_fin = max(n.gamma, 6.0)
    cells_fin = max(n.mesh_cells, 128)
    try:
        I_q, ok_q, chg_q = _stabilized_integral(spec.q_at, cells_fin, gamma_fin,
                                                n.nodes_per_cell)
        if not ok_q:
            failures.append(CheckFailure("A2.I_q_finite", {"rel_change": chg_q},
                                         "int q did not stabilize under refinement"))
    except (ex.ExprDomainError, ValueError) as err:
        I_q = float("nan")
        failures.append(CheckFailure("A2.I_q_finite", {}, f"integration failed: {err}"))

    def qu(t):
        s = np.maximum(np.asarray(sigma(t), dtype=float), 0.0)
        return np.asarray(spec.q_at(t), dtype=float) * np.asarray(spec.u_at(s), dtype=float)

    try:
        I_qu, ok_qu, chg_qu = _stabilized_integral(qu, cells_fin, gamma_fin,
                                                   n.nodes_per_cell)
        if not ok_qu:
            failures.append(CheckFailure("A2.I_qu_finite", {"rel_change": chg_qu},
                                         "int q*u(sigma_R) did not stabilize under refinement"))
    except (ex.ExprDomainError, ValueError) as err:
        I_qu = float("nan")
        failures.append(CheckFailure("A2.I_qu_finite", {}, f"integration failed: {err}"))

    # sampled minorant check f >= psi_R on (-1,1) x (0, R]
    density = n.lattice_density
    ts = _t_lattice(density)
    xs = _x_lattice(density, spec.R, max(n.m_schedule))
    for t in ts:
        p = _sample(failures, "A2.minorant", lambda: spec.psi_at(abs(t)), {"t": t})
        if p is None:
            continue
        if p < -1e-12:
            failures.append(CheckFailure("A2.psi_nonneg", {"t": t},
                                         f"psi(|t|) = {p:.6g} < 0"))
        for x in xs:
            fv = _sample(failures, "A2.minorant", lambda: spec.f_at(t, x), {"t": t, "x": x})
            if fv is not None and fv < p - 1e-12 * max(1.0, abs(p)):
                failures.append(CheckFailure("A2.minorant", {"t": t, "x": x},
                                             f"f = {fv:.6g} < psi = {p:.6g}"))

    c_kernel = 1.0 if n.strict_unit_bound else green_sup(spec.mu, n.sup_grid)
    try:
        uR = spec.u_at(spec.R)
        vR = spec.v_at(spec.R)
        denom = c_kernel * (1.0 + vR / uR) * I_qu
        ratio = spec.R / denom if denom > 0 else float("inf")
    except (ex.ExprDomainError, ZeroDivisionError) as err:
        denom = float("nan")
        ratio = float("nan")
        failures.append(CheckFailure("A2.ratio", {}, f"ratio undefined: {err}"))
    if not np.isfinite(ratio) or ratio <= 1.0:
        failures.append(CheckFailure("A2.ratio", {"ratio": ratio},
                                     "size condition requires ratio > 1"))
    eps_max = spec.R - denom if np.isfinite(denom) else float("nan")

    return HypothesisReport(passed=not failures, sigma=sigma, sigma_at_zero=sigma0,
                            I_q=I_q, I_qu=I_qu, c_kernel=c_kernel, ratio=ratio,
                            eps_max=eps_max, strict_unit_bound=n.strict_unit_bound,
                            failures=tuple(failures))


def epsilon_max(report: HypothesisReport) -> float:
    """Largest admissible slack: R - c (1 + v(R)/u(R)) I_qu, for ratio > 1."""
    if not (np.isfinite(report.ratio) and report.ratio > 1.0):
        raise ValueError(f"size ratio must exceed 1, got {report.ratio}")
    return report.eps_max
