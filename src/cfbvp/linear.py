"""General solutions of the linear integro-differential equation and the
residual diagnostic of its solutions, on the right half [0, 1].

On each half-interval the homogeneous solutions are cosh(lam t) and
sinh(lam t); a particular solution is a one-sided exponential convolution
of the forcing.  The reflection t -> -t maps the left-half equation onto
the right-half one, so the left-half functions reflect their inputs and
call the right-half ones.  The boundary value solve itself is
green.apply_green.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cf_derivative import rate_of
from .quadrature import Mesh, integrate

__all__ = ["GeneralSolutionCoeffs", "general_solution_right_half",
           "general_solution_left_half", "residual_linear", "ResidualReport",
           "LocalQuartic"]


class LocalQuartic:
    """Piecewise quartic interpolant of (x, y) on nodes x[0] < ... < x[n-1], n >= 5.

    On the cell [x[i], x[i+1]] it is the quartic through the five nodes
    x[j .. j+4], j = i - 2 clipped to [0, n - 5], written in the cell
    variable u = (p - x[i]) / h[i] as a0 + a1 u + a2 u^2 + a3 u^3 + a4 u^4.
    All cells are fitted by one batched solve; points outside [x[0], x[-1]]
    read the end cells' quartics.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if len(x) < 5:
            raise ValueError("need at least 5 nodes for the local quartic")
        if not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
            raise ValueError("nodes must be finite and strictly increase")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            i = bad[0]
            raise ValueError(f"cannot interpolate the non-finite value {y[i]} "
                             f"at node {x[i]:.17g}")
        self.x = x
        self.h = np.diff(x)
        window = np.clip(np.arange(len(self.h)) - 2, 0, len(x) - 5)[:, None] + np.arange(5)
        u = (x[window] - x[:-1, None]) / self.h[:, None]
        vander = u[:, :, None] ** np.arange(5)
        self.coeffs = np.linalg.solve(vander, y[window][:, :, None])[:, :, 0]

    def _locate(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Cell index i and cell variable u of each point."""
        p = np.asarray(p, dtype=float)
        i = np.clip(np.searchsorted(self.x, p, "right") - 1, 0, len(self.x) - 2)
        return i, (p - self.x[i]) / self.h[i]

    def __call__(self, p) -> np.ndarray:
        i, u = self._locate(p)
        a0, a1, a2, a3, a4 = np.moveaxis(self.coeffs[i], -1, 0)
        return (((a4 * u + a3) * u + a2) * u + a1) * u + a0

    def second_derivative(self, p) -> np.ndarray:
        i, u = self._locate(p)
        _, _, a2, a3, a4 = np.moveaxis(self.coeffs[i], -1, 0)
        return ((12.0 * a4 * u + 6.0 * a3) * u + 2.0 * a2) / self.h[i] ** 2


@dataclass(frozen=True)
class GeneralSolutionCoeffs:
    """Free coefficients (c1, c2) of the homogeneous part on one half."""

    c1: float
    c2: float


def general_solution_right_half(mu, coeffs: GeneralSolutionCoeffs, y,
                                t: float, mesh: Mesh) -> float:
    """c1 cosh(lam t) + c2 sinh(lam t) - int_0^t e^{lam(t-tau)} y(tau) dtau, t in [0,1].

    The callable y is evaluated at the Gauss nodes of mesh rescaled onto [0, t].
    """
    lam = rate_of(mu)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t} outside [0, 1]")
    val = coeffs.c1 * np.cosh(lam * t) + coeffs.c2 * np.sinh(lam * t)
    if t > 0.0:
        m = mesh.rescaled(0.0, t)
        s = m.flat_nodes
        val -= integrate(np.exp(lam * (t - s)) * np.asarray(y(s), dtype=float), m)
    return float(val)


def general_solution_left_half(mu, coeffs: GeneralSolutionCoeffs, y,
                               t: float, mesh: Mesh) -> float:
    """c1 cosh(lam t) + c2 sinh(lam t) - int_t^0 e^{lam(tau-t)} y(tau) dtau, t in [-1,0].

    This is the right-half solution of s -> y(-s) at -t, with c2 negated
    because sinh is odd.
    """
    if not -1.0 <= t <= 0.0:
        raise ValueError(f"t = {t} outside [-1, 0]")
    mirrored = GeneralSolutionCoeffs(coeffs.c1, -coeffs.c2)
    return general_solution_right_half(mu, mirrored, lambda s: y(-s), -t, mesh)


@dataclass(frozen=True)
class ResidualReport:
    nodes: np.ndarray
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def residual_linear(mu, x, y, mesh: Mesh, half: str = "right") -> ResidualReport:
    """Pointwise residual of the linear equation on one half-interval.

    x and y are callables on the half.  x is sampled at the mesh
    breakpoints and its second derivative comes from the local quartic
    through them, so tolerances on smooth inputs are interpolation-limited
    (1e-9 scale at a few hundred cells, O(h^3)) rather than
    quadrature-limited.  The mesh must be uniform (equal cell widths to
    within rounding; ValueError otherwise): x'' divides by h^2, so on a
    graded mesh the roundoff of its finest cells swamps the defect.  The
    left half is the right-half residual of s -> x(-s) and s -> y(-s),
    read back at the nodes -t.
    """
    lam = rate_of(mu)
    if half not in ("right", "left"):
        raise ValueError(f"half must be 'right' or 'left', got {half!r}")
    if half == "left":
        rep = residual_linear(mu, lambda s: x(-s), lambda s: y(-s), mesh)
        return ResidualReport(nodes=-rep.nodes[::-1], values=rep.values[::-1])
    bps = mesh.breakpoints
    if mesh.a != 0.0 or mesh.b != 1.0:
        raise ValueError("mesh must cover [0, 1]; the half flag selects the sign")
    if np.ptp(np.diff(bps)) > 4.0 * np.finfo(float).eps:
        raise ValueError("mesh must be uniform: the cell widths differ beyond rounding")
    if len(bps) < 9:
        raise ValueError("grid too coarse for differentiating the interpolant (<9 nodes)")
    xv = np.array([float(x(s)) for s in bps])
    yv = np.array([float(y(s)) for s in bps])
    interp = LocalQuartic(bps, xv)
    # integrate on the interpolant's cells, so that each polynomial piece
    # meets the Gauss rule whole; the integral up to the i-th breakpoint
    # runs over the cells before it
    s, w = mesh.nodes, mesh.weights
    xpp, xs = interp.second_derivative(s), interp(s)
    res = yv.copy()  # at t = 0 both integrals are empty
    for i in range(1, len(bps)):
        kern = np.exp(-lam * (bps[i] - s[:i])).reshape(-1)
        wc = w[:i].reshape(-1)
        # (2-mu) * fractional term
        cfd_part = float(np.dot(wc, kern * xpp[:i].reshape(-1)))
        memory = lam * lam * float(np.dot(wc, kern * xs[:i].reshape(-1)))
        res[i] = cfd_part + yv[i] - memory
    return ResidualReport(nodes=bps, values=res)
