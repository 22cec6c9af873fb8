"""General solutions of the linear integro-differential equation and the
residual diagnostic of its solutions.

On each half-interval the homogeneous solutions are cosh(lam t) and
sinh(lam t); a particular solution is a one-sided exponential convolution
of the forcing.  The boundary value solve itself is green.apply_green.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cf_derivative import as_order, rate_of
from .gridfn import LocalQuartic
from .quadrature import Mesh, integrate, mesh_from_breakpoints

__all__ = ["GeneralSolutionCoeffs", "general_solution_right_half",
           "general_solution_left_half", "residual_linear", "ResidualReport"]


@dataclass(frozen=True)
class GeneralSolutionCoeffs:
    """Free coefficients (c1, c2) of the homogeneous part on one half."""

    c1: float
    c2: float


def general_solution_right_half(mu, coeffs: GeneralSolutionCoeffs, y,
                                t: float, mesh: Mesh) -> float:
    """c1 cosh(lam t) + c2 sinh(lam t) - int_0^t e^{lam(t-tau)} y(tau) dtau, t in [0,1]."""
    mu = as_order(mu)
    lam = rate_of(mu)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t} outside [0, 1]")
    val = coeffs.c1 * np.cosh(lam * t) + coeffs.c2 * np.sinh(lam * t)
    if t > 0.0:
        m = mesh.rescaled(0.0, t)
        val -= integrate(lambda s: np.exp(lam * (t - s)) * sample_y(y, s), m)
    return float(val)


def general_solution_left_half(mu, coeffs: GeneralSolutionCoeffs, y,
                               t: float, mesh: Mesh) -> float:
    """c1 cosh(lam t) + c2 sinh(lam t) - int_t^0 e^{lam(tau-t)} y(tau) dtau, t in [-1,0]."""
    mu = as_order(mu)
    lam = rate_of(mu)
    if not -1.0 <= t <= 0.0:
        raise ValueError(f"t = {t} outside [-1, 0]")
    val = coeffs.c1 * np.cosh(lam * t) + coeffs.c2 * np.sinh(lam * t)
    if t < 0.0:
        m = mesh.rescaled(t, 0.0)
        val -= integrate(lambda s: np.exp(lam * (s - t)) * sample_y(y, s), m)
    return float(val)


def sample_y(y, s):
    v = y(s)
    return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class ResidualReport:
    nodes: np.ndarray
    values: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def residual_linear(mu, x, y, mesh: Mesh, half: str = "right") -> ResidualReport:
    """Pointwise residual of the linear equation on one half-interval.

    x and y may be callables on the half or SymmetricGridFunction values
    (evaluated through their even extension).  x is sampled at the mesh
    breakpoints and its second derivative comes from the local quartic
    through them, so tolerances on smooth inputs are interpolation-limited
    (1e-9 scale at a few hundred cells, O(h^3)) rather than
    quadrature-limited.  The mesh must be uniform (equal cell widths to
    within rounding; ValueError otherwise): x'' divides by h^2, so on a
    graded mesh the roundoff of its finest cells swamps the defect.
    """
    mu = as_order(mu)
    lam = rate_of(mu)
    if half not in ("right", "left"):
        raise ValueError(f"half must be 'right' or 'left', got {half!r}")
    bps = mesh.breakpoints
    if mesh.a != 0.0 or mesh.b != 1.0:
        raise ValueError("mesh must cover [0, 1]; the half flag selects the sign")
    if np.ptp(np.diff(bps)) > 4.0 * np.finfo(float).eps:
        raise ValueError("mesh must be uniform: the cell widths differ beyond rounding")
    if len(bps) < 9:
        raise ValueError("grid too coarse for differentiating the interpolant (<9 nodes)")
    grid = bps if half == "right" else -bps[::-1]
    xv = np.array([float(x(s)) for s in grid])
    yv = np.array([float(y(s)) for s in grid])
    interp = LocalQuartic(grid, xv)
    # integrate on the interpolant's cells, so that each polynomial piece
    # meets the Gauss rule whole; the integral up to (from) the i-th
    # breakpoint runs over the cells before (after) it
    m = mesh_from_breakpoints(grid, mesh.nodes_per_cell)
    s, w = m.nodes, m.weights
    xpp, xs = interp.second_derivative(s), interp(s)
    res = yv.copy()  # at t = 0 both integrals are empty
    for i, t in enumerate(grid):
        if t == 0.0:
            continue
        cells = slice(None, i) if half == "right" else slice(i, None)
        kern = np.exp(-lam * np.abs(t - s[cells])).reshape(-1)
        wc = w[cells].reshape(-1)
        # (2-mu) * fractional term
        cfd_part = float(np.dot(wc, kern * xpp[cells].reshape(-1)))
        memory = lam * lam * float(np.dot(wc, kern * xs[cells].reshape(-1)))
        res[i] = cfd_part + yv[i] - memory
    return ResidualReport(nodes=grid, values=res)
