"""The four-branch kernel of the linear boundary value problem.

On each same-sign square of [-1,1]^2 the kernel has two analytic branches
separated by the diagonal, where a Volterra correction term switches on
and produces a unit jump.  Left-half queries are folded onto the right
half by the exact symmetry G(t, tau) = G(-t, -tau), which makes the
symmetry a structural guarantee instead of a numerical one.

Mixed-sign (t, tau) pairs are undefined and rejected: the integral
representation only ever integrates over the half-interval containing t.
GreenOperator is the one implementation of that integral.
"""

from __future__ import annotations

import numpy as np

from .cf_derivative import rate_of
from .gridfn import SymmetricGridFunction
from .quadrature import Mesh

__all__ = ["green_eval", "green_diagonal_jump", "green_sup", "GreenOperator",
           "apply_green"]


def lower_branch(lam: float, t, tau):
    """Kernel for 0 <= tau <= t <= 1 (includes the Volterra correction).

    cosh(lam t) / cosh(lam) e^{lam (1 - tau)} - e^{lam (t - tau)}, written
    without the cancellation of its two terms of size e^lam.
    """
    return (np.exp(-lam * (t + tau)) - np.exp(-lam * (2.0 - t + tau))) \
        / (1.0 + np.exp(-2.0 * lam))


def upper_branch(lam: float, t, tau):
    """Kernel for 0 <= t <= tau <= 1."""
    return (np.cosh(lam * t) / np.cosh(lam)) * np.exp(lam * (1.0 - tau))


def green_eval(mu, t, tau, side: str = "auto") -> np.ndarray:
    """Kernel values at the broadcast points (t, tau); a 0-d array for scalars.

    On the diagonal tau == t the two branches disagree by a unit jump;
    ``side`` selects which one ("lower" is the default convention,
    "upper" exposes the other one-sided value).
    """
    lam = rate_of(mu)
    if side not in ("auto", "lower", "upper"):
        raise ValueError(f"side must be auto, lower or upper, got {side!r}")
    t, tau = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(tau, dtype=float))
    for bad, message in (((np.abs(t) > 1.0) | (np.abs(tau) > 1.0),
                          "(t, tau) = ({}, {}) outside [-1, 1]^2"),
                         (t * tau < 0.0,
                          "kernel undefined for mixed-sign arguments (t, tau) = ({}, {})")):
        if np.any(bad):
            i = np.argmax(bad)  # the first offending point
            raise ValueError(message.format(t.flat[i], tau.flat[i]))
    t, tau = np.abs(t), np.abs(tau)  # G(-t, -tau) = G(t, tau)
    lower = (tau < t) | ((tau == t) & (side != "upper"))
    return np.where(lower, lower_branch(lam, t, tau), upper_branch(lam, t, tau))


def green_diagonal_jump(mu, t) -> np.ndarray:
    """Upper-side minus lower-side kernel value at tau == t (analytically 1)."""
    return green_eval(mu, t, t, side="upper") - green_eval(mu, t, t, side="lower")


def green_sup(mu, grid_density: int) -> float:
    """Max kernel value over a tensor grid, both diagonal sides included.

    By the folding symmetry the two same-sign squares carry identical values,
    so a single right-half sweep covers both.
    """
    lam = rate_of(mu)
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    g = np.linspace(0.0, 1.0, grid_density)
    i, j = np.tril_indices(grid_density)  # g[j] <= g[i]: each branch on its own triangle
    # np.max, unlike max, keeps a NaN of either branch
    return float(np.max([np.max(lower_branch(lam, g[i], g[j])),
                         np.max(upper_branch(lam, g[j], g[i]))]))


class GreenOperator:
    """The map y -> x(t) = int_0^1 G(t, tau) y(tau) dtau at the mesh breakpoints.

    With d = 1 + e^{-2 lam} the kernel is semi-separable on the right half:
    G(t, tau) = a(t) e^{-lam tau} for tau <= t and b(t) e^{-lam tau} for
    tau >= t, where a(t) = (e^{-lam t} - e^{lam t - 2 lam}) / d and
    b(t) = (e^{lam t} + e^{-lam t}) / d.  Since every output point is a
    breakpoint, no cell straddles the diagonal: with the cell integrals
    c_j = int_{cell j} e^{-lam tau} y, x(t_i) = a(t_i) sum_{j<i} c_j
    + b(t_i) sum_{j>=i} c_j, one prefix and one suffix sum for all rows.
    a(1) = 0 and the suffix at t = 1 is empty, so x(1) = 0 exactly.
    """

    def __init__(self, mu, mesh: Mesh):
        lam = rate_of(mu)
        if mesh.a != 0.0 or mesh.b != 1.0:
            raise ValueError(f"mesh must cover [0, 1], got [{mesh.a}, {mesh.b}]")
        t = mesh.breakpoints
        d = 1.0 + np.exp(-2.0 * lam)
        self.grid = t
        self.tau = mesh.flat_nodes
        self._weights = mesh.weights * np.exp(-lam * mesh.nodes)
        # e^{-lam t} - e^{lam t - 2 lam} written without cancellation near t = 1
        self._below = 2.0 * np.exp(-lam) * np.sinh(lam * (1.0 - t)) / d
        self._above = 2.0 * np.cosh(lam * t) / d

    def apply(self, integrand) -> np.ndarray:
        y = np.broadcast_to(np.asarray(integrand(self.tau), dtype=float), self.tau.shape)
        cells = np.einsum("ij,ij->i", self._weights, y.reshape(self._weights.shape))
        prefix = np.concatenate(([0.0], np.cumsum(cells)))
        suffix = np.concatenate((np.cumsum(cells[::-1])[::-1], [0.0]))
        return self._below * prefix + self._above * suffix


def apply_green(mu, y: SymmetricGridFunction, mesh: Mesh) -> SymmetricGridFunction:
    """Solve the linear problem: x(t) = int_0^1 G(t, tau) y(tau) dtau.

    Requires y(0) = 0 (the linear problem's compatibility condition); the
    output lives on the mesh breakpoints and is symmetric by construction.
    """
    if abs(float(y(0.0))) > 1e-12:
        raise ValueError(f"y(0) = {float(y(0.0))!r} violates the y(0) = 0 requirement")
    op = GreenOperator(mu, mesh)
    return SymmetricGridFunction(op.grid, op.apply(y))
