"""The four-branch kernel of the linear boundary value problem.

On each same-sign square of [-1,1]^2 the kernel has two analytic branches
separated by the diagonal, where a Volterra correction term switches on
and produces a unit jump.  Left-half queries are folded onto the right
half by the exact symmetry G(t, tau) = G(-t, -tau), which makes the
symmetry a structural guarantee instead of a numerical one.

Mixed-sign (t, tau) pairs are undefined and rejected: the integral
representation only ever integrates over the half-interval containing t.
GreenOperator is the one implementation of that integral, and rate_of the
one check of an order.
"""

from __future__ import annotations

import numpy as np

from .quadrature import Mesh, gauss_integration_matrix

__all__ = ["rate_of", "green_eval", "green_diagonal_jump", "kernel_bound", "GreenOperator"]


def rate_of(mu):
    """The kernel decay rate (mu - 1) / (2 - mu) > 0 for mu in (1, 2).

    The one check of an order: a mu outside the working range (1, 2) is a
    ValueError, which names the first such order of an array of orders.  A
    scalar order gives a float, an array of orders an array of rates.
    """
    orders = np.asarray(mu, dtype=float)
    good = (1.0 < orders) & (orders < 2.0)  # nan is not
    if not good.all():
        raise ValueError(f"order must lie in (1, 2), got {float(orders.flat[np.argmin(good)])}")
    rates = (orders - 1.0) / (2.0 - orders)
    return float(rates) if rates.ndim == 0 else rates


def lower_branch(lam, t, tau):
    """Kernel for 0 <= tau <= t <= 1 (includes the Volterra correction).

    cosh(lam t) / cosh(lam) e^{lam (1 - tau)} - e^{lam (t - tau)}, written
    without the cancellation of its two terms of size e^lam.
    """
    return (np.exp(-lam * (t + tau)) - np.exp(-lam * (2.0 - t + tau))) \
        / (1.0 + np.exp(-2.0 * lam))


def upper_branch(lam, t, tau):
    """Kernel for 0 <= t <= tau <= 1.

    cosh(lam t) / cosh(lam) e^{lam (1 - tau)}, written with exponents <= 0,
    so it overflows at no order.  On tau < t it reads |tau - t|, which
    keeps it finite where green_eval evaluates it and does not keep it.
    """
    return (np.exp(-lam * np.abs(tau - t)) + np.exp(-lam * (tau + t))) \
        / (1.0 + np.exp(-2.0 * lam))


def green_eval(mu, t, tau, side: str = "lower") -> np.ndarray:
    """Kernel values at the broadcast points (t, tau), one table per order.

    ``mu`` is an order or an array of orders; the result has the shape
    ``np.shape(mu) + np.broadcast_shapes(np.shape(t), np.shape(tau))``, the
    order axes first (a 0-d array for a scalar order and scalar points),
    and each order's table has the bits of a call with that order alone.
    On the diagonal tau == t the two branches disagree by a unit jump;
    ``side`` selects which one ("lower", the default convention, or
    "upper", the other one-sided value).  Both branches take exponentials
    of non-positive arguments only, so every order in (1, 2) gives finite
    values: at mu = 1.9987, G(0, 0.5) = 2 e^{-lam/2} / (1 + e^{-2 lam}),
    about 3e-167.
    """
    lam = rate_of(mu)
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be lower or upper, got {side!r}")
    t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
    pt, ptau = np.broadcast_arrays(t, tau)  # the points, for the checks and their messages
    for bad, message in (((np.abs(pt) > 1.0) | (np.abs(ptau) > 1.0),
                          "(t, tau) = ({}, {}) outside [-1, 1]^2"),
                         (pt * ptau < 0.0,
                          "kernel undefined for mixed-sign arguments (t, tau) = ({}, {})")):
        if np.any(bad):
            i = np.argmax(bad)  # the first offending point
            raise ValueError(message.format(pt.flat[i], ptau.flat[i]))
    t, tau = np.abs(t), np.abs(tau)  # G(-t, -tau) = G(t, tau)
    lower = (tau < t) | ((tau == t) & (side != "upper"))
    lam = np.reshape(lam, np.shape(lam) + (1,) * lower.ndim)  # each order over the points' axes
    return np.where(lower, lower_branch(lam, t, tau), upper_branch(lam, t, tau))


def green_diagonal_jump(mu, t) -> np.ndarray:
    """Upper-side minus lower-side kernel value at tau == t (analytically 1),
    one row per order, as green_eval."""
    return green_eval(mu, t, t, side="upper") - green_eval(mu, t, t, side="lower")


def kernel_bound(mu):
    """sup G = G(0, 0) on the upper side, 2 / (1 + e^{-2 lam}), for an order
    or an array of orders.

    On tau >= t both exponentials of upper_branch are at most 1, so their
    rounded sum is at most 2 and the quotient at most this double, which
    is the branch's own value at the corner t = tau = 0; the lower branch
    stays below 1 / (1 + e^{-2 lam}).  So on any grid that contains 0 the
    max of green_eval is this double, bit for bit.
    """
    return 2.0 / (1.0 + np.exp(-2.0 * rate_of(mu)))


class GreenOperator:
    """The map y -> x(t) = int_0^1 G(t, tau) y(tau) dtau, from y at the Gauss
    nodes ``tau`` to x at the mesh breakpoints ``grid`` and at the nodes.

    With d = 1 + e^{-2 lam} the kernel is semi-separable on the right half:
    G(t, tau) = a(t) e^{-lam tau} for tau <= t and b(t) e^{-lam tau} for
    tau >= t, where a(t) = (e^{-lam t} - e^{lam t - 2 lam}) / d and
    b(t) = (e^{lam t} + e^{-lam t}) / d.  With the cell integrals
    c_j = int_{cell j} e^{-lam tau} y, x(t_i) = a(t_i) sum_{j<i} c_j
    + b(t_i) sum_{j>=i} c_j at a breakpoint: one prefix and one suffix sum
    for all rows.  a(1) = 0 and the suffix at t = 1 is empty, so x(1) = 0
    exactly.  At a node inside cell j the cell splits at the node: the
    integral from the cell's start to the node takes the Gauss rule's
    spectral integration matrix (a Nystrom discretization), so x is known
    exactly where the quadrature reads it, in O(cells k^2).
    """

    def __init__(self, mu, mesh: Mesh):
        lam = rate_of(mu)
        t = mesh.breakpoints
        d = 1.0 + np.exp(-2.0 * lam)
        self.grid = t
        self.tau = mesh.flat_nodes
        self.points = np.concatenate((self.grid, self.tau))
        # the spectral step from each cell's start to its nodes: half-widths
        # times the node values through the transposed integration matrix;
        # stored in the nodes' full shape, so apply multiplies without a
        # column broadcast
        k = mesh.nodes.shape[1]
        self._half = np.repeat(0.5 * np.diff(t), k).reshape(mesh.nodes.shape)
        self._spectral = gauss_integration_matrix(k).T
        self._decay = np.exp(-lam * mesh.nodes)
        self._weights = mesh.weights * self._decay
        # a(s) without the cancellation of e^{-lam s} - e^{lam s - 2 lam} near s = 1
        a = lambda s: 2.0 * np.exp(-lam) * np.sinh(lam * (1.0 - s)) / d
        b = lambda s: 2.0 * np.cosh(lam * s) / d
        self._below, self._above = a(t), b(t)
        self._below_nodes, self._above_nodes = a(mesh.nodes), b(mesh.nodes)

    def apply(self, y) -> np.ndarray:
        """x at ``points``: ``grid``, then ``tau``.

        ``y`` holds the integrand's values at the nodes ``tau``; a scalar
        is a constant integrand.  The result is a new array; the sums are
        filled into buffers in place.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.tau.shape:  # a constant integrand, filled as integrate fills it
            y = np.full(self.tau.shape, y)
        y = y.reshape(self._weights.shape)
        n = len(self.grid)
        out = np.empty(len(self.points))
        x = out[:n]
        cells = np.einsum("ij,ij->i", self._weights, y)
        prefix, suffix = np.empty(n), np.empty(n)
        prefix[0] = suffix[-1] = 0.0
        cells.cumsum(out=prefix[1:])
        cells[::-1].cumsum(out=suffix[-2::-1])  # the sums from each cell to 1
        np.multiply(self._below, prefix, out=x)
        x += self._above * suffix
        inside = out[n:].reshape(self._weights.shape)
        part = (self._decay * y) @ self._spectral
        part *= self._half  # cell start to node
        np.add(prefix[:-1, None], part, out=inside)
        inside *= self._below_nodes
        np.subtract(suffix[:-1, None], part, out=part)
        part *= self._above_nodes
        inside += part
        return out

