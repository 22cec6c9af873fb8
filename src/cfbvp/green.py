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

__all__ = ["rate_of", "green_eval", "green_diagonal_jump", "green_sup", "kernel_bound",
           "GreenOperator"]


def rate_of(mu):
    """The kernel decay rate (mu - 1) / (2 - mu) > 0 for mu in (1, 2).

    The one check of an order: a mu outside the working range (1, 2) is a
    ValueError, which names the first such order of an array of orders.  A
    scalar order gives a float, an array of orders an array of rates.
    """
    # a scalar order makes no array, which would cost each call microseconds
    if isinstance(mu, (list, tuple, np.ndarray)) and np.ndim(mu) > 0:
        orders = np.asarray(mu, dtype=float)
        good = (1.0 < orders) & (orders < 2.0)  # nan is not
        if good.all():
            return (orders - 1.0) / (2.0 - orders)
        mu = orders.flat[np.argmin(good)]  # the first bad order, rejected below
    mu = float(mu)
    if not 1.0 < mu < 2.0:
        raise ValueError(f"order must lie in (1, 2), got {mu}")
    return (mu - 1.0) / (2.0 - mu)


def lower_branch(lam, t, tau):
    """Kernel for 0 <= tau <= t <= 1 (includes the Volterra correction).

    cosh(lam t) / cosh(lam) e^{lam (1 - tau)} - e^{lam (t - tau)}, written
    without the cancellation of its two terms of size e^lam.
    """
    return (np.exp(-lam * (t + tau)) - np.exp(-lam * (2.0 - t + tau))) \
        / (1.0 + np.exp(-2.0 * lam))


def upper_factors(lam, t, tau):
    """The two factors of the upper branch, cosh(lam t) / cosh(lam) and
    e^{lam (1 - tau)}; upper_branch is their rounded product."""
    return np.cosh(lam * t) / np.cosh(lam), np.exp(lam * (1.0 - tau))


def upper_branch(lam, t, tau):
    """Kernel for 0 <= t <= tau <= 1."""
    row, col = upper_factors(lam, t, tau)
    return row * col


def green_eval(mu, t, tau, side: str = "lower") -> np.ndarray:
    """Kernel values at the broadcast points (t, tau), one table per order.

    ``mu`` is an order or an array of orders; the result has the shape
    ``np.shape(mu) + np.broadcast_shapes(np.shape(t), np.shape(tau))``, the
    order axes first (a 0-d array for a scalar order and scalar points),
    and each order's table has the bits of a call with that order alone.
    On the diagonal tau == t the two branches disagree by a unit jump;
    ``side`` selects which one ("lower", the default convention, or
    "upper", the other one-sided value).  For lam > 709 cosh(lam)
    overflows, without a numpy warning: the upper branch is 0 where
    cosh(lam t) and e^{lam (1 - tau)} are still finite, although its value
    e^{-lam (tau - t)} (1 + e^{-2 lam t}) may be a normal double (about
    3e-167 at mu = 1.9987, t = 0, tau = 0.5), and nan where either
    overflows too.
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
    # G(-t, -tau) = G(t, tau); on the inputs' own shapes, so the upper
    # branch's factors are computed once per coordinate, not per point
    t, tau = np.abs(t), np.abs(tau)
    lower = (tau < t) | ((tau == t) & (side != "upper"))
    # each order's rate over the points' axes, and over the gathered points;
    # a mask of the output's own shape keeps numpy's boolean fast path, where
    # out[..., lower] takes integer indices (about 10x slower on a 201 x 201
    # grid)
    lam_points = np.reshape(lam, np.shape(lam) + (1,) * lower.ndim)
    lam_gathered = np.reshape(lam, np.shape(lam) + (1,))
    mask = np.broadcast_to(lower, np.shape(lam) + lower.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # lam > 709: 0 or nan, as above
        out = np.asarray(upper_branch(lam_points, t, tau))  # a new array of the output's shape
        # the lower branch only at its own points, gathered on the points
        # alone, with the order axes carried along
        t, tau = np.broadcast_arrays(t, tau)
        out[mask] = lower_branch(lam_gathered, t[lower], tau[lower]).ravel()
    return out


def green_diagonal_jump(mu, t) -> np.ndarray:
    """Upper-side minus lower-side kernel value at tau == t (analytically 1),
    one row per order, as green_eval."""
    return green_eval(mu, t, t, side="upper") - green_eval(mu, t, t, side="lower")


def green_sup(mu, grid_density: int) -> float:
    """Max kernel value over a tensor grid, both diagonal sides included.

    The two same-sign squares carry the same values, so the right half
    covers both.  There the upper branch at (t, tau) = (g_j, g_i), j <= i,
    is the rounded product row[j] col[i]; rounding it is monotone in row[j],
    so a running max of row gives the max over j <= i, in O(n) and exact
    even where the computed cosh is not monotone.  The lower branch never sets the
    max: e^{-x}, x >= 0, is at most 1, and subtracting a non-negative term
    or dividing by 1 + e^{-2 lam} >= 1 cannot raise it (nor make a nan),
    while the upper corner (0, 0) is 1 + tanh(lam) >= 1.  inf where only
    e^lam overflows (lam in (709.78, 710.47)), nan past; no warning.
    """
    lam = rate_of(mu)
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    g = np.linspace(0.0, 1.0, grid_density)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as above
        row, col = upper_factors(lam, g, g)
        return float(np.max(np.maximum.accumulate(row) * col))  # both keep a nan


def kernel_bound(mu) -> float:
    """sup G = G(0, 0) on the upper side, 2 / (1 + e^{-2 lam}); nan if lam > 709.

    On tau >= t the upper branch decreases in tau, and on the diagonal,
    (e^lam + e^{lam (1 - 2t)}) / (2 cosh lam), in t, so its sup is at the
    corner t = tau = 0; the lower branch stays below 1 / (1 + e^{-2 lam}).
    The corner value is taken with upper_branch's own arithmetic, so it is
    the double that green_sup measures on any grid (each contains 0).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # cosh(lam) = inf: nan
        return float(upper_branch(rate_of(mu), 0.0, 0.0))


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
        self._half = np.repeat(0.5 * np.diff(t), mesh.nodes_per_cell).reshape(mesh.nodes.shape)
        self._spectral = gauss_integration_matrix(mesh.nodes_per_cell).T
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
        if y.shape != self.tau.shape:  # a constant integrand
            y = np.broadcast_to(y, self.tau.shape)
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

