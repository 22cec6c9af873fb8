"""The paper's exponential-kernel (Caputo-Fabrizio) derivatives and the
general solutions of its linear equation, on the right half [0, 1]: the
oracles the tests check the Green kernel and operator against.

The left/right derivatives of order mu in (1, 2) act on the second
classical derivative of the target function through the kernel
exp(-rate |t - tau|), rate = (mu - 1) / (2 - mu); both are one exponential
convolution, exp_convolution, returned at every mesh breakpoint.  On each
half-interval the homogeneous solutions of the linear equation are
cosh(lam t) and sinh(lam t), and a particular solution is a one-sided
exponential convolution of the forcing.  The reflection t -> -t maps the
left half onto the right one, so the left-half functions reflect their
inputs and call the right-half ones.  The boundary value solve itself is
green.GreenOperator, which check and solve run.
"""

from __future__ import annotations

import numpy as np

from cfbvp.green import rate_of
from cfbvp.quadrature import Mesh


def exp_convolution(values, rate: float, mesh: Mesh) -> np.ndarray:
    """P[i] = int_{t_0}^{t_i} exp(-rate (t_i - s)) g(s) ds at every breakpoint t_i.

    values holds g at ``mesh.flat_nodes``; a scalar is a constant g.  With
    c_i cell i's Gauss sum, its kernel measured from the cell's right end,
    P[i + 1] = exp(-rate h_i) P[i] + c_i from P[0] = 0: for rate > 0 every
    factor is at most 1, so nothing overflows.
    """
    g = np.broadcast_to(np.asarray(values, dtype=float), mesh.flat_nodes.shape)
    kernel = np.exp(-rate * (mesh.breakpoints[1:, None] - mesh.nodes))
    cells = (mesh.weights * kernel * g.reshape(mesh.nodes.shape)).sum(axis=1)
    decay = np.exp(-rate * np.diff(mesh.breakpoints))
    out = [0.0]
    for d, c in zip(decay.tolist(), cells.tolist()):
        out.append(d * out[-1] + c)
    return np.array(out)


def cf_left(xpp, mu, mesh: Mesh) -> np.ndarray:
    """Left derivative (1/(2-mu)) int_0^t exp(-rate (t-s)) xpp(s) ds at ``mesh.breakpoints``.

    xpp is the second classical derivative of the target function, a
    callable evaluated at the mesh's Gauss nodes.
    """
    rate = rate_of(mu)
    return exp_convolution(xpp(mesh.flat_nodes), rate, mesh) / (2.0 - mu)


def cf_right(xpp, mu, mesh: Mesh) -> np.ndarray:
    """Right derivative (1/(2-mu)) int_t^0 exp(-rate (s-t)) xpp(s) ds at
    ``-mesh.breakpoints[::-1]``, the left half in ascending order.

    The reflection s -> -s makes it the left derivative of s -> xpp(-s).
    """
    return cf_left(lambda s: xpp(-s), mu, mesh)[::-1]


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


def general_solution_right_half(mu, c1: float, c2: float, y, mesh: Mesh) -> np.ndarray:
    """c1 cosh(lam t) + c2 sinh(lam t) - int_0^t e^{lam(t-tau)} y(tau) dtau at
    ``mesh.breakpoints``.

    The callable y is evaluated at the mesh's Gauss nodes.
    """
    lam = rate_of(mu)
    t = mesh.breakpoints
    return (c1 * np.cosh(lam * t) + c2 * np.sinh(lam * t)
            - exp_convolution(y(mesh.flat_nodes), -lam, mesh))


def general_solution_left_half(mu, c1: float, c2: float, y, mesh: Mesh) -> np.ndarray:
    """c1 cosh(lam t) + c2 sinh(lam t) - int_t^0 e^{lam(tau-t)} y(tau) dtau at
    ``-mesh.breakpoints[::-1]``, the left half in ascending order.

    This is the right-half solution of s -> y(-s), read back at -t, with c2
    negated because sinh is odd.
    """
    return general_solution_right_half(mu, c1, -c2, lambda s: y(-s), mesh)[::-1]


def residual_linear(mu, x, y, mesh: Mesh, half: str = "right") -> np.ndarray:
    """Pointwise residual (2 - mu) cf_left(x'' - lam^2 x) + y of the linear
    equation, at the breakpoints of one half-interval.

    x and y are callables on the half.  x is sampled at the mesh breakpoints and its second derivative
    comes from the local quartic through them, so tolerances on smooth
    inputs are interpolation-limited (1e-9 scale at a few hundred cells,
    O(h^3)) rather than quadrature-limited.  The mesh must be uniform
    (equal cell widths to within rounding; ValueError otherwise): x''
    divides by h^2, so on a graded mesh the roundoff of its finest cells
    swamps the defect.  The left half is the right-half residual of
    s -> x(-s) and s -> y(-s), read back on ``-mesh.breakpoints[::-1]``.
    """
    lam = rate_of(mu)
    if half not in ("right", "left"):
        raise ValueError(f"half must be 'right' or 'left', got {half!r}")
    if half == "left":
        return residual_linear(mu, lambda s: x(-s), lambda s: y(-s), mesh)[::-1]
    bps = mesh.breakpoints
    if np.ptp(np.diff(bps)) > 4.0 * np.finfo(float).eps:
        raise ValueError("mesh must be uniform: the cell widths differ beyond rounding")
    if len(bps) < 9:
        raise ValueError("grid too coarse for differentiating the interpolant (<9 nodes)")
    interp = LocalQuartic(bps, np.broadcast_to(np.asarray(x(bps), dtype=float), bps.shape))
    # x'' - lam^2 x at the Gauss nodes, so that each polynomial piece of the
    # interpolant meets the Gauss rule whole
    cfd = cf_left(lambda s: interp.second_derivative(s) - lam * lam * interp(s), mu, mesh)
    return (2.0 - mu) * cfd + y(bps)
