"""Sampled even functions on [-1, 1], stored on the right half, and the
local quartic interpolant that reads them between the nodes.

Evaluation at t reads the interpolant at |t|, so the symmetry y(t) = y(-t)
holds exactly by construction rather than up to rounding.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LocalQuartic", "SymmetricGridFunction"]


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


class SymmetricGridFunction:
    """An even function sampled at right-half nodes 0 = s0 < ... < sN = 1."""

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must strictly increase")
        if not nodes.size or nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("node set must include both endpoints 0 and 1")
        nodes.setflags(write=False)
        values.setflags(write=False)
        self.nodes = nodes
        self.values = values
        self._interp = None  # the LocalQuartic, fitted on first use

    def __call__(self, t):
        """Interpolated value at |t| (even extension is structural)."""
        if self._interp is None:
            self._interp = LocalQuartic(self.nodes, self.values)
        p = np.abs(t)
        return self._interp(p.ravel()).reshape(np.shape(p))
