"""Sampled even functions on [-1, 1], stored on the right half, and the
not-a-knot cubic spline that interpolates them.

Evaluation at t reads the interpolant at |t|, so the symmetry y(t) = y(-t)
holds exactly by construction rather than up to rounding.

The spline repeats the arithmetic of scipy's ``CubicSpline(x, y,
bc_type="not-a-knot")`` operation for operation, so its values are the
same doubles: the same right-hand side of the tridiagonal slope system,
the elimination of LAPACK ``dgtsv`` (row interchanges included), the same
Hermite coefficients, and ``PPoly``'s interval search and Horner order.
The work that depends only on the nodes (the elimination) is done once per
node set.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SplineNodes", "SymmetricGridFunction"]


class SplineNodes:
    """Node-only part of the not-a-knot cubic splines on nodes x[0] < ... < x[n-1].

    Holds the ``dgtsv`` elimination of the slope system; ``fit`` turns
    values into the piecewise coefficients (c0, c1, c2, c3) of
    c0 s^3 + c1 s^2 + c2 s + c3, s = p - x[i].
    """

    def __init__(self, x):
        x = np.array(x, dtype=float)
        if x.ndim != 1 or len(x) < 4:
            raise ValueError("need at least 4 nodes for cubic interpolation")
        if not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
            raise ValueError("nodes must be finite and strictly increase")
        self.x = x
        self._dx = dx = np.diff(x)
        # the banded system of CubicSpline, as solve_banded hands it to gtsv
        d = [dx[1].item(), *(2 * (dx[:-1] + dx[1:])).tolist(), dx[-2].item()]
        du = [(x[2] - x[0]).item(), *dx[:-1].tolist()]
        dl = [*dx[1:].tolist(), (x[-1] - x[-3]).item()]
        n = len(x)
        self._forward = []  # (multiplier, rows interchanged) per step
        for i in range(n - 1):
            if abs(d[i]) >= abs(dl[i]):
                fact = dl[i] / d[i]
                d[i + 1] = d[i + 1] - fact * du[i]
                dl[i] = 0.0
                self._forward.append((fact, False))
            else:
                fact = d[i] / dl[i]
                d[i] = dl[i]
                temp = d[i + 1]
                d[i + 1] = du[i] - fact * temp
                if i < n - 2:
                    dl[i] = du[i + 1]
                    du[i + 1] = -fact * dl[i]
                du[i] = temp
                self._forward.append((fact, True))
        self._last = (d[-1], du[-1], d[-2])
        # rows n-3 ... 0 of the upper triangular factor, bottom up
        self._backward = list(zip(d[-3::-1], du[-2::-1], dl[-2::-1]))

    def _slopes(self, b: list) -> np.ndarray:
        """Solve the factored slope system for the right-hand side b."""
        rows = []
        cur = b[0]
        for nxt, (fact, swapped) in zip(b[1:], self._forward):
            if swapped:
                rows.append(nxt)
                cur = cur - fact * nxt
            else:
                rows.append(cur)
                cur = nxt - fact * cur
        d_last, du_last, d_prev = self._last
        s2 = cur / d_last
        s1 = (rows[-1] - du_last * s2) / d_prev
        out = [s2, s1]
        for r, (d, du, dl) in zip(rows[-2::-1], self._backward):
            s1, s2 = (r - du * s1 - dl * s2) / d, s1
            out.append(s1)
        return np.array(out[::-1])

    def fit(self, y) -> tuple[np.ndarray, ...]:
        """Coefficients (c0, c1, c2, c3) of the not-a-knot spline through (x, y)."""
        y = np.asarray(y, dtype=float)
        if y.shape != self.x.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            i = bad[0]
            raise ValueError(f"cannot interpolate the non-finite value {y[i]} "
                             f"at node {self.x[i]:.17g}")
        x, dx = self.x, self._dx
        slope = np.diff(y) / dx
        b = np.empty_like(y)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        b[0] = ((dx[0] + 2*d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = (dx[-1]**2*slope[-2] + (2*d + dx[-1])*dx[-2]*slope[-1]) / d
        s = self._slopes(b.tolist())
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        # 0.0 + c3 as PPoly's sum starts from 0.0 (it turns -0.0 into 0.0)
        return t / dx, (slope - s[:-1]) / dx - t, s[:-1], 0.0 + y[:-1]

    def locate(self, p) -> tuple[np.ndarray, ...]:
        """Interval index and s, s^2, s^3 of each point (extrapolating at the ends)."""
        p = np.asarray(p, dtype=float)
        i = np.clip(np.searchsorted(self.x, p, "right") - 1, 0, len(self.x) - 2)
        s = p - self.x[i]
        s2 = s * s
        return i, s, s2, s2 * s

    def value(self, coeffs, p) -> np.ndarray:
        """The spline at p, in PPoly's order ((c3 + c2 s) + c1 s^2) + c0 s^3."""
        i, s, s2, s3 = self.locate(p)
        c0, c1, c2, c3 = coeffs
        return ((c3[i] + c2[i] * s) + c1[i] * s2) + c0[i] * s3

    def second_derivative(self, coeffs, p) -> np.ndarray:
        """The spline's second derivative at p, (0.0 + 2 c1) + (6 c0) s."""
        i, s, _, _ = self.locate(p)
        c0, c1, _, _ = coeffs
        return (0.0 + 2 * c1[i]) + (6 * c0[i]) * s


class SymmetricGridFunction:
    """An even function sampled at right-half nodes 0 = s0 < ... < sN = 1."""

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if len(nodes) < 4:
            raise ValueError("need at least 4 nodes for cubic interpolation")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must strictly increase")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("node set must include both endpoints 0 and 1")
        nodes.setflags(write=False)
        values.setflags(write=False)
        self.nodes = nodes
        self.values = values
        self._spline = None  # (SplineNodes, coefficients), fitted on first use

    @classmethod
    def from_callable(cls, fn, nodes) -> "SymmetricGridFunction":
        nodes = np.asarray(nodes, dtype=float)
        return cls(nodes, np.array([float(fn(s)) for s in nodes]))

    def __call__(self, t):
        """Interpolated value at |t| (even extension is structural)."""
        if self._spline is None:
            knots = SplineNodes(self.nodes)
            self._spline = knots, knots.fit(self.values)
        knots, coeffs = self._spline
        p = np.abs(t)
        return knots.value(coeffs, p.ravel()).reshape(np.shape(p))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def sup_diff(self, other: "SymmetricGridFunction") -> float:
        if not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid mismatch")
        return float(np.max(np.abs(self.values - other.values)))

    def __repr__(self) -> str:
        return (f"SymmetricGridFunction({len(self.nodes)} right-half nodes, "
                f"sup={self.sup_norm():.6g})")
