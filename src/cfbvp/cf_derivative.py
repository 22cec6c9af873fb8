"""Exponential-kernel fractional left/right derivatives of order mu in (1, 2).

The operators act on the second classical derivative of the target
function through a nonsingular kernel exp(-rate * |t - tau|) with
rate = (mu - 1) / (2 - mu).  Both are one exponential convolution,
exp_convolution, returned at every mesh breakpoint.
"""

from __future__ import annotations

import numpy as np

from .quadrature import Mesh

__all__ = ["rate_of", "exp_convolution", "cf_left", "cf_right"]


def rate_of(mu) -> float:
    """The kernel decay rate (mu - 1) / (2 - mu) > 0 for mu in (1, 2).

    The one check of an order: a mu outside the working range (1, 2) is a
    ValueError.
    """
    mu = float(mu)
    if not 1.0 < mu < 2.0:
        raise ValueError(f"order must lie in (1, 2), got {mu}")
    return (mu - 1.0) / (2.0 - mu)


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
