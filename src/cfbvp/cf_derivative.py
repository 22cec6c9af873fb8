"""Exponential-kernel fractional left/right derivatives of order mu in (1, 2).

The operators act on the second classical derivative of the target
function through a nonsingular kernel exp(-rate * |t - tau|) with
rate = (mu - 1) / (2 - mu).
"""

from __future__ import annotations

import numpy as np

from .quadrature import Mesh, integrate

__all__ = ["rate_of", "cf_left", "cf_right"]


def rate_of(mu) -> float:
    """The kernel decay rate (mu - 1) / (2 - mu) > 0 for mu in (1, 2).

    The one check of an order: a mu outside the working range (1, 2) is a
    ValueError.
    """
    mu = float(mu)
    if not 1.0 < mu < 2.0:
        raise ValueError(f"order must lie in (1, 2), got {mu}")
    return (mu - 1.0) / (2.0 - mu)


def cf_left(xpp, mu, t: float, mesh: Mesh) -> float:
    """Left derivative at t >= 0: (1/(2-mu)) * int_0^t exp(-rate*(t-s)) xpp(s) ds.

    xpp is the second classical derivative of the target function, a
    callable evaluated at the Gauss nodes of mesh rescaled onto [0, t].
    """
    rate = rate_of(mu)
    if t < 0:
        raise ValueError(f"left derivative needs t >= 0, got {t}")
    if t == 0:
        return 0.0
    m = mesh.rescaled(0.0, t)
    s = m.flat_nodes
    val = integrate(np.exp(-rate * (t - s)) * np.asarray(xpp(s), dtype=float), m)
    return val / (2.0 - mu)


def cf_right(xpp, mu, t: float, mesh: Mesh) -> float:
    """Right derivative at t <= 0: (1/(2-mu)) * int_t^0 exp(-rate*(s-t)) xpp(s) ds.

    The reflection s -> -s makes it the left derivative of s -> xpp(-s)
    at -t.
    """
    if t > 0:
        raise ValueError(f"right derivative needs t <= 0, got {t}")
    return cf_left(lambda s: xpp(-s), mu, -t, mesh)
