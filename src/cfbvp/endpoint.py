"""The singularity at t = 1: the expressions' power laws there, and the
quadrature rule of the last cell that integrates them.

``leading_power`` reads an expression's leading power law at the endpoint
of its variable (s -> 1, x -> 0) from its tree, where the grammar shows
it; ``endpoint_exponents`` reads those of a problem's q, psi and u, which
decide whether A2's improper integrals are finite, and where one is
unread, that their finiteness is not shown.  ``singular_weights``
and ``singular_integration_matrix`` are the last cell's rule for an
integrand (1 - t)^(-beta) g with g smooth, which ``quadrature.integrate``
and ``green.GreenOperator`` take for a given beta.

This module is imported where it is used, not at package import: a
command's start-up need not compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expr
from .quadrature import GAUSS_NODES, GAUSS_W, GAUSS_X, Mesh, legendre_table

__all__ = ["leading_power", "EndpointExponents", "endpoint_exponents", "singular_weights",
           "singular_integration_matrix"]


# the walk variable as a polynomial in d, the distance to its endpoint, and
# the end of d's range: s = 1 - d on [0, 1), x = d on (0, inf)
_ENDPOINTS = {"s": ((1.0, -1.0), 1.0), "x": ((0.0, 1.0), math.inf)}
# a leading coefficient within this of the sizes of the terms it sums is a
# cancellation to rounding, which leaves the leading power unknown
_CANCELLED = 1e-12
_MAX_POLY_POWER = 16


def leading_power(e: Expr, var: str, fixed: dict | None = None,
                  zero=None) -> tuple[float, float] | None:
    """(kappa, alpha) with e ~ kappa d^alpha as d -> 0+, or None where unread.

    d = 1 - s for var "s" (the domain s in [0, 1)) and d = x for var "x"
    (the domain x > 0); ``fixed`` binds the other variables to numbers.  A
    reading also shows e finite on the whole domain: every divisor and
    every base of a negative or non-integer power is shown positive there.
    What shows a value positive: a positive constant; a polynomial in the
    variable whose Bernstein coefficients on d in [0, 1] are >= 0 with the
    one at s = 0 positive (for s), or whose coefficients in x are >= 0 (for
    x); exp and cosh; and sums, products, quotients and powers of positive
    values.  Polynomials are expanded exactly, so 1 - s^2 reads as
    2d - d^2; a sum keeps its lowest power, and a leading coefficient that
    cancels to rounding is unread.  exp, cosh and sinh read only a bounded
    argument; min, max and every other variable are unread.  Zero reads as ``zero``.
    """
    poly, upper = _ENDPOINTS[var]
    poly = [poly, tuple(map(abs, poly))]
    try:
        lead = _lead(_walk(e, var, poly, upper, fixed or {}), upper)
    except (_Unread, OverflowError, ZeroDivisionError):
        return None
    if lead is None:
        return zero
    if not (math.isfinite(lead[0]) and math.isfinite(lead[1])):
        return None
    return lead[0], lead[1] + 0.0  # no -0.0 exponent


class _Unread(Exception):
    pass


# The walk's readings: a float is a constant; a list [c, mag] a polynomial
# in d of degree >= 1, with its coefficients c and the same sums of the
# terms' absolute values mag; a tuple (kappa, alpha, positive) a leading
# term kappa d^alpha, positive on the domain if ``positive``


def _poly_add(a, b) -> list:
    (ca, ma), (cb, mb) = a, b
    n = len(ca) - len(cb)
    if n > 0:
        cb, mb = cb + (0.0,) * n, mb + (0.0,) * n
    elif n < 0:
        ca, ma = ca + (0.0,) * -n, ma + (0.0,) * -n
    c = tuple([x + y for x, y in zip(ca, cb)])
    return [c, tuple([x + y for x, y in zip(ma, mb)])] if any(c[1:]) else c[0]


def _conv(x, y) -> tuple:
    out = [0.0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return tuple(out)


def _as_poly(node) -> list:
    return [(node,), (abs(node),)] if type(node) is float else node


def _poly_mul(a, b):
    if type(a) is float or type(b) is float:
        k, p = (a, b) if type(a) is float else (b, a)
        if k == 0.0:
            return 0.0
        return [tuple([k * x for x in p[0]]), tuple([abs(k) * x for x in p[1]])]
    return [_conv(a[0], b[0]), _conv(a[1], b[1])]


@lru_cache(maxsize=256)
def _poly_positive(c: tuple, upper: float) -> bool:
    if upper == math.inf:  # d = x > 0
        return min(c) >= 0.0 and max(c) > 0.0
    # d in (0, 1]: positive if its Bernstein coefficients on [0, 1] are
    # >= 0 and the last one, the value at d = 1, is positive
    n = len(c) - 1
    b = [sum(math.comb(k, j) / math.comb(n, j) * c[j] for j in range(k + 1))
         for k in range(n + 1)]
    return min(b) >= 0.0 and b[-1] > 0.0


def _lead(node, upper: float):
    """A reading's leading term; None for zero.  A polynomial whose leading
    coefficient cancels to rounding is unread."""
    if type(node) is float:
        return (node, 0.0, node > 0.0) if node else None
    if type(node) is tuple:
        return node
    c, mag = node
    for j, cj in enumerate(c):
        if cj != 0.0:
            if abs(cj) <= _CANCELLED * mag[j]:
                raise _Unread
            return cj, float(j), _poly_positive(c, upper)
    return None


def _term(node, upper: float):
    lead = _lead(node, upper)
    if lead is None:
        raise _Unread
    return lead


def _power(base, c: float, upper: float):
    if type(base) is float:
        if not (base > 0.0 or c.is_integer()):
            raise _Unread
        return base ** c
    if type(base) is list and c.is_integer() and 0.0 <= c <= _MAX_POLY_POWER:
        out = 1.0
        for _ in range(int(c)):
            out = _poly_mul(out, base)
        return out
    kappa, alpha, positive = _term(base, upper)
    if not (positive or (c.is_integer() and c > 0.0)):
        raise _Unread
    return kappa ** c, alpha * c, positive


_LIMITS = {"exp": math.exp, "cosh": math.cosh, "sinh": math.sinh, "abs": abs}


def _walk(e: Expr, var: str, poly: list, upper: float, fixed: dict):
    kind = e.kind
    if kind == "const":
        return e.value
    if kind == "var":
        if e.value == var:
            return poly
        if e.value in fixed:
            return float(fixed[e.value])
        raise _Unread
    if kind == "call" and e.value in ("min", "max"):
        raise _Unread
    a = _walk(e.args[0], var, poly, upper, fixed)
    if kind == "neg":
        return (-a if type(a) is float else _poly_mul(-1.0, a) if type(a) is list
                else (-a[0], a[1], False))
    if kind == "call":
        if e.value == "sqrt":
            return _power(a, 0.5, upper)
        if type(a) is float:
            return float(_LIMITS[e.value](a))
        lead = _lead(a, upper)
        if lead is None:
            return float(_LIMITS[e.value](0.0))
        kappa, alpha, positive = lead
        if e.value == "abs":
            return abs(kappa), alpha, positive
        if alpha < 0.0:  # an unbounded argument
            raise _Unread
        limit = kappa if alpha == 0.0 else 0.0
        if e.value == "sinh":
            return (math.sinh(limit), 0.0, positive) if limit else lead
        return _LIMITS[e.value](limit), 0.0, True
    b = _walk(e.args[1], var, poly, upper, fixed)
    if kind == "pow":
        if type(b) is not float:
            raise _Unread
        return _power(a, b, upper)
    if type(b) is float and kind == "div":  # a nonzero constant divisor
        if b == 0.0:
            raise _Unread
        return (a / b if type(a) is float else _poly_mul(1.0 / b, a) if type(a) is list
                else (a[0] / b, a[1], a[2] and b > 0.0))
    if type(a) is float and type(b) is float:
        return a + b if kind == "add" else a - b if kind == "sub" else a * b
    if kind == "div":
        b = _term(b, upper)
        if not b[2]:
            raise _Unread
        a = _lead(a, upper)
        return 0.0 if a is None else (a[0] / b[0], a[1] - b[1], a[2])
    if kind == "sub":
        b = -b if type(b) is float else _poly_mul(-1.0, b) if type(b) is list \
            else (-b[0], b[1], False)
    if type(a) is not tuple and type(b) is not tuple:  # polynomials
        return _poly_mul(a, b) if kind == "mul" else _poly_add(_as_poly(a), _as_poly(b))
    a, b = _lead(a, upper), _lead(b, upper)
    if kind == "mul":
        return 0.0 if a is None or b is None else (a[0] * b[0], a[1] + b[1], a[2] and b[2])
    if a is None or b is None:  # a zero term
        return b if a is None else a
    positive = a[2] and b[2]
    if a[1] != b[1]:
        return (a[0], a[1], positive) if a[1] < b[1] else (b[0], b[1], positive)
    kappa = a[0] + b[0]
    if abs(kappa) <= _CANCELLED * (abs(a[0]) + abs(b[0])):
        raise _Unread
    return kappa, a[1], positive


@dataclass(frozen=True)
class EndpointExponents:
    """Leading exponents: q ~ (1 - s)^q and psi ~ (1 - s)^psi as s -> 1,
    u ~ x^u as x -> 0; None where unread, inf for an expression that is zero.

    Where psi is positive near s = 1, the barrier diverges for psi <= -1 and
    behaves like (1 - t)^min(1, 1 + psi) at t = 1 otherwise, so the integrand
    q u(sigma_R) behaves like (1 - t)^(-beta_qu).  A beta is None where an
    exponent it needs is unread or psi's is not the barrier's, and -inf for
    a zero integrand.
    """

    q: float | None
    psi: float | None
    u: float | None
    psi_positive: bool = True  # psi's leading coefficient at s = 1 is > 0

    @property
    def beta_q(self) -> float | None:
        return None if self.q is None else 0.0 - self.q  # 0.0 - 0.0 is not -0.0

    @property
    def beta_psi(self) -> float | None:
        usable = self.psi is not None and self.psi_positive and self.psi > -1.0
        return 0.0 - self.psi if usable else None

    @property
    def barrier_diverges(self) -> bool:
        return self.psi is not None and self.psi_positive and self.psi <= -1.0

    @property
    def beta_qu(self) -> float | None:
        if self.q == math.inf:  # a zero q makes a zero integrand
            return -math.inf
        if None in (self.q, self.beta_psi, self.u):
            return None
        return 0.0 - (self.q + self.u * min(1.0, 1.0 + self.psi))

    def unread(self, *names: str) -> str:
        """Those of the named expressions whose exponents are unread, in words."""
        at = [f"{n} at {'x = 0' if n == 'u' else 's = 1'}" for n in names
              if getattr(self, n) is None]
        verb = "exponent of {} is" if len(at) == 1 else "exponents of {} are"
        return f"the {verb.format(' and '.join(at))} unread"


def endpoint_exponents(spec) -> EndpointExponents:
    """The exponents read from the expressions (leading_power; zero reads
    inf), and whether psi's leading coefficient is positive."""
    zero = (0.0, math.inf)
    q, u = leading_power(spec.q, "s", zero=zero), leading_power(spec.u, "x", zero=zero)
    psi = leading_power(spec.psi, "s", {"R": spec.R})
    return EndpointExponents(*(None if r is None else r[1] for r in (q, psi, u)),
                             psi_positive=psi is None or psi[0] > 0.0)


# A[q, n] = w_q (n + 1/2) P_n(x_q): the Legendre coefficients of the Lagrange
# basis l_q on the Gauss nodes x
_LAGRANGE = (legendre_table(GAUSS_X, GAUSS_NODES - 1)
             * (np.arange(GAUSS_NODES) + 0.5) * GAUSS_W[:, None])


@lru_cache(maxsize=64)
def _singular_weights(beta: float) -> np.ndarray:
    """W_q = int_{-1}^{1} (1 - x)^(-beta) l_q(x) dx on the Gauss nodes.

    From the modified moments m_n = int_{-1}^{1} (1 - x)^g P_n (g = -beta),
    which QUADPACK's QAWS uses in their Chebyshev form (Piessens et al.,
    QUADPACK, 1983): m_0 = 2^(g+1) / (g+1), m_n = -m_{n-1} (g - n + 1) / (g + n + 1).
    """
    g = -beta
    n = np.arange(1.0, GAUSS_NODES)
    ratios = np.concatenate(([2.0 ** (g + 1.0) / (g + 1.0)], (n - g - 1.0) / (g + n + 1.0)))
    return _LAGRANGE @ np.cumprod(ratios)


def _last_cell(mesh: Mesh) -> tuple[float, np.ndarray]:
    # the last cell's half-width and each node's d = 1 - t over the cell's
    # width: d at the rounded node, not at the nominal one, since near t = 1
    # the two differ by a rounding of t, which can be a good part of d
    half = 0.5 * (1.0 - mesh.breakpoints[-2])
    return half, (1.0 - mesh.nodes[-1]) / (2.0 * half)


def singular_weights(mesh: Mesh, beta: float) -> np.ndarray:
    """The last cell's weights for integrands d^(-beta) g(t), d = 1 - t,
    beta < 1: ``weights @ v`` integrates the node values v over the cell,
    exactly when g = v d^beta is a polynomial of degree < GAUSS_NODES."""
    half, r = _last_cell(mesh)
    return _singular_weights(float(beta)) * (half * (2.0 * r) ** beta)


def singular_integration_matrix(mesh: Mesh, beta: float) -> np.ndarray:
    """The last cell's ``matrix``: ``matrix @ v`` integrates the node values
    v of d^(-beta) g from the cell's start to each node, as singular_weights
    over the cell.  The integral from node p to 1 is the cell's own rule on
    [node p, 1], scaled by r_p^(1 - beta) (r_p: its share of the cell)."""
    W = _singular_weights(float(beta))
    half, r = _last_cell(mesh)
    M = W - r[:, None] ** (1.0 - beta) * np.einsum("i,piq->pq", W, _tail_basis(tuple(r)))
    return M * (half * (2.0 * r) ** beta)


# keyed by the last cell's node positions r, which the few meshes in use share
@lru_cache(maxsize=8)
def _tail_basis(r: tuple) -> np.ndarray:
    """basis[p, i, q] = l_q(1 - r_p (1 - x_i)): the Lagrange basis at the
    Gauss nodes x of [node p, 1], for nodes at 1 - 2 r_p on [-1, 1]."""
    points = 1.0 - np.array(r)[:, None] * (1.0 - GAUSS_X)
    return legendre_table(points, GAUSS_NODES - 1) @ _LAGRANGE.T
