"""Graded meshes and composite Gauss-Legendre quadrature.

Integrands may have integrable singularities at interval endpoints; the
mesh is then graded polynomially toward those endpoints and quadrature
nodes stay strictly interior to every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Mesh", "build_mesh", "mesh_from_breakpoints", "integrate"]

VALID_SINGULAR_FLAGS = ("none", "left", "right", "both")


class MeshError(ValueError):
    pass


class NonFiniteIntegrandError(ValueError):
    def __init__(self, node: float):
        self.node = node
        super().__init__(f"integrand is not finite at quadrature node {node!r}")


@lru_cache(maxsize=None)
def _gauss_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _gauss_integration_matrix(k: int) -> np.ndarray:
    """S[p, q] = int_{-1}^{x_p} l_q(s) ds for the Lagrange basis l_q on the Gauss nodes x.

    S @ v integrates the interpolant of the values v from -1 to each node,
    exactly for polynomials of degree < k.  The Gauss rule inverts the
    Legendre Vandermonde matrix exactly, l_q = w_q sum_n (n + 1/2) P_n(x_q)
    P_n, and int_{-1}^x P_n = (P_{n+1} - P_{n-1}) / (2n + 1) for n >= 1.
    """
    x, w = _gauss_rule(k)
    P = np.polynomial.legendre.legvander(x, k)  # P[p, n] = P_n(x_p), n <= k
    anti = np.empty((k, k))  # (n + 1/2) int_{-1}^{x_p} P_n
    anti[:, 0] = 0.5 * (x + 1.0)
    anti[:, 1:] = 0.5 * (P[:, 2:] - P[:, :k - 1])
    S = anti @ (P[:, :k] * w[:, None]).T
    S.setflags(write=False)
    return S


@dataclass(frozen=True)
class Mesh:
    """Partition of [a, b] with per-cell Gauss-Legendre nodes.

    ``nodes`` and ``weights`` have shape (cells, nodes_per_cell); cells are
    ordered left to right and nodes ascend within each cell.
    """

    a: float
    b: float
    breakpoints: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    nodes_per_cell: int

    @property
    def cells(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def flat_nodes(self) -> np.ndarray:
        return self.nodes.reshape(-1)

    def partial_integrals(self, values) -> np.ndarray:
        """Integrals from each cell's start to each of its nodes, for values at
        the nodes (shape (cells, k); Gauss spectral integration)."""
        half = 0.5 * np.diff(self.breakpoints)
        return half[:, None] * (values @ _gauss_integration_matrix(self.nodes_per_cell).T)

    def rescaled(self, a: float, b: float) -> "Mesh":
        """Affine image of this mesh on [a, b] (same relative grading)."""
        if not b > a:
            raise MeshError(f"invalid interval [{a}, {b}]: need a < b")
        scale = (b - a) / (self.b - self.a)
        bps = a + (self.breakpoints - self.a) * scale
        return mesh_from_breakpoints(bps, self.nodes_per_cell)


def _graded_breakpoints(a: float, b: float, cells: int, gamma: float,
                        singular_at: str) -> np.ndarray:
    j = np.arange(cells + 1, dtype=float)
    if singular_at == "none" or gamma == 1.0:
        bps = a + (b - a) * j / cells
    elif singular_at == "right":
        bps = b - (b - a) * (1.0 - j / cells) ** gamma
    elif singular_at == "left":
        bps = a + (b - a) * (j / cells) ** gamma
    elif singular_at == "both":
        # grade half the cells toward each endpoint, meeting at the midpoint
        left_cells = cells // 2
        right_cells = cells - left_cells
        mid = 0.5 * (a + b)
        left = _graded_breakpoints(a, mid, max(left_cells, 1), gamma, "left")
        right = _graded_breakpoints(mid, b, max(right_cells, 1), gamma, "right")
        bps = np.concatenate([left[:-1], right]) if left_cells >= 1 else right
    else:
        raise MeshError(f"unknown singular_at flag {singular_at!r}")
    bps[0] = a
    bps[-1] = b
    return bps


def mesh_from_breakpoints(breakpoints, nodes_per_cell: int = 8) -> Mesh:
    bps = np.asarray(breakpoints, dtype=float)
    if bps.ndim != 1 or len(bps) < 2:
        raise MeshError("need at least two breakpoints")
    if not np.all(np.diff(bps) > 0):
        raise MeshError("breakpoints must strictly increase")
    if nodes_per_cell < 2:
        raise MeshError("need at least 2 quadrature nodes per cell")
    x, w = _gauss_rule(nodes_per_cell)
    left = bps[:-1][:, None]
    right = bps[1:][:, None]
    half = 0.5 * (right - left)
    nodes = left + half * (x[None, :] + 1.0)
    weights = half * w[None, :]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    bps.setflags(write=False)
    return Mesh(a=float(bps[0]), b=float(bps[-1]), breakpoints=bps,
                nodes=nodes, weights=weights, nodes_per_cell=nodes_per_cell)


def build_mesh(a: float, b: float, cells: int, gamma: float = 1.0,
               singular_at: str = "none", nodes_per_cell: int = 8) -> Mesh:
    """Mesh on [a, b], graded with exponent gamma toward flagged endpoints.

    Toward the right endpoint the breakpoints are
    ``b - (b - a) * (1 - j/N)**gamma``; the left grading mirrors this.
    """
    if not b > a:
        raise MeshError(f"invalid interval [{a}, {b}]: need a < b")
    if cells < 1:
        raise MeshError("cell count must be positive")
    if not 1.0 <= gamma < np.inf:
        raise MeshError(f"grading exponent must be finite and >= 1, got {gamma}")
    if singular_at not in VALID_SINGULAR_FLAGS:
        raise MeshError(f"singular_at must be one of {VALID_SINGULAR_FLAGS}")
    bps = _graded_breakpoints(float(a), float(b), cells, float(gamma), singular_at)
    # steep gradings can push cell widths below double-precision spacing
    # near the singular endpoint; merge cells narrower than a few ulps so
    # quadrature nodes cannot round onto the singular endpoint itself
    tol = 16.0 * np.finfo(float).eps * max(1.0, abs(a), abs(b))
    kept = [bps[0]]
    for v in bps[1:]:
        if v - kept[-1] > tol:
            kept.append(v)
    if kept[-1] != bps[-1]:
        if bps[-1] - kept[-1] > tol:
            kept.append(bps[-1])
        else:
            kept[-1] = bps[-1]  # widening the last cell keeps gaps > tol
    bps = np.array(kept)
    return mesh_from_breakpoints(bps, nodes_per_cell)


def sample(fn, x: np.ndarray) -> np.ndarray:
    """Evaluate fn at the points x, accepting scalar-only callables."""
    try:
        v = np.asarray(fn(x), dtype=float)
        if v.shape == x.shape:
            return v
        if v.ndim == 0:  # constant-returning callable
            return np.full_like(x, float(v))
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(xi)) for xi in x])


def integrate(fn, mesh: Mesh) -> float:
    """Composite Gauss-Legendre integral of fn over the mesh.

    Cell sums are accumulated strictly left to right so results are
    bit-reproducible.
    """
    x = mesh.flat_nodes
    v = sample(fn, x)
    if not np.all(np.isfinite(v)):
        bad = int(np.argmax(~np.isfinite(v)))
        raise NonFiniteIntegrandError(float(x[bad]))
    cell_sums = np.einsum("ij,ij->i", mesh.weights, v.reshape(mesh.nodes.shape))
    return _sum_left_to_right(cell_sums)


def _sum_left_to_right(values) -> float:
    """((0.0 + v[0]) + v[1]) + ...: np.cumsum adds in order (np.sum adds
    pairwise), and the leading 0.0 + gives the loop's sign of zero."""
    return 0.0 + float(np.cumsum(values)[-1])
