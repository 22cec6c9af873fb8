"""Graded meshes on [0, 1] and composite Gauss-Legendre quadrature.

Every mesh covers the problem's right half [0, 1]; mesh_from_breakpoints
is the one check of that domain.  Integrands may have an integrable
singularity at t = 1; the mesh is then refined toward it (build_mesh grades
it polynomially, and A2's hypotheses.SIZE_MESH halves its last cells down
to 2^-40) and quadrature nodes stay strictly interior to every cell, which
is why build_mesh refuses a grading whose gaps fall to a few ulps.  Where the
singularity's exponent beta is known, the last cell takes the rule of the
weight (1 - t)^(-beta) on the same nodes (endpoint.singular_weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Mesh", "build_mesh", "mesh_from_breakpoints", "integrate",
           "GAUSS_INTEGRATION_MATRIX"]

# Gauss-Legendre nodes per mesh cell, for every mesh
GAUSS_NODES = 8


class MeshError(ValueError):
    pass


class NonFiniteIntegrandError(ValueError):
    def __init__(self, node: float):
        self.node = node
        super().__init__(f"integrand is not finite at quadrature node {node!r}")


# the Gauss-Legendre nodes and weights on [-1, 1]
GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_NODES)
GAUSS_X.setflags(write=False)
GAUSS_W.setflags(write=False)


def _integration_matrix() -> np.ndarray:
    """S[p, q] = int_{-1}^{x_p} l_q(s) ds for the Lagrange basis l_q on the Gauss nodes x.

    S @ v integrates the interpolant of the values v from -1 to each node,
    exactly for polynomials of degree < GAUSS_NODES.  The Gauss rule inverts
    the Legendre Vandermonde matrix exactly, l_q = w_q sum_n (n + 1/2)
    P_n(x_q) P_n, and int_{-1}^x P_n = (P_{n+1} - P_{n-1}) / (2n + 1) for n >= 1.
    """
    x, w, k = GAUSS_X, GAUSS_W, GAUSS_NODES
    P = np.polynomial.legendre.legvander(x, k)  # P[p, n] = P_n(x_p), n <= k
    anti = np.empty((k, k))  # (n + 1/2) int_{-1}^{x_p} P_n
    anti[:, 0] = 0.5 * (x + 1.0)
    anti[:, 1:] = 0.5 * (P[:, 2:] - P[:, :k - 1])
    S = anti @ (P[:, :k] * w[:, None]).T
    S.setflags(write=False)
    return S


GAUSS_INTEGRATION_MATRIX = _integration_matrix()


@dataclass(frozen=True)
class Mesh:
    """Partition of [0, 1] with per-cell Gauss-Legendre nodes.

    ``nodes`` and ``weights`` have shape (cells, GAUSS_NODES); cells are
    ordered left to right and nodes ascend within each cell.
    """

    breakpoints: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def cells(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def flat_nodes(self) -> np.ndarray:
        return self.nodes.reshape(-1)


def mesh_from_breakpoints(breakpoints) -> Mesh:
    """Mesh on the given breakpoints, which must run from 0 to 1 (MeshError otherwise)."""
    bps = np.asarray(breakpoints, dtype=float)
    if bps.ndim != 1 or len(bps) < 2:
        raise MeshError("need at least two breakpoints")
    if bps[0] != 0.0 or bps[-1] != 1.0:
        raise MeshError(f"mesh must cover [0, 1], got [{bps[0]}, {bps[-1]}]")
    if not np.all(np.diff(bps) > 0):
        raise MeshError("breakpoints must strictly increase")
    left = bps[:-1][:, None]
    right = bps[1:][:, None]
    half = 0.5 * (right - left)
    nodes = left + half * (GAUSS_X[None, :] + 1.0)
    weights = half * GAUSS_W[None, :]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    bps.setflags(write=False)
    return Mesh(breakpoints=bps, nodes=nodes, weights=weights)


# check and solve each build one mesh, which depends on these two numbers alone
@lru_cache(maxsize=8)
def build_mesh(cells: int, gamma: float = 1.0) -> Mesh:
    """Mesh on [0, 1], uniform for gamma = 1, else graded with exponent gamma toward 1.

    The graded breakpoints are ``1 - (1 - j/N)**gamma``.  A gap of a few
    ulps, onto whose ends quadrature nodes round, is a MeshError that counts
    the cells before the first one.  Equal arguments return the same Mesh.
    """
    if cells < 1:
        raise MeshError("cell count must be positive")
    if not 1.0 <= gamma < np.inf:
        raise MeshError(f"grading exponent must be finite and >= 1, got {gamma}")
    j = np.arange(cells + 1, dtype=float)
    bps = j / cells if gamma == 1.0 else 1.0 - (1.0 - j / cells) ** float(gamma)
    narrow = np.flatnonzero(np.diff(bps) <= 16.0 * np.finfo(float).eps)
    if narrow.size:
        raise MeshError(f"a grading of {gamma:g} merges the {cells} mesh cells into {narrow[0]}")
    return mesh_from_breakpoints(bps)


def integrate(values, mesh: Mesh, beta: float | None = None) -> float:
    """Composite Gauss-Legendre integral of the values at ``mesh.flat_nodes``.

    A scalar is a constant integrand.  A nonzero ``beta`` is the integrand's
    exponent at t = 1, where it behaves like (1 - t)^(-beta): the last cell
    then takes endpoint.singular_weights.  Cell sums are accumulated
    strictly left to right so results are bit-reproducible.
    """
    x = mesh.flat_nodes
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:  # filled, not broadcast: einsum sums a stride-0 view differently
        v = np.full(x.shape, v)
    if not np.all(np.isfinite(v)):
        bad = int(np.argmax(~np.isfinite(v)))
        raise NonFiniteIntegrandError(float(x[bad]))
    v = v.reshape(mesh.nodes.shape)
    cell_sums = np.einsum("ij,ij->i", mesh.weights, v)
    if beta:
        from .endpoint import singular_weights  # imported where used
        cell_sums[-1] = singular_weights(mesh, beta) @ v[-1]
    return _sum_left_to_right(cell_sums)


def _sum_left_to_right(values) -> float:
    """((0.0 + v[0]) + v[1]) + ...: np.cumsum adds in order (np.sum adds
    pairwise), and the leading 0.0 + gives the loop's sign of zero."""
    return 0.0 + float(np.cumsum(values)[-1])
