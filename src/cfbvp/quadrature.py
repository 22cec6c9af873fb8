"""The mesh on [0, 1] and composite Gauss-Legendre quadrature.

Every mesh covers the problem's right half [0, 1]; mesh_from_breakpoints
is the one check of that domain.  Integrands may have an integrable
singularity at t = 1, so build_mesh, the one mesh of check and solve,
ends its uniform cells by halving the last one until it is at most 2^-40
wide (the geometric refinement of the hp method); quadrature nodes stay
strictly interior to every cell.  Where the singularity's exponent beta
is known, the last cell takes the rule of the weight (1 - t)^(-beta) on
the same nodes (endpoint.singular_weights).
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


# the Gauss-Legendre nodes and weights on [-1, 1]: numpy.polynomial's
# leggauss(GAUSS_NODES), written out, so that importing this module imports
# no numpy.polynomial and runs no eigensolver
GAUSS_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                    0.7966664774136267, 0.9602898564975362])
GAUSS_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                    0.22238103445337443, 0.10122853629037706])
GAUSS_X.setflags(write=False)
GAUSS_W.setflags(write=False)


def legendre_table(x, degree: int) -> np.ndarray:
    """P[..., n] = P_n(x) for n <= degree, by the three-term recurrence of
    numpy.polynomial.legendre.legvander, so bit for bit its table."""
    x = np.asarray(x, dtype=float)
    P = [np.ones_like(x), x]
    for n in range(2, degree + 1):
        P.append((P[n - 1] * x * (2 * n - 1) - P[n - 2] * (n - 1)) / n)
    return np.stack(P[:degree + 1], axis=-1)


def _integration_matrix() -> np.ndarray:
    """S[p, q] = int_{-1}^{x_p} l_q(s) ds for the Lagrange basis l_q on the Gauss nodes x.

    S @ v integrates the interpolant of the values v from -1 to each node,
    exactly for polynomials of degree < GAUSS_NODES.  The Gauss rule inverts
    the Legendre Vandermonde matrix exactly, l_q = w_q sum_n (n + 1/2)
    P_n(x_q) P_n, and int_{-1}^x P_n = (P_{n+1} - P_{n-1}) / (2n + 1) for n >= 1.
    """
    x, w, k = GAUSS_X, GAUSS_W, GAUSS_NODES
    P = legendre_table(x, k)  # P[p, n] = P_n(x_p), n <= k
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


# check and solve each build one mesh, which depends on the cell count alone
@lru_cache(maxsize=8)
def build_mesh(cells: int) -> Mesh:
    """The mesh of ``cells`` uniform cells whose last one is halved until it
    is at most 2^-40 wide: breakpoints k/cells for k < cells, then
    1 - 2^-j/cells for j = 1, 2, ..., then 1.  The last cell is then wider
    than 2^-41, far above the ulps near t = 1.  Equal arguments return the
    same Mesh.
    """
    if cells < 1:
        raise MeshError("cell count must be positive")
    halvings = 41 - int(cells).bit_length()  # the least j with 2^-j/cells <= 2^-40
    tail = 1.0 - 0.5 ** np.arange(1, halvings + 1) / cells
    return mesh_from_breakpoints([*(np.arange(cells) / cells), *tail, 1.0])


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
