"""Independent numerics for the benchmark's oracles.

Nothing here imports cfbvp: these routines decide what the program's
outputs should be, so they must not share code with the program under test.

For 0 <= t <= 1 the kernel of the linear problem factors as

    G(t, tau) = sinh(lam (1 - t)) e^{-lam tau} / cosh(lam)     (tau <= t)
    G(t, tau) = cosh(lam t) e^{lam (1 - tau)} / cosh(lam)      (tau >  t)

so x = int_0^1 G(t, .) y is two running integrals of y against fixed
exponentials.  On a mesh graded toward t = 1 with Gauss-Legendre nodes in
every cell, the partial integrals up to a node inside its own cell use the
spectral integration matrix of the Gauss rule, which gives x at every node
(a Nystrom discretization) in O(cells * k^2).

Run as a script to recompute the accuracy references X0_REF and print the
refinement table they were taken from.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# x(0) of the regularized worked family at its final clamp level m = 128,
# in the limit of mesh refinement.  Method: this module's Nystrom solve
# (gamma = 6, 12 Gauss nodes per cell, Picard to a 1e-15 step) at 256,
# 512, 1024 and 2048 cells gives 0.73690538179756, ...761, ...762, ...762
# and 0.04765431355248 at every size; gamma = 5 or 10 nodes per cell
# change the 1024- and 2048-cell values by at most 2e-14.  The seed solver
# (first order in the mesh) reads 0.7369784276, 0.7369422821 and
# 0.7369237224 at 128, 256 and 512 cells, consistent with this limit.
# `python3 perfbench/reference.py` reprints the table.
X0_REF = {
    "worked_family": 0.73690538179762,
    "worked_family_mu19": 0.04765431355248,
}
X0_REF_UNCERTAINTY = 1e-13  # absolute

# (mu, R, a, b) of the fixed members
FIXED_MEMBERS = {
    "worked_family": (1.5, 100.0, 0.25, 0.25),
    "worked_family_mu19": (1.9, 100.0, 0.25, 0.25),
}


def rate(mu: float) -> float:
    return (mu - 1.0) / (2.0 - mu)


def green(mu: float, t, tau):
    """Closed-form kernel; the diagonal tau == t takes the lower branch."""
    lam = rate(mu)
    t = np.abs(np.asarray(t, dtype=float))
    tau = np.abs(np.asarray(tau, dtype=float))
    lower = np.sinh(lam * (1.0 - t)) * np.exp(-lam * tau) / np.cosh(lam)
    upper = np.cosh(lam * t) * np.exp(lam * (1.0 - tau)) / np.cosh(lam)
    return np.where(tau <= t, lower, upper)


def green_sup(mu: float) -> float:
    """sup of G over the square, attained at t = tau = 0 (upper side)."""
    return 2.0 / (1.0 + math.exp(-2.0 * rate(mu)))


@lru_cache(maxsize=None)
def _gauss(k: int):
    x, w = np.polynomial.legendre.leggauss(k)
    leg = np.polynomial.legendre
    # S[i, j] = int_{-1}^{x_i} l_j(s) ds for the Lagrange basis l_j on x
    anti = np.column_stack([leg.legval(x, leg.legint(np.eye(k)[n], lbnd=-1))
                            for n in range(k)])
    return x, w, anti @ np.linalg.inv(leg.legvander(x, k - 1))


class Mesh:
    """Right-graded mesh on [0, 1]; distances to t = 1 are kept exactly."""

    def __init__(self, cells: int, gamma: float = 6.0, k: int = 12):
        x, w, spec = _gauss(k)
        d = (1.0 - np.arange(cells + 1) / cells) ** gamma  # 1 - breakpoint
        h = (d[:-1] - d[1:])[:, None]
        self.dist = d[:-1, None] - 0.5 * h * (x + 1.0)  # 1 - node, > 0
        self.tau = 1.0 - self.dist
        self.w = 0.5 * h * w
        self.partial = 0.5 * h[:, :, None] * spec  # cell start -> node

    def one_minus_tau_sq(self):
        return self.dist * (2.0 - self.dist)

    def integrate(self, values) -> float:
        return float(np.sum(self.w * values))

    def solve_linear(self, mu: float, y):
        """x = int G y at the nodes, and x(0); y holds values at the nodes."""
        lam = rate(mu)
        g1 = np.exp(-lam * self.tau) * y
        g2 = np.exp(lam * self.dist) * y
        cell1 = np.sum(self.w * g1, axis=1)
        cell2 = np.sum(self.w * g2, axis=1)
        part1 = np.einsum("cij,cj->ci", self.partial, g1)
        part2 = np.einsum("cij,cj->ci", self.partial, g2)
        before1 = np.concatenate([[0.0], np.cumsum(cell1)[:-1]])[:, None]
        after2 = (np.cumsum(cell2[::-1])[::-1] - cell2)[:, None]
        p = before1 + part1
        q = after2 + cell2[:, None] - part2
        x = (np.sinh(lam * self.dist) * p + np.cosh(lam * self.tau) * q) / np.cosh(lam)
        return x, float(np.sum(cell2)) / math.cosh(lam)


def family_barrier(mesh: Mesh, mu: float, R: float, a: float, b: float):
    """sigma_R at the nodes and at 0, for psi = s (1-s^2)^-a R^-b."""
    psi = mesh.tau * mesh.one_minus_tau_sq() ** (-a) * R ** (-b)
    return mesh.solve_linear(mu, psi)


def family_size_terms(mu: float, R: float, a: float, b: float,
                      cells: int = 256) -> dict:
    """The closed-form A2 quantities of the worked family at (mu, R, a, b).

    I_q and I_qu are finite (a < 1 and a + b (1 - a) < 1 must hold for the
    values to mean anything); ratio = R / (c (1 + R^{2b}) I_qu) with the
    kernel bound c = sup G.
    """
    mesh = Mesh(cells)
    sigma, sigma0 = family_barrier(mesh, mu, R, a, b)
    q = mesh.tau * mesh.one_minus_tau_sq() ** (-a)
    i_q = mesh.integrate(q)
    i_qu = mesh.integrate(q * sigma ** (-b))
    ratio = R / (green_sup(mu) * (1.0 + R ** (2.0 * b)) * i_qu)
    return {"sigma0": sigma0, "I_q": i_q, "I_qu": i_qu, "ratio": ratio}


def family_x0(mu: float, R: float, a: float, b: float, m: int,
              cells: int, gamma: float = 6.0, k: int = 12) -> float:
    """x(0) of the fixed point of x = G f(., clamp_m(x)) for the family."""
    mesh = Mesh(cells, gamma, k)
    shape = mesh.tau * mesh.one_minus_tau_sq() ** (-a)
    x, _ = family_barrier(mesh, mu, R, a, b)
    x0 = 0.0
    for _ in range(500):
        z = np.minimum(np.maximum(x + 1.0 / m, 1.0 / m), R)
        new, x0 = mesh.solve_linear(mu, shape * z ** (-b))
        step = float(np.max(np.abs(new - x)))
        x = new
        if step < 1e-15:
            return x0
    raise RuntimeError("reference Picard iteration did not converge")




def _main() -> None:
    for name, params in FIXED_MEMBERS.items():
        print(f"{name}: mu, R, a, b = {params}, m = 128")
        for gamma, k in ((6.0, 12), (5.0, 12), (6.0, 10)):
            row = [family_x0(*params, m=128, cells=c, gamma=gamma, k=k)
                   for c in (256, 512, 1024, 2048)]
            print(f"  gamma={gamma:g} k={k}: " + "  ".join(f"{v:.14f}" for v in row))
        print(f"  stored X0_REF = {X0_REF[name]!r}")


if __name__ == "__main__":
    _main()
