import numpy as np
import pytest
import scipy.integrate

from cfbvp.cf_derivative import rate_of
from cfbvp.green import lower_branch, upper_branch


def _quad_green(mu, yfn, ts, knots=()):
    """x(t) = int_0^1 G(t, tau) y(tau) dtau by adaptive quadrature.

    An oracle independent of green.GreenOperator: each branch of the kernel
    is integrated against y with scipy's quad, split at the diagonal
    tau = t and at ``knots`` (where y is not smooth, e.g. an interpolant's
    nodes).
    """
    lam = rate_of(mu)
    knots = np.asarray(knots, dtype=float)

    def part(branch, t, a, b):
        if a == b:
            return 0.0
        inner = knots[(knots > a) & (knots < b)]
        return scipy.integrate.quad(
            lambda s: branch(lam, t, s) * float(yfn(s)), a, b,
            epsabs=1e-15, epsrel=1e-13, limit=len(inner) + 200,
            points=inner if len(inner) else None)[0]

    return np.array([part(lower_branch, t, 0.0, t) + part(upper_branch, t, t, 1.0)
                     for t in np.asarray(ts, dtype=float)])


@pytest.fixture(scope="session")
def quad_green():
    return _quad_green


def _slope_at_zero(x0, xh, x2h, h):
    """(-3 x(0) + 4 x(h) - x(2h)) / 2h: x'(0+) to O(h^2)."""
    return (-3.0 * x0 + 4.0 * xh - x2h) / (2.0 * h)


@pytest.fixture(scope="session")
def slope_at_zero():
    return _slope_at_zero


class _FamilyNystrom:
    """The worked family f = |t| (1 - t^2)^-a x^-b, with q = s (1 - s^2)^-a,
    u = x^-b and psi = q R^-b, on a Nystrom discretization of its own:
    numpy only, sharing no code with cfbvp.

    On 0 <= t <= 1, cosh(lam) G(t, tau) = sinh(lam (1 - t)) e^{-lam tau}
    for tau <= t and cosh(lam t) e^{lam (1 - tau)} for tau > t.  x is kept
    at the Gauss nodes of a mesh graded toward t = 1, and the integral
    from a cell's start to each of its nodes is the spectral integration
    matrix of the Gauss rule (Nystrom).  Distances to t = 1 are kept exact.
    """

    def __init__(self, mu, R, a, b, cells=256, gamma=6.0, k=12):
        self.lam = (mu - 1.0) / (2.0 - mu)
        self.R, self.b = R, b
        leg = np.polynomial.legendre
        g, w = leg.leggauss(k)
        # int_{-1}^{g_i} of the Lagrange basis: Legendre antiderivatives times
        # the inverse Vandermonde matrix
        anti = np.stack([leg.legval(g, leg.legint(np.eye(k)[n], lbnd=-1))
                         for n in range(k)], 1)
        spectral = anti @ np.linalg.inv(leg.legvander(g, k - 1))
        edge = (1.0 - np.arange(cells + 1) / cells) ** gamma  # 1 - breakpoint
        h = (edge[:-1] - edge[1:])[:, None]
        self.dist = edge[:-1, None] - 0.5 * h * (g + 1.0)  # 1 - node
        self.tau = 1.0 - self.dist
        self.weight = 0.5 * h * w
        self.partial = 0.5 * h[:, :, None] * spectral
        self.q = self.tau * (self.dist * (2.0 - self.dist)) ** (-a)  # also f's t factor
        self.sigma, self.sigma0 = self.green(self.q * R ** (-b))

    def green(self, y):
        """(x at the nodes, x(0)) for x = int G y, y at the nodes."""
        lam, dist, tau, partial = self.lam, self.dist, self.tau, self.partial
        low = np.exp(-lam * tau) * y
        up = np.exp(lam * dist) * y
        low_cell, up_cell = (self.weight * low).sum(1), (self.weight * up).sum(1)
        before = np.concatenate([[0.0], np.cumsum(low_cell)[:-1]])[:, None]
        after = np.cumsum(up_cell[::-1])[::-1][:, None]
        x = (np.sinh(lam * dist) * (before + np.einsum("cij,cj->ci", partial, low))
             + np.cosh(lam * tau) * (after - np.einsum("cij,cj->ci", partial, up)))
        return x / np.cosh(lam), up_cell.sum() / np.cosh(lam)

    def I_qu(self):
        """int_0^1 q u(sigma_R), on the nodes."""
        return float(np.sum(self.weight * self.q * self.sigma ** (-self.b)))

    def x0(self, m):
        """x(0) of the fixed point of x = int G f(., clamp_m(x)), from sigma_R."""
        x, R = self.sigma, self.R
        for _ in range(500):
            z = np.minimum(np.maximum(x + 1.0 / m, 1.0 / m), R)
            new, x0 = self.green(self.q * z ** (-self.b))
            step, x = np.max(np.abs(new - x)), new
            if step < 1e-15:
                return x0
        raise RuntimeError("reference Picard iteration did not converge")


@pytest.fixture(scope="session")
def family_nystrom():
    return _FamilyNystrom
