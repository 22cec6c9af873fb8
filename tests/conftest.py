import numpy as np
import pytest
import scipy.integrate

from cfbvp.cf_derivative import rate_of
from cfbvp.green import lower_branch, upper_branch


def _quad_green(mu, yfn, ts, knots=()):
    """x(t) = int_0^1 G(t, tau) y(tau) dtau by adaptive quadrature.

    An oracle independent of green.GreenOperator: each branch of the kernel
    is integrated against y with scipy's quad, split at the diagonal
    tau = t and at ``knots`` (where y is not smooth, e.g. a spline's nodes).
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
