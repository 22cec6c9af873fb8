import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from cfbvp.green import lower_branch, rate_of, upper_branch
from cfbvp.hypotheses import ProblemSpec

ROOT = Path(__file__).resolve().parents[1]

# the worked singular family of problems/worked_family.prob
WORKED = dict(
    mu=1.5,
    R=100.0,
    f="abs(t)*(1-t^2)^(-0.25)*x^(-0.25)",
    q="s*(1-s^2)^(-0.25)",
    u="x^(-0.25)",
    v="x^(0.25)",
    psi="s*(1-s^2)^(-0.25)*R^(-0.25)",
)


@pytest.fixture(scope="session")
def make_spec():
    """The worked family's ProblemSpec, with any field or the numerics replaced."""
    def make(numerics=None, **overrides):
        return ProblemSpec.from_strings(numerics=numerics, **(WORKED | overrides))
    return make


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


@pytest.fixture(scope="session")
def reference():
    """perfbench/reference.py, the benchmark's Nystrom oracle for the worked
    family: numpy only, sharing no code with cfbvp."""
    spec = importlib.util.spec_from_file_location("reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
