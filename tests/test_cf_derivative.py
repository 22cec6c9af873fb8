import math
import warnings

import numpy as np
import pytest

from cfbvp.green import rate_of
from linear_oracles import cf_left, cf_right, exp_convolution, graded_mesh

MESH = graded_mesh(256)


def test_rate_values():
    assert rate_of(1.5) == 1.0
    assert abs(rate_of(4.0 / 3.0) - 0.5) <= 1e-15


@pytest.mark.parametrize("mu", [1.0, 2.0, 0.5, 2.5])
def test_order_range_enforced(mu):
    with pytest.raises(ValueError, match=r"order must lie in \(1, 2\)"):
        rate_of(mu)


def test_rate_strictly_increasing():
    mus = np.linspace(1.01, 1.99, 50)
    rates = [rate_of(m) for m in mus]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_affine_annihilated():
    assert np.max(np.abs(cf_left(lambda s: 0.0, 1.5, MESH))) <= 1e-12
    assert np.max(np.abs(cf_right(lambda s: 0.0, 1.7, MESH))) <= 1e-12


def _index(t: float) -> int:
    """The breakpoint of MESH at t in [0, 1]."""
    i = round(t * MESH.cells)
    assert MESH.breakpoints[i] == t
    return i


def _square_oracle(mu: float, t: float) -> float:
    # closed form for x(t) = t^2: antiderivative of the kernel gives
    # 2 (1 - e^{-rate |t|}) / (mu - 1)
    lam = rate_of(mu)
    return 2.0 * (1.0 - math.exp(-lam * abs(t))) / (mu - 1.0)


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
def test_square_oracle_left(mu, t):
    got = cf_left(lambda s: 2.0, mu, MESH)[_index(t)]
    want = _square_oracle(mu, t)
    assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("t", [-0.25, -0.5, -1.0])
def test_square_oracle_right(mu, t):
    got = cf_right(lambda s: 2.0, mu, MESH)[-1 - _index(-t)]
    want = _square_oracle(mu, t)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_reflection_identity():
    # cf_right reflects its input onto cf_left; checked on x(t) = t^3
    # (x'' = 6t, odd, so a missing reflection flips the sign) against
    # int_t^0 e^{-lam(s-t)} 6s ds = -6 (r/lam - (1 - e^{-lam r})/lam^2), r = -t
    t = -0.75
    r = -t
    for mu in (1.2, 1.5, 1.8):
        lam = rate_of(mu)
        want = -6.0 * (r / lam - (1.0 - math.exp(-lam * r)) / lam ** 2) / (2.0 - mu)
        got = cf_right(lambda s: 6.0 * s, mu, MESH)[-1 - _index(r)]
        assert abs(got - want) <= 1e-12 * abs(want)


def test_linearity():
    mu = 1.3
    f = lambda s: np.cos(2 * s)
    g = lambda s: s ** 2
    lhs = cf_left(lambda s: 2.5 * f(s) - 1.5 * g(s), mu, MESH)
    rhs = 2.5 * cf_left(f, mu, MESH) - 1.5 * cf_left(g, mu, MESH)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_square_oracle_past_the_overflow_order():
    # lam = 768 > 709, where e^{lam} overflows: the recurrence's factors
    # are all at most 1, so the derivative stays finite and accurate
    mu = 1.9987
    t = MESH.breakpoints[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cf_left(lambda s: 2.0, mu, MESH)[1:]
    want = 2.0 * (1.0 - np.exp(-rate_of(mu) * t)) / (mu - 1.0)
    assert np.max(np.abs(got - want) / want) <= 1e-10


def test_constant_is_filled():
    # a scalar g gives the same bits as the same constant filled at the nodes
    mesh = graded_mesh(128, 3.0)
    for rate in (1.0, -1.0):
        assert np.array_equal(exp_convolution(0.3, rate, mesh),
                              exp_convolution(np.full(mesh.flat_nodes.shape, 0.3), rate, mesh))
