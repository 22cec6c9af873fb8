import math
import warnings

import numpy as np
import pytest

from cfbvp.cf_derivative import rate_of
from cfbvp.green import (GreenOperator, apply_green, green_diagonal_jump,
                         green_eval, green_sup, kernel_bound, lower_branch)
from cfbvp.gridfn import SymmetricGridFunction
from cfbvp.quadrature import build_mesh, integrate

MESH = build_mesh(0.0, 1.0, 128, 3.0, "right")


def test_boundary_zero():
    assert green_eval(1.5, 1.0, 0.5) == 0.0
    for tau in np.linspace(0.0, 1.0, 33):
        assert abs(green_eval(1.7, 1.0, float(tau))) <= 1e-14
        assert abs(green_eval(1.7, -1.0, float(-tau))) <= 1e-14


def test_origin_upper_side_oracle():
    lam = rate_of(1.5)
    want = math.exp(lam) / math.cosh(lam)  # equals 1 + tanh(lam)
    assert abs(green_eval(1.5, 0.0, 0.0, side="upper") - want) <= 1e-15
    assert abs(want - (1.0 + math.tanh(lam))) <= 1e-15


def test_symmetry_exact():
    assert green_eval(1.7, -0.3, -0.7) == green_eval(1.7, 0.3, 0.7)
    rng = np.random.default_rng(3)
    for t, tau in rng.uniform(0.0, 1.0, (50, 2)):
        assert green_eval(1.2, -t, -tau) == green_eval(1.2, t, tau)


def test_mixed_sign_rejected():
    with pytest.raises(ValueError):
        green_eval(1.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        green_eval(1.5, -0.5, 0.5)
    with pytest.raises(ValueError):
        green_eval(1.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        green_eval(1.5, 0.5, 0.5, side="middle")


def test_diagonal_default_is_lower_side():
    mu, t = 1.5, 0.4
    assert green_eval(mu, t, t) == green_eval(mu, t, t, side="lower")
    assert green_eval(mu, t, t, side="upper") \
        == green_eval(mu, t, t) + green_diagonal_jump(mu, t)


@pytest.mark.parametrize("mu,t", [(1.5, 0.4), (1.2, -0.6), (1.9, 0.0)])
def test_diagonal_jump_is_unit(mu, t):
    assert abs(green_diagonal_jump(mu, t) - 1.0) <= 1e-12


@pytest.mark.parametrize("mu", [1.05, 1.5, 1.93, 1.9985])
@pytest.mark.parametrize("side", ["auto", "lower", "upper"])
def test_array_eval_matches_pointwise(mu, side):
    # both same-sign squares, diagonal included, as one array and point by point
    g = np.linspace(-1.0, 1.0, 15)
    t, tau = np.meshgrid(g, g, indexing="ij")
    same = t * tau >= 0.0
    t, tau = t[same], tau[same]
    values = green_eval(mu, t, tau, side=side)
    assert values.shape == t.shape
    pointwise = [green_eval(mu, float(a), float(b), side=side) for a, b in zip(t, tau)]
    assert all(np.shape(v) == () for v in pointwise)
    assert values.tobytes() == np.array(pointwise).tobytes()
    jumps = green_diagonal_jump(mu, g)
    assert jumps.tobytes() == np.array([green_diagonal_jump(mu, float(a)) for a in g]).tobytes()


@pytest.mark.parametrize("bad", [(0.5, -0.5), (-0.25, 0.75), (1.5, 0.5), (0.0, -1.0 - 1e-15)])
def test_one_bad_point_rejects_the_array(bad):
    t = np.linspace(0.0, 1.0, 9)
    tau = t[::-1].copy()
    t[4], tau[4] = bad
    with pytest.raises(ValueError, match=r"\(t, tau\) = \(" + str(bad[0])):
        green_eval(1.5, t, tau)
    with pytest.raises(ValueError):
        green_eval(1.5, t[:, None], tau)  # the outer grid holds the bad pair too


def test_interior_positivity():
    for mu in (1.2, 1.5, 1.8):
        g = np.linspace(0.0, 1.0, 101)[1:-1]
        for t in g:
            for tau in g:
                assert green_eval(mu, float(t), float(tau)) > 0.0


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.8])
def test_sup_oracle(mu):
    lam = rate_of(mu)
    sup = green_sup(mu, 401)
    want = 2.0 / (1.0 + math.exp(-2.0 * lam))
    assert abs(sup - want) <= 1e-6
    assert sup >= math.tanh(lam)  # lower-side diagonal value at the origin
    assert sup < 2.0
    assert sup > 1.0  # exceeds the naive unit bound


def _cosh_form_sup(mu, n):
    # the textbook form of both branches on the whole grid, masked to each side
    lam = rate_of(mu)
    g = np.linspace(0.0, 1.0, n)
    tt, ss = np.meshgrid(g, g, indexing="ij")
    upper = np.cosh(lam * tt) / np.cosh(lam) * np.exp(lam * (1.0 - ss))
    lower = upper - np.exp(lam * (tt - ss))
    return float(max(np.max(np.where(ss <= tt, lower, -np.inf)),
                     np.max(np.where(ss >= tt, upper, -np.inf))))


def test_sup_at_high_orders():
    # the lower branch once subtracted two terms of size e^lam, which gave
    # 416 at mu = 1.975 and 2.4e202 at mu = 1.998; the closed form is 2 there
    for mu in (1.975, 1.98, 1.99, 1.998, 1.9985):
        assert green_sup(mu, 401) == 2.0
    # where that form loses nothing the audited sup is the same to the bit
    for mu in np.linspace(1.0, 1.97, 61)[1:]:
        assert green_sup(mu, 401) == _cosh_form_sup(mu, 401)


def test_sup_propagates_overflow():
    # lam = 768 > 709: cosh(lam) overflows, so the upper branch is nan;
    # the sup must say so instead of falling back to the lower branch's 1
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(green_sup(1.9987, 41))


@pytest.mark.parametrize("n", [2, 41, 401])
def test_kernel_bound_is_the_grid_sup(n):
    # the sup sits at the grid corner t = tau = 0, so the corner value is
    # the measured sup to the bit, whatever the grid
    for mu in [*np.linspace(1.0005, 1.9985, 600).tolist(), 1.2, 1.5, 1.9, 1.975]:
        assert kernel_bound(mu) == green_sup(mu, n), mu


@pytest.mark.parametrize("mu", [1.9986, 1.9987, 1.999])
def test_kernel_bound_overflow_is_nan_without_warning(mu):
    # lam > 709: cosh(lam) overflows; nan is the result, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(kernel_bound(mu))


def test_lower_branch_matches_cosh_form():
    lam = rate_of(1.5)
    g = np.linspace(0.0, 1.0, 101)
    i, j = np.tril_indices(101)
    cosh_form = np.cosh(lam * g[i]) / np.cosh(lam) * np.exp(lam * (1.0 - g[j])) \
        - np.exp(lam * (g[i] - g[j]))
    assert np.max(np.abs(lower_branch(lam, g[i], g[j]) - cosh_form)) <= 1e-15


def test_branch_continuity_under_refinement():
    # within one branch region, the max adjacent-grid difference shrinks
    mu = 1.5
    lam = rate_of(mu)
    diffs = []
    for n in (51, 101, 201):
        g = np.linspace(0.0, 1.0, n)
        tt, ss = np.meshgrid(g, g, indexing="ij")
        from cfbvp.green import upper_branch
        vals = upper_branch(lam, tt, ss)
        diffs.append(max(np.max(np.abs(np.diff(vals, axis=0))),
                         np.max(np.abs(np.diff(vals, axis=1)))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_apply_green_zero():
    y = SymmetricGridFunction(MESH.breakpoints, np.zeros(len(MESH.breakpoints)))
    x = apply_green(1.5, y, MESH)
    assert np.all(x.values == 0.0)


def test_apply_green_boundary_conditions():
    y = SymmetricGridFunction.from_callable(lambda s: s * s, MESH.breakpoints)
    x = apply_green(1.5, y, MESH)
    assert x.values[-1] == 0.0  # x(1) = 0 exactly
    h = 1e-4
    assert abs((x(h) - x(-h)) / (2 * h)) <= 1e-6  # centered difference at 0


def test_apply_green_requires_zero_at_origin():
    y = SymmetricGridFunction.from_callable(lambda s: 1.0 + s, MESH.breakpoints)
    with pytest.raises(ValueError):
        apply_green(1.5, y, MESH)


def test_both_half_forms_agree_at_origin(quad_green):
    # for even y, int_0^1 e^{lam(1-s)} y = int_{-1}^0 e^{lam(1+s)} y, so the
    # value at t = 0 agrees between the two half-interval formulas
    mu = 1.5
    lam = rate_of(mu)
    y = lambda s: s * s
    right = integrate(lambda s: np.exp(lam * (1.0 - s)) * y(s), MESH) / np.cosh(lam)
    left_mesh = build_mesh(-1.0, 0.0, 128, 3.0, "left")
    left = integrate(lambda s: np.exp(lam * (1.0 + s)) * y(s), left_mesh) / np.cosh(lam)
    assert abs(right - left) <= 1e-12
    assert abs(quad_green(mu, y, [0.0])[0] - right) <= 1e-12
    x0 = GreenOperator(mu, MESH).apply(y)[0]
    assert abs(x0 - right) <= 1e-12
