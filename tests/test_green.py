import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbvp.green import (GreenOperator, green_diagonal_jump, green_eval, kernel_bound,
                         lower_branch, rate_of, upper_branch)
from cfbvp.hypotheses import SIZE_MESH
from cfbvp.quadrature import GAUSS_NODES, build_mesh, integrate
from linear_oracles import LocalQuartic

MESH = build_mesh(128, 3.0)


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


@pytest.mark.parametrize("mu,t", [(1.5, 0.4), (1.2, -0.6), (1.9, 0.0), (1.9987, 0.5),
                                  (2.0 - 1e-12, -0.25)])
def test_diagonal_jump_is_unit(mu, t):
    assert abs(green_diagonal_jump(mu, t) - 1.0) <= 1e-12


@pytest.mark.parametrize("mu", [1.05, 1.5, 1.93, 1.9985])
@pytest.mark.parametrize("side", ["lower", "upper"])
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


@pytest.mark.parametrize("mu", [1.05, 1.5, 1.93, 1.9985, 1.9987])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_outer_grid_eval_is_each_branch_on_the_whole_square(mu, side):
    # the bits are those of each branch evaluated on the whole square and
    # kept on its own side of the diagonal
    lam = rate_of(mu)
    g = np.linspace(0.0, 1.0, 201)
    t, tau = np.meshgrid(g, g, indexing="ij")
    want = np.where((tau < t) | ((tau == t) & (side == "lower")),
                    lower_branch(lam, t, tau), upper_branch(lam, t, tau))
    for sign in (1.0, -1.0):
        got = green_eval(mu, sign * g[:, None], sign * g[None, :], side=side)
        assert got.tobytes() == want.tobytes()


# orders on both sides of lam = 709, where cosh(lam) overflows
TABLE_ORDERS = np.array([1.05, 1.5, 1.93, 1.9985, 1.9986, 1.9987])
G15 = np.linspace(0.0, 1.0, 15)


@pytest.mark.parametrize("t,tau", [(G15[:, None], G15[None, :]), (-G15[:, None], -G15[None, :]),
                                   (G15, G15[::-1]), (1.0, G15), (0.0, 0.0), (0.5, 0.25),
                                   (0.25, 0.5), (-0.5, -0.5)])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_orders_axis_is_each_order_alone(t, tau, side):
    # the order axes lead, and row k has the bits of a call with order k alone
    for mus in (TABLE_ORDERS, TABLE_ORDERS.reshape(2, 3), TABLE_ORDERS.tolist()):
        got = green_eval(mus, t, tau, side=side)
        assert got.shape == np.shape(mus) + np.broadcast_shapes(np.shape(t), np.shape(tau))
        for k in np.ndindex(np.shape(mus)):
            alone = green_eval(float(np.asarray(mus)[k]), t, tau, side=side)
            assert got[k].tobytes() == alone.tobytes()
    assert np.isfinite(got).all()
    jumps = green_diagonal_jump(TABLE_ORDERS, t)
    assert jumps.shape == TABLE_ORDERS.shape + np.shape(t)
    for jump, mu in zip(jumps, TABLE_ORDERS):
        assert jump.tobytes() == green_diagonal_jump(float(mu), t).tobytes()


def test_rate_of_names_the_first_bad_order():
    with pytest.raises(ValueError, match=r"^order must lie in \(1, 2\), got 2\.5$"):
        rate_of([1.5, 2.5, 0.5])
    with pytest.raises(ValueError, match=r"^order must lie in \(1, 2\), got nan$"):
        rate_of(np.array([1.5, np.nan]))
    with pytest.raises(ValueError, match=r"got 2\.5$"):
        green_eval([1.5, 2.5], 0.5, 0.5)
    assert type(rate_of(1.5)) is float and rate_of(1.5) == 1.0
    assert type(rate_of(np.float64(1.2))) is float
    assert rate_of([1.2, 1.5, 1.9]).tolist() == [rate_of(1.2), rate_of(1.5), rate_of(1.9)]


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
    g = np.linspace(0.0, 1.0, 101)[1:-1]
    for mu in (1.2, 1.5, 1.8):
        assert np.all(green_eval(mu, g[:, None], g[None, :]) > 0.0), mu


# orders past lam = 709, where cosh(lam) and then e^lam overflow, up to
# lam = 1e12; mu = (1 + 2 lam) / (1 + lam) inverts lam = (mu - 1) / (2 - mu)
HIGH_ORDERS = [*((1.0 + 2.0 * lam) / (1.0 + lam)
                 for lam in (709.5, 710.0, 710.3, 711.0, 768.0, 1e6)), 2.0 - 1e-12]


@pytest.mark.parametrize("n,step", [(2, 1), (9, 1), (41, 1), (402, 20)])
def test_kernel_bound_is_the_grid_max(n, step):
    # on tau >= t both exponentials of the upper branch are at most 1, so
    # the corner t = tau = 0, which every grid holds, is the max to the bit;
    # finite and without a warning at every order.  Each order of the 600
    # on the small grids, each step-th on the 402-point one, whose tables
    # take about 4 exponentials per point
    mus = np.array([*np.linspace(1.0005, 1.9999, 600)[::step], 1.2, 1.5, 1.9, 1.975,
                    *HIGH_ORDERS])
    g = np.linspace(0.0, 1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = kernel_bound(mus)
        for mu, c in zip(mus.tolist(), bound.tolist()):
            assert kernel_bound(mu) == c
            assert np.max(green_eval(mu, g[:, None], g[None, :], side="upper")) == c, mu
            assert np.max(green_eval(mu, g[:, None], g[None, :], side="lower")) < c, mu
    assert np.all((1.0 < bound) & (bound <= 2.0))


def test_kernel_past_the_overflow_order():
    # cosh(lam) overflows from lam = 710.48, but G(0, 0.5) at mu = 1.9987
    # (lam = 768) is the normal double 2 e^{-lam / 2} / (1 + e^{-2 lam})
    lam = rate_of(1.9987)
    assert green_eval(1.9987, 0.0, 0.5) == 3.0327599975842248e-167 \
        == 2.0 * math.exp(-lam / 2.0) / (1.0 + math.exp(-2.0 * lam))


def test_lower_branch_matches_cosh_form():
    lam = rate_of(1.5)
    g = np.linspace(0.0, 1.0, 101)
    i, j = np.tril_indices(101)
    cosh_form = np.cosh(lam * g[i]) / np.cosh(lam) * np.exp(lam * (1.0 - g[j])) \
        - np.exp(lam * (g[i] - g[j]))
    assert np.max(np.abs(lower_branch(lam, g[i], g[j]) - cosh_form)) <= 1e-15


def test_upper_branch_matches_cosh_form():
    lam = rate_of(1.5)
    g = np.linspace(0.0, 1.0, 101)
    i, j = np.triu_indices(101)  # tau = g[j] >= t = g[i]
    cosh_form = np.cosh(lam * g[i]) / np.cosh(lam) * np.exp(lam * (1.0 - g[j]))
    assert np.max(np.abs(upper_branch(lam, g[i], g[j]) - cosh_form)) <= 1e-15


def test_branch_continuity_under_refinement():
    # within one branch region, the max adjacent-grid difference shrinks
    mu = 1.5
    lam = rate_of(mu)
    diffs = []
    for n in (51, 101, 201):
        g = np.linspace(0.0, 1.0, n)
        tt, ss = np.meshgrid(g, g, indexing="ij")
        vals = upper_branch(lam, tt, ss)
        diffs.append(max(np.max(np.abs(np.diff(vals, axis=0))),
                         np.max(np.abs(np.diff(vals, axis=1)))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_apply_green_zero():
    # the interpolant of zeros goes to exactly 0, on the 128- and the
    # 256-cell graded mesh
    for mesh in (MESH, build_mesh(256, 3.0)):
        y = LocalQuartic(mesh.breakpoints, np.zeros(len(mesh.breakpoints)))
        op = GreenOperator(1.5, mesh)
        assert np.all(op.apply(y(op.tau)) == 0.0)


def test_apply_green_boundary_conditions(slope_at_zero):
    y = LocalQuartic(MESH.breakpoints, MESH.breakpoints ** 2)
    op = GreenOperator(1.5, MESH)
    values = op.apply(y(op.tau))[:len(op.grid)]
    assert values[-1] == 0.0  # x(1) = 0 exactly
    # x is even, so flat at zero: x'(0+) = -y(0) = 0.  The one-sided
    # difference D differs from x'(0) by at most h^2 max |x'''| on [0, 2h]
    # (Taylor remainder); x''' = lam^2 x' - lam y' - y'' is -2 + O(h) there
    # (lam = 1, y = t^2, |x| < 2/3), so |D| <= h^2 (2 + 6h).  2h stays in
    # the first cell, where the quartic's own slope error (~1e-7) is far
    # below that
    h = 1e-2
    flat = h * h * (2.0 + 6.0 * h)
    at = np.array([0.0, h, 2.0 * h])
    assert abs(slope_at_zero(*LocalQuartic(MESH.breakpoints, values)(at), h)) <= flat
    # forcing 1 breaks y(0) = 0: slope -1 at 0+, which the same check rejects
    corner = op.apply(1.0)[:len(op.grid)]
    assert abs(slope_at_zero(*LocalQuartic(MESH.breakpoints, corner)(at), h)) > flat


def test_both_half_forms_agree_at_origin(quad_green):
    # for even y, int_0^1 e^{lam(1-s)} y = int_{-1}^0 e^{lam(1+s)} y, so the
    # value at t = 0 agrees between the two half-interval formulas; the
    # left one for y = s^2 in closed form,
    # [e^{lam(1+s)} (s^2/lam - 2s/lam^2 + 2/lam^3)]_{-1}^0
    mu = 1.5
    lam = rate_of(mu)
    y = lambda s: s * s
    s = MESH.flat_nodes
    right = integrate(np.exp(lam * (1.0 - s)) * y(s), MESH) / np.cosh(lam)
    left = (2.0 * np.exp(lam) / lam ** 3 - (1.0 / lam + 2.0 / lam ** 2 + 2.0 / lam ** 3)) \
        / np.cosh(lam)
    assert abs(right - left) <= 1e-12
    assert abs(quad_green(mu, y, [0.0])[0] - right) <= 1e-12
    x0 = GreenOperator(mu, MESH).apply(y(MESH.flat_nodes))[0]
    assert abs(x0 - right) <= 1e-12


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_operator_nodes_match_quad_oracle(mu, quad_green):
    # the Nystrom output: x at every Gauss node (the in-cell integral up to
    # the node takes the spectral integration matrix), on a smooth integrand
    op = GreenOperator(mu, MESH)
    y = lambda tau: np.asarray(tau) ** 2 * np.cos(tau)
    both = op.apply(y(op.tau))
    assert both.shape == op.points.shape == (len(MESH.breakpoints) + MESH.flat_nodes.size,)
    assert both[:len(op.grid)].tobytes() == \
        _apply_concatenate_form(op, y(op.tau), nodes=False).tobytes()
    direct = quad_green(mu, y, op.tau)
    got = both[len(op.grid):]
    assert np.max(np.abs(direct - got)) <= 1e-13 * max(1.0, np.max(np.abs(direct)))


# The exact oracle of the operator, written from the kernel, not from
# green.py: on 0 <= t <= 1, cosh(lam) G(t, tau) = sinh(lam (1 - t)) e^{-lam tau}
# for tau <= t and cosh(lam t) e^{lam (1 - tau)} for tau > t.
def _exact_exponential_image(lam, c, t):
    """int_0^1 G(t, tau) e^{c tau} dtau, both branches integrated in closed
    form (c != lam); expm1 keeps each difference of exponentials exact."""
    below = np.expm1((c - lam) * t) / (c - lam)  # int_0^t e^{(c - lam) tau}
    # int_t^1 e^{lam (1 - tau) + c tau}
    above = np.exp(c) * np.expm1((lam - c) * (1.0 - t)) / (lam - c)
    return (np.sinh(lam * (1.0 - t)) * below + np.cosh(lam * t) * above) / np.cosh(lam)


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("cells", [128, 512])
def test_operator_exact_oracle(mu, cells):
    # x* = 1 - t^2 meets x(1) = x'(0) = 0 and solves the linear problem with
    # y = F(tau) = lam (1 - tau^2 - e^{-lam tau}) + 2 tau; and e^{2 tau}
    # reaches both branches with a closed-form image; at every point
    lam = rate_of(mu)
    op = GreenOperator(mu, build_mesh(cells, 3.0))
    tau, t = op.tau, op.points
    F = lam * (1.0 - tau ** 2 - np.exp(-lam * tau)) + 2.0 * tau
    assert np.max(np.abs(op.apply(F) - (1.0 - t ** 2))) <= 2e-14
    want = _exact_exponential_image(lam, 2.0, t)
    assert np.max(np.abs(op.apply(np.exp(2.0 * tau)) - want)) <= 2e-14 * np.max(np.abs(want))


# Property tests of the Nystrom output of apply(y): the breakpoints
# and the Gauss nodes.  The node values integrate the interpolant of
# e^{-lam tau} y in each cell, which can dip below zero between nonnegative
# node values, so the sign property draws y as a nonnegative function, not
# as arbitrary nonnegative node values.  Its error grows like e^{lam h} in
# a cell of width h (y = 1 on one cell at mu = 1.9375 gives x = -104 at a
# node), so it is drawn on meshes of 32 and more cells up to mu = 1.95.
PROPERTY_MESH = build_mesh(4, 3.0)
ORDERS = st.floats(1.01, 1.99)
NODE_VALUES = st.lists(st.floats(-1e3, 1e3), min_size=PROPERTY_MESH.flat_nodes.size,
                       max_size=PROPERTY_MESH.flat_nodes.size).map(np.array)

# Linearity holds up to rounding, which the node output amplifies like
# e^{lam h} across a cell of width h (ROADMAP item 3).  The spectral step
# sums k rounded products (k nodes per cell), so a node's rounding is about
# k eps of the integrand's scale; across the first cell, the widest
# (h_0 = 0.578), it grows by up to e^{lam h_0}.  It stays within the 1e-12
# bound while k eps e^{lam h_0} <= 1e-12, that is, up to the rate below;
# mu = (1 + 2 lam) / (1 + lam) inverts lam = (mu - 1) / (2 - mu).
LINEAR_LAM_MAX = math.log(1e-12 / (PROPERTY_MESH.nodes.shape[1] * np.finfo(float).eps)) \
    / PROPERTY_MESH.breakpoints[1]
LINEAR_MU_MAX = (1.0 + 2.0 * LINEAR_LAM_MAX) / (1.0 + LINEAR_LAM_MAX)


def _assert_node_output_linear(mu, y1, y2, alpha, beta):
    op = GreenOperator(mu, PROPERTY_MESH)
    x1, x2 = op.apply(y1), op.apply(y2)
    both = op.apply(alpha * y1 + beta * y2)
    scale = np.max(np.abs(alpha * x1) + np.abs(beta * x2))
    assert np.max(np.abs(both - (alpha * x1 + beta * x2))) <= 1e-12 * max(1.0, scale)


@given(mu=st.floats(1.01, LINEAR_MU_MAX), y1=NODE_VALUES, y2=NODE_VALUES,
       alpha=st.floats(-10, 10), beta=st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_node_output_is_linear(mu, y1, y2, alpha, beta):
    _assert_node_output_linear(mu, y1, y2, alpha, beta)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the node output amplifies "
                   "rounding by e^{lam h}; lam h_0 = 15 here, past LINEAR_LAM_MAX")
def test_node_output_is_linear_past_the_rounding_limit():
    # the draw that failed the property when it drew mu up to 1.99: the
    # error is 2.16e-8 against the bound 1.96e-8
    y1 = np.zeros(PROPERTY_MESH.flat_nodes.size)
    y1[:3] = (-355.0, -218.0, 409.0)
    _assert_node_output_linear(1.962890625, y1, np.zeros_like(y1), 3.0, 0.0)


@given(mu=st.floats(1.01, 1.95), cells=st.sampled_from([32, 128]),
       coef=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
       rate=st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_node_output_keeps_sign(mu, cells, coef, rate):
    # y(tau) = e^{rate tau} sum_i coef_i tau^i >= 0 on [0, 1]
    op = GreenOperator(mu, build_mesh(cells, 3.0))
    y = np.exp(rate * op.tau) * np.polynomial.polynomial.polyval(op.tau, coef)
    assert np.all(op.apply(y) >= 0.0)


@given(mu=ORDERS, y=NODE_VALUES)
@settings(max_examples=100, deadline=None)
def test_node_output_vanishes_at_one(mu, y):
    op = GreenOperator(mu, PROPERTY_MESH)
    x = op.apply(y)
    assert op.points[len(op.grid) - 1] == 1.0
    assert x[len(op.grid) - 1] == 0.0


def _apply_concatenate_form(op, values, nodes):
    """GreenOperator.apply as it was written before it filled its buffers in
    place: the same floating-point operations, on fresh arrays.  Without
    ``nodes``, only the breakpoint arithmetic: x at ``grid``."""
    y = np.asarray(values, dtype=float)
    if y.shape != op.tau.shape:  # a constant, filled
        y = np.full(op.tau.shape, y)
    y = y.reshape(op._weights.shape)
    cells = np.einsum("ij,ij->i", op._weights, y)
    prefix = np.concatenate(([0.0], np.cumsum(cells)))
    suffix = np.concatenate((np.cumsum(cells[::-1])[::-1], [0.0]))
    x = op._below * prefix + op._above * suffix
    if not nodes:
        return x
    part = op._half * ((op._decay * y) @ op._spectral)
    inside = (op._below_nodes * (prefix[:-1, None] + part)
              + op._above_nodes * (suffix[:-1, None] - part))
    return np.concatenate((x, inside.reshape(-1)))


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("gamma, cells", [
    *((g, c) for g in (1.0, 3.0, 6.0) for c in (1, 4, 128, 512) if (g, c) != (6.0, 512)),
    pytest.param(None, 161, id="SIZE_MESH")])  # A2's mesh, which halves its last cells
def test_apply_is_the_concatenate_form_bit_for_bit(mu, gamma, cells):
    op = GreenOperator(mu, SIZE_MESH if gamma is None else build_mesh(cells, gamma))
    rng = np.random.default_rng(cells)
    noise = rng.uniform(-1.0, 1.0, op.tau.shape)
    integrands = (op.tau ** 2 * np.cos(3.0 * op.tau) + noise,  # full array
                  0.7)  # a constant, filled at the nodes
    for values in integrands:
        got = op.apply(values)
        assert got.shape == op.points.shape
        # x at grid is the leading part of x at points
        for nodes in (False, True):
            want = _apply_concatenate_form(op, values, nodes)
            part = got[:len(want)]
            assert np.array_equal(part, want) and part.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells", [32, 128, 512])
def test_apply_of_a_constant_is_the_filled_array(cells):
    # a scalar is filled at the nodes, as integrate fills it: einsum sums a
    # stride-0 view in another order than the array of its values
    op = GreenOperator(1.5, build_mesh(cells, 3.0))
    for c in (0.001, 0.7, 3.0):
        assert op.apply(c).tobytes() == op.apply(np.full(op.tau.shape, c)).tobytes()


def _power_barrier(mu, beta, t):
    """x(t) = int_0^1 G(t, tau) (1 - tau)^(-beta) dtau in closed form.

    With the kernel's semi-separable form (GreenOperator's docstring),
    x = a(t) (Q(0) - Q(t)) + b(t) Q(t), where Q(t) = int_t^1 e^{-lam tau}
    (1 - tau)^(-beta) dtau = e^{-lam} sum_n lam^n / n! d^(n+1-beta) / (n+1-beta)
    with d = 1 - t.
    """
    lam = rate_of(mu)
    D = 1.0 + math.exp(-2.0 * lam)

    def Q(s):
        return math.exp(-lam) * math.fsum(lam ** n / math.factorial(n) * (1.0 - s) ** (n + 1 - beta)
                                          / (n + 1 - beta) for n in range(80))

    return np.array([2.0 * math.exp(-lam) * math.sinh(lam * (1.0 - s)) / D * (Q(0.0) - Q(s))
                     + 2.0 * math.cosh(lam * s) / D * Q(s) for s in t])


@pytest.mark.parametrize("mu", [1.5, 1.9])
@pytest.mark.parametrize("mesh", [build_mesh(128, 3.0), SIZE_MESH], ids=["128-3.0", "SIZE_MESH"])
@pytest.mark.parametrize("beta", [0.4, 0.9, -0.25])
def test_last_cell_exponent_makes_the_barrier_exact_near_one(mu, mesh, beta):
    # x at the last cell's nodes, where the integrand (1 - tau)^(-beta) is
    # singular; A2's SIZE_MESH ends in a cell 2^-40 (9.1e-13) wide.  The
    # Gauss rule there is off by 1e-4 to 0.88 (relative), and a beta off by
    # 0.02 by 8e-6 to 0.23
    want = _power_barrier(mu, beta, mesh.nodes[-1])
    op = GreenOperator(mu, mesh, beta)
    got = op.apply((1.0 - op.tau) ** -beta)[-GAUSS_NODES:]
    assert np.max(np.abs(got - want) / want) <= 1e-11
