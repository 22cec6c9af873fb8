"""The endpoint module against closed forms: the power laws it reads from
expression trees, and the last cell's rule for (1 - t)^(-beta) g."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cfbvp.endpoint import leading_power, singular_integration_matrix, singular_weights
from cfbvp.expressions import Expr, evaluate, parse, unparse
from cfbvp.quadrature import GAUSS_INTEGRATION_MATRIX, GAUSS_NODES, mesh_from_breakpoints
from linear_oracles import graded_mesh


# leading_power's readings against closed forms: near s = 1, with d = 1 - s,
# 1 - s^k = k d + O(d^2), so s (1 - s^2)^(-a) ~ 2^(-a) d^(-a)
@pytest.mark.parametrize("text, var, want", [
    ("s*(1-s^2)^(-0.25)", "s", (2.0 ** -0.25, -0.25)),
    ("s*(1-s^2)^(-0.25)*R^(-0.25)", "s", (2.0 ** -0.25 * 100.0 ** -0.25, -0.25)),
    ("x^(-0.25)", "x", (1.0, -0.25)),
    ("x + 2*x^2", "x", (1.0, 1.0)),
    ("(1 - s^3)^(-0.5)/(2 - s)", "s", (3.0 ** -0.5, -0.5)),
    ("sqrt(1 - s)*exp(-s)", "s", (math.exp(-1.0), 0.5)),
    ("cosh(s)^(-0.5) + (1-s)^(-0.1)", "s", (1.0, -0.1)),
    ("sinh(1 - s^2)", "s", (2.0, 1.0)),
    ("3", "s", (3.0, 0.0)),
    # a negative constant is dominated, not a cancellation
    ("s*(1-s^2)^(-0.25) - 0.5", "s", (2.0 ** -0.25, -0.25)),
    # a zero term of a sum leaves the other term's law
    ("(1-s^2)^(-0.25) + 0", "s", (2.0 ** -0.25, -0.25)),
])
def test_leading_power_reads_the_endpoint_law(text, var, want):
    kappa, alpha = leading_power(parse(text), var, {"R": 100.0})
    assert math.isclose(kappa, want[0], rel_tol=1e-14) and alpha == want[1]


@pytest.mark.parametrize("text, var", [
    # a base or divisor not shown positive on the domain: each of these has
    # a zero or a sign change inside it, where its endpoint law says nothing
    ("abs(s - 0.5)^(-1.5)", "s"),
    ("s^(-1)", "s"),
    ("1/(s - 0.5)", "s"),
    ("sqrt(s - 0.5)", "s"),
    ("(0.999999999 - s)^0.5", "s"),
    ("sqrt(x - 1)", "x"),
    ("(99.9 - x)^(-0.25)", "x"),
    # a cancelling sum, an unbounded exp argument, min and max, zero, and a
    # variable that is not bound
    ("(1-s^2)^(-0.25) - (1-s^2)^(-0.25) + 1", "s"),
    ("exp((1-s)^(-1))", "s"),
    ("min(s, 2)", "s"),
    ("0*s", "s"),
    ("t*s", "s"),
    # an exponent that reads the variable, a leading coefficient that cancels
    # to rounding (1 - 0.9999999999999999 = 1.1e-16), and one that is not finite
    ("s^s*(1-s^2)^(-0.25)", "s"),
    ("s - 0.9999999999999999*s", "s"),
    ("1e300*1e300*(1-s)^(-0.5)", "s"),
])
def test_leading_power_leaves_unread(text, var):
    assert leading_power(parse(text), var) is None


def test_singular_rule_at_beta_zero_is_the_gauss_rule():
    # up to the rounded node positions, which the singular rule reads
    m = graded_mesh(16, 3.0)
    half = 0.5 * (1.0 - m.breakpoints[-2])
    assert np.allclose(singular_weights(m, 0.0), m.weights[-1], rtol=1e-14, atol=0.0)
    assert np.allclose(singular_integration_matrix(m, 0.0),
                       half * GAUSS_INTEGRATION_MATRIX, rtol=0.0, atol=1e-11 * half)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.9, -0.5])
@pytest.mark.parametrize("width", [0.5, 3e-14])
def test_singular_last_cell_integrates_powers_exactly(beta, width):
    # t^j d^(-beta) with d = 1 - t: by the binomial expansion of t^j =
    # (1 - d)^j its integral from 1 - d0 to 1 is F(d0) = sum_i C(j, i)
    # (-1)^i d0^(i + 1 - beta) / (i + 1 - beta), and from the cell's start to
    # a node at d_p it is F(width) - F(d_p).  At width 3e-14 (the tail cell
    # of a steep grading) the nodes are rounded by a good part of their own
    # d; the rule takes d at the rounded nodes
    m = mesh_from_breakpoints([0.0, 1.0 - width, 1.0])
    t = m.nodes[-1]
    d = 1.0 - t
    cell = 1.0 - m.breakpoints[-2]
    w, M = singular_weights(m, beta), singular_integration_matrix(m, beta)
    for j in range(GAUSS_NODES):
        terms = lambda x: [math.comb(j, i) * (-x) ** i * x ** (1.0 - beta) / (i + 1.0 - beta)
                           for i in range(j + 1)]
        F = lambda x: math.fsum(terms(x))
        scale = math.fsum(map(abs, terms(cell)))
        v = t ** j * d ** -beta
        assert abs(w @ v - F(cell)) <= 1e-13 * scale
        assert np.max(np.abs(M @ v - np.array([F(cell) - F(dp) for dp in d]))) <= 1e-13 * scale


def _node(kind, *args, value=None):
    return Expr(kind, value, args)


_s = _node("var", value="s")
_one = _node("const", value=1.0)
_endpoint_leaves = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(lambda v: _node("const", value=v)),
    st.just(_s),
    st.just(_node("sub", _one, _s)),
    st.just(_node("sub", _one, _node("pow", _s, _node("const", value=2.0)))),
)


def _endpoint_branch(children):
    exponent = st.sampled_from([-0.75, -0.5, -0.25, 0.5, 2.0, 3.0]).map(
        lambda v: _node("const", value=v))
    return st.one_of(
        st.builds(lambda k, a, b: _node(k, a, b),
                  st.sampled_from(["add", "sub", "mul", "div"]), children, children),
        st.builds(lambda a, c: _node("pow", a, c), children, exponent),
        st.builds(lambda f, a: _node("call", a, value=f),
                  st.sampled_from(["exp", "cosh", "sqrt", "abs"]), children),
    )


def _exact(e, s):
    """e at s in 120-digit decimal arithmetic: an oracle that shares no code
    with cfbvp, and does not lose a cancellation near s = 1 to rounding."""
    if e.kind == "const":
        return Decimal(e.value)
    if e.kind == "var":
        return s
    a = [_exact(arg, s) for arg in e.args]
    if e.kind == "add":
        return a[0] + a[1]
    if e.kind == "sub":
        return a[0] - a[1]
    if e.kind == "mul":
        return a[0] * a[1]
    if e.kind == "div":
        return a[0] / a[1]
    if e.kind == "pow":
        return a[0] ** a[1]
    if e.value == "cosh":
        return (a[0].exp() + (-a[0]).exp()) / 2
    return {"exp": Decimal.exp, "sqrt": Decimal.sqrt, "abs": abs}[e.value](a[0])


@settings(max_examples=300, deadline=None)
@given(st.recursive(_endpoint_leaves, _endpoint_branch, max_leaves=6))
def test_a_reading_is_finite_on_the_domain_and_the_endpoint_law(tree):
    # wherever leading_power reads kappa d^alpha, the expression evaluates
    # without a domain error to finite values on [0, 0.999], and at
    # d = 1e-40 (exactly) it is kappa d^alpha to within a factor of 2
    reading = leading_power(tree, "s")
    assume(reading is not None)
    kappa, alpha = reading
    s = np.linspace(0.0, 0.999, 1000)
    with np.errstate(over="ignore"):
        values = evaluate(tree, {"s": s}) * np.ones_like(s)
    assume(np.all(np.abs(values) < 1e100))  # a huge constant may overflow on the way
    assert np.all(np.isfinite(values))
    with localcontext() as ctx:
        ctx.prec = 120
        d = Decimal(10) ** -40
        ratio = _exact(tree, 1 - d) / (Decimal(kappa) * d ** Decimal(alpha))
    assert Decimal("0.5") < ratio < 2, (unparse(tree), reading, ratio)
