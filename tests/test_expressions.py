import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfbvp import expressions as ex


def test_parse_smallest_composite():
    tree = ex.parse("t + 1")
    assert tree == ex.Expr("add", args=(ex.Expr("var", "t"), ex.Expr("const", 1.0)))


def test_power_binds_before_multiplication():
    tree = ex.parse("abs(t) * (1 - t^2)^(-0.25) * x^(-0.25)")
    # top level is a product whose right factor is the power x^(-0.25)
    assert tree.kind == "mul"
    right = tree.args[1]
    assert right.kind == "pow"
    assert right.args[0] == ex.Expr("var", "x")


def test_unary_minus_binds_below_power():
    assert ex.parse("-t^2") == ex.Expr("neg", args=(ex.parse("t^2"),))


def test_syntax_error_position():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("2 * * x")
    assert err.value.position == 4


# 1e999 overflows to inf, which unparse could not render as a literal
@pytest.mark.parametrize("bad", ["", "   ", "2 +", "foo", "y + 1", "min(1)", "exp(1, 2)",
                                 "1e999"])
def test_rejected_inputs(bad):
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse(bad)


def test_eval_direct():
    assert ex.evaluate(ex.parse("t + 1"), {"t": 0.0}) == 1.0
    assert ex.evaluate(ex.parse("x^(-0.25)"), {"x": 16.0}) == 0.5
    assert ex.evaluate(ex.parse("min(t, x) + max(t, x)"), {"t": 2.0, "x": 5.0}) == 7.0
    assert ex.evaluate(ex.parse("2^-2"), {}) == 0.25


def test_eval_domain_errors():
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("x^(-0.25)"), {"x": 0.0})
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("x^0.5"), {"x": -1.0})
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("1/t"), {"t": 0.0})
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("sqrt(t)"), {"t": -2.0})


def test_eval_unbound_variable():
    with pytest.raises(ex.UnboundVariableError):
        ex.evaluate(ex.parse("t + x"), {"t": 1.0})


def test_eval_vectorized_matches_scalar():
    e = ex.parse("abs(t)*(1 - t^2)^(-0.25)")
    ts = np.linspace(-0.9, 0.9, 7)
    vec = ex.evaluate(e, {"t": ts})
    scal = np.array([ex.evaluate(e, {"t": float(t)}) for t in ts])
    assert np.array_equal(vec, scal)


_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
        lambda v: ex.Expr("const", v)),
    st.sampled_from(ex.ALLOWED_VARIABLES).map(lambda n: ex.Expr("var", n)),
)


def _branch(children):
    unary = st.builds(lambda a: ex.Expr("neg", args=(a,)), children)
    binary = st.builds(lambda k, a, b: ex.Expr(k, args=(a, b)),
                       st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                       children, children)
    call1 = st.builds(lambda f, a: ex.Expr("call", f, (a,)),
                      st.sampled_from(["exp", "abs", "cosh", "sinh", "sqrt"]), children)
    call2 = st.builds(lambda f, a, b: ex.Expr("call", f, (a, b)),
                      st.sampled_from(["min", "max"]), children, children)
    return st.one_of(unary, binary, call1, call2)


_trees = st.recursive(_leaves, _branch, max_leaves=12)


@given(_trees)
def test_unparse_parse_round_trip(tree):
    text = ex.unparse(tree)
    assert ex.parse(text) == tree
    assert ex.unparse(ex.parse(text)) == text  # idempotent normal form


@given(_trees)
def test_variables_subset_of_allowed(tree):
    assert tree.variables() <= set(ex.ALLOWED_VARIABLES)


def test_eval_deterministic():
    e = ex.parse("exp(t) + cosh(x) / (1 + s^2)")
    env = {"t": 0.3, "x": 0.7, "s": 0.2}
    assert ex.evaluate(e, env) == ex.evaluate(e, env)


# bind(e, fixed) evaluates the subexpressions that read only the fixed
# variables once; every evaluation through it must be evaluate's, bit for
# bit, NaN included, and raise evaluate's error, in evaluate's order.
T = np.array([-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 800.0])
X = np.array([0.5, 2.0, 1.0, 3.0, -0.75, 1e-3, 0.0, 4.0])


def _outcome(fn):
    with np.errstate(all="ignore"):
        try:
            return fn()
        except (ex.ExprDomainError, ex.UnboundVariableError) as err:
            return f"{type(err).__name__}: {err}"


def _assert_bound_is_evaluate(e, fixed, env):
    want = _outcome(lambda: ex.evaluate(e, {**fixed, **env}))
    got = _outcome(lambda: ex.bind(e, fixed)(env))
    if isinstance(want, str):
        assert got == want
    else:
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("text", [
    "-t", "t + x", "x - t", "t*x", "x/t", "t/x", "t^x", "x^t", "x^(-0.25)",
    "abs(t)*(1-t^2)^(-0.25)*x^(-0.25)", "exp(t) + exp(x)", "abs(t - x)",
    "cosh(t)*sinh(x)", "sinh(t)/cosh(x)", "sqrt(abs(t))*sqrt(abs(x))",
    "min(t, x)", "max(t, x)", "min(t, 1)*max(x, 0.5)", "exp(1000*t) - exp(1000*t) + x",
    "2^-2", "t*t", "x*x", "(t - t)/x"])
def test_bind_is_evaluate_bit_for_bit(text):
    e = ex.parse(text)
    for fixed, env in (({"t": T}, {"x": X}), ({"t": T[:, None]}, {"x": X}),
                       ({"t": 0.5}, {"x": X}), ({"x": X}, {"t": T}), ({}, {"t": T, "x": X})):
        _assert_bound_is_evaluate(e, fixed, env)


@given(_trees)
def test_bind_is_evaluate_on_any_tree(tree):
    _assert_bound_is_evaluate(tree, {"t": T, "s": T[::-1]}, {"x": X, "R": 2.0})


@pytest.mark.parametrize("text, failing", [("x^(-1)*sqrt(t-2)", "x^(-1.0)"),
                                           ("sqrt(t-2)*x^(-1)", "sqrt(t - 2.0)")])
def test_bind_keeps_the_error_order(text, failing):
    # both factors fail; the one evaluation reaches first names the error,
    # though binding met the t-only factor's error first
    e = ex.parse(text)
    with pytest.raises(ex.ExprDomainError) as want:
        ex.evaluate(e, {"t": T, "x": X})
    bound = ex.bind(e, {"t": T})
    with pytest.raises(ex.ExprDomainError) as got:
        bound({"x": X})
    assert str(got.value) == str(want.value)
    assert f"'{failing}'" in str(got.value)


def test_bind_raises_a_constant_error_on_evaluation():
    e = ex.parse("x + 1/0")
    for fixed in ({}, {"t": T}):
        bound = ex.bind(e, fixed)  # does not raise
        for _ in range(2):  # and raises on every evaluation
            with pytest.raises(ex.ExprDomainError, match="division by zero in subexpression '1.0/0.0'"):
                bound({"x": X})


# The domain checks of pow: a scalar exponent is settled in at most one
# pass over the base, and a zero base fails only where its exponent is
# negative; the verdicts, their order and their text are the same through
# evaluate and through bind, with the exponent or the base fixed.
ZEROS = np.array([0.0, 1.0, 4.0, 0.0])
ZERO_BASE = "ExprDomainError: zero base with negative exponent in subexpression"
NEGATIVE_BASE = "ExprDomainError: negative base with non-integer exponent in subexpression"


@pytest.mark.parametrize("text, env, want", [
    ("x^(-1)", {"x": ZEROS}, f"{ZERO_BASE} 'x^(-1.0)'"),
    ("x^(-1)", {"x": 0.0}, f"{ZERO_BASE} 'x^(-1.0)'"),
    ("x^2", {"x": ZEROS}, ZEROS ** 2),
    ("x^0", {"x": ZEROS}, np.ones(4)),
    ("x^0", {"x": 0.0}, 1.0),
    ("(-x)^0.5", {"x": ZEROS}, f"{NEGATIVE_BASE} '(-x)^0.5'"),
    # both checks fail; the negative base is named first
    ("(-x)^(-0.5)", {"x": ZEROS}, f"{NEGATIVE_BASE} '(-x)^(-0.5)'"),
    ("(-x)^(-2)", {"x": ZEROS[1:3]}, np.array([1.0, 0.0625])),
    # array exponents of mixed sign: only a negative one at a zero base fails
    ("x^t", {"x": ZEROS, "t": np.array([1.0, -1.0, 0.5, -2.0])}, f"{ZERO_BASE} 'x^t'"),
    ("x^t", {"x": ZEROS, "t": np.array([2.0, -1.0, -0.5, 0.0])}, np.array([0.0, 1.0, 0.5, 1.0])),
    ("x^t", {"x": -ZEROS, "t": np.array([2.0, -1.0, 3.0, 0.0])}, np.array([0.0, -1.0, -64.0, 1.0])),
    ("x^t", {"x": -ZEROS, "t": np.array([2.0, -1.0, 0.5, 0.0])}, f"{NEGATIVE_BASE} 'x^t'"),
    # np.float64 exponents: bound as t, and computed by a constant subexpression
    ("x^t", {"x": ZEROS, "t": np.float64(-1.0)}, f"{ZERO_BASE} 'x^t'"),
    ("x^t", {"x": -ZEROS, "t": np.float64(2.0)}, ZEROS ** 2),
    ("x^t", {"x": -ZEROS, "t": np.float64(0.5)}, f"{NEGATIVE_BASE} 'x^t'"),
    ("x^(0.5 - 1)", {"x": ZEROS}, f"{ZERO_BASE} 'x^(0.5 - 1.0)'"),
    ("x^(3 - 1)", {"x": -ZEROS}, ZEROS ** 2),
    # a NaN base is neither negative nor zero; it hides no other base (a
    # min-reduction would read NaN and miss the -1)
    ("x^(-0.5)", {"x": np.array([np.nan, -1.0])}, f"{NEGATIVE_BASE} 'x^(-0.5)'"),
    ("x^(-0.5)", {"x": np.array([0.0, np.nan])}, f"{ZERO_BASE} 'x^(-0.5)'"),
    ("x^(-2)", {"x": ZEROS}, f"{ZERO_BASE} 'x^(-2.0)'"),
])
def test_pow_domain_checks(text, env, want):
    e = ex.parse(text)
    assert type(np.subtract(0.5, 1.0)) is np.float64  # what 0.5 - 1 evaluates to
    for fixed in ({}, {k: v for k, v in env.items() if k == "t"},
                  {k: v for k, v in env.items() if k == "x"}):
        rest = {k: v for k, v in env.items() if k not in fixed}
        for got in (_outcome(lambda: ex.evaluate(e, env)),
                    _outcome(lambda: ex.bind(e, fixed)(rest))):
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)
                assert type(got) is type(want)
