import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbvp import expressions as ex
from cfbvp.hypotheses import SIZE_MESH, NumericsConfig, check_A2
from cfbvp.problem_io import load_problem
from cfbvp.solver import (GreenOperator, HypothesisError, SolverError, apply_Tm,
                          clamp_m, residual_nonlinear, solve, solve_fixed_m)


@pytest.fixture(scope="module")
def spec(make_spec):
    return make_spec()


@pytest.fixture(scope="module")
def mesh(spec):
    return spec.default_mesh()


@pytest.fixture(scope="module")
def op(spec, mesh):
    return GreenOperator(spec.mu, mesh)


@pytest.fixture(scope="module")
def f_nodes(spec, op):
    # the worked family's f bound to the operator's nodes, as solve binds it
    return ex.bind(spec.f, {"t": op.tau})


@pytest.fixture(scope="module")
def report(spec):
    return solve(spec)


def test_clamp_examples():
    assert clamp_m(0.5, 10, 2.0) == pytest.approx(0.6)
    assert clamp_m(-0.3, 10, 2.0) == pytest.approx(0.1)
    assert clamp_m(5.0, 10, 2.0) == 2.0
    out = clamp_m(np.array([-1.0, 0.0, 1.9, 3.0]), 10, 2.0)
    assert np.allclose(out, [0.1, 0.1, 2.0, 2.0])


def test_clamp_validation():
    with pytest.raises(ValueError):
        clamp_m(0.5, 0, 2.0)
    with pytest.raises(ValueError):
        clamp_m(0.5, 10, -1.0)


@given(x=st.floats(-1e3, 1e3), m=st.integers(1, 10_000),
       R=st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_clamp_range_invariant(x, m, R):
    c = clamp_m(x, m, R)
    assert min(1.0 / m, R) <= c <= max(R, 1.0 / m)
    # idempotent up to the shift: clamping an in-range value moves it by 1/m
    if 0.0 <= x <= R - 1.0 / m:
        assert c == pytest.approx(x + 1.0 / m)


def test_operator_matches_quad_oracle(spec, mesh, op, quad_green):
    # the operator and an adaptive quadrature of the kernel agree on a
    # smooth symmetric integrand
    yfn = lambda tau: np.asarray(tau) ** 2
    direct = quad_green(spec.mu, yfn, mesh.breakpoints)
    via_op = op.apply(yfn(op.tau))[:len(op.grid)]
    assert np.max(np.abs(direct - via_op)) <= 1e-13 * max(1.0, np.max(np.abs(direct)))


def test_apply_Tm_zero_nonlinearity(op, make_spec):
    # f = 0 maps everything to the zero function
    s = make_spec(f="0*t*x", psi="0*s")
    x0 = np.ones(op.points.shape)
    tx = apply_Tm(s, ex.bind(s.f, {"t": op.tau}), x0, 16, op)
    assert tx.shape == op.points.shape
    assert np.max(np.abs(tx)) == 0.0


def test_apply_Tm_deep_clamp(spec, op, f_nodes):
    # far below the clamp floor the operator only sees f(., 1/m)
    m = 16
    x0 = np.full(op.points.shape, -50.0)
    tx = apply_Tm(spec, f_nodes, x0, m, op)
    want = op.apply(spec.f_at(op.tau, 1.0 / m))
    assert np.max(np.abs(tx - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_solve_fixed_m_names_non_finite_node(op, make_spec):
    # f overflows at x = 1 + 1/m; the first non-finite value of T_m x stops
    # the iteration instead of entering the next step, and the node is named
    # from the values of f that the step applied: f is evaluated once
    s = make_spec(f="abs(t)*(1-t^2)^(-0.25)*x^(-0.25) + 0*exp(1000*x)")
    bound = ex.bind(s.f, {"t": op.tau})
    calls = []

    def f(env):
        calls.append(env)
        return bound(env)

    x0 = np.ones(op.points.shape)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match=rf"^T_m x is not finite at t = {op.tau[0]:.6g} "
                                             r"\(m = 16, iteration 1\)$"):
        solve_fixed_m(s, f, 16, op, x0)
    assert len(calls) == 1


def test_limit_map_names_non_finite_node(spec, op, f_nodes):
    # m = None reads x itself, in the iteration and in its diagnostic alike
    k = 5
    x0 = np.ones(op.points.shape)
    x0[len(op.grid) + k] = np.nan
    with pytest.raises(SolverError,
                       match=rf"not finite at t = {op.tau[k]:.6g} \(m = None, iteration 1\)$"):
        solve_fixed_m(spec, f_nodes, None, op, x0)


def test_limit_map_reads_x_itself(spec, op, f_nodes):
    # m = None is the limit map: no clamp, below 1/m and above R alike
    n = len(op.grid)
    x = np.geomspace(1e-3, 2.0 * spec.R, op.points.size)
    assert apply_Tm(spec, f_nodes, x, None, op).tobytes() == op.apply(spec.f_at(op.tau, x[n:])).tobytes()


@pytest.mark.parametrize("m", [None, 128])
def test_residual_is_x_minus_apply_Tm(spec, op, f_nodes, m):
    n = len(op.grid)
    x = np.geomspace(1e-3, 2.0 * spec.R, op.points.size)
    want = x[:n] - apply_Tm(spec, f_nodes, x, m, op)[:n]
    assert residual_nonlinear(spec, f_nodes, x, op, m).tobytes() == want.tobytes()


def test_apply_Tm_order_interval(spec, op, f_nodes):
    # any iterate starting from the barrier stays in [sigma, R], at the
    # breakpoints and at the nodes
    sigma = check_A2(spec).sigma
    tx = apply_Tm(spec, f_nodes, sigma, 64, op)
    assert np.all(tx >= sigma - 1e-12)
    assert np.all(tx <= spec.R + 1e-12)


def test_config_validation():
    with pytest.raises(ValueError, match="'solver.omega'"):
        NumericsConfig(omega=0.0)
    with pytest.raises(ValueError, match="'solver.omega'"):
        NumericsConfig(omega=1.5)
    with pytest.raises(ValueError, match="'solver.m_schedule'"):
        NumericsConfig(m_schedule=())
    with pytest.raises(ValueError, match="'solver.m_schedule'"):
        NumericsConfig(m_schedule=(16, 16, 32))
    with pytest.raises(ValueError, match="'solver.m_schedule'"):
        NumericsConfig(m_schedule=(32, 16))


def test_solve_converges(report):
    assert report.status == "converged"
    assert all(s.converged for s in report.inner)
    assert report.eps == 0.5 * report.hypothesis.eps_max
    assert report.hypothesis.eps_max > 1.0


def test_x0_refinement_order():
    # the graded breakpoints nest and x(0) is the breakpoint t = 0: its
    # change per doubling of the cells shrinks by a factor of about 5
    shipped = Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"
    x0 = [solve(load_problem(shipped, {"mesh_cells": cells})).x[0]
          for cells in (64, 128, 256, 512, 1024)]
    steps = np.abs(np.diff(x0))
    assert np.all(steps[:-1] / steps[1:] >= 4.0), steps


def test_x0_matches_independent_nystrom_reference(reference, make_spec):
    # the mu = 1.9 member at the default 128 cells and grading 3 against the
    # benchmark's m = 128 reference on 256 cells at grading 6 with 12 nodes
    # per cell (limit of refinement to ~1e-13); reading the iterate through a
    # cubic spline instead of at the quadrature nodes left a 1.9e-8 relative error
    want = reference.family_x0(1.9, 100.0, 0.25, 0.25, m=128, cells=256)
    rep = solve(make_spec(mu=1.9))
    assert rep.status == "converged" and rep.inner[-1].m == 128
    assert abs(rep.x[0] - want) <= 1e-9 * want


@pytest.fixture(scope="module")
def endpoint_deviation(make_spec):
    """mu -> (d, x_m / law - 1) at the Gauss nodes of the worked family's
    m = 128 level on 512 cells, with d = 1 - t and law = m^b 2^-a d^(1-a)/(1-a).

    The law.  f = |t| (1 - t^2)^-a x^-b, with a = b = 1/4.  At level m, f
    reads clamp_m(x) = x + 1/m (0 <= x <= R - 1/m).  Near t = 1, with
    sigma = 1 - tau:
      - where x << 1/m, (x + 1/m)^-b = m^b (1 + m x)^-b is m^b;
      - |tau| (1 - tau^2)^-a = (2 sigma)^-a (1 + O(sigma));
      - the upper branch e^(-lam tau) cosh(lam t) e^lam / cosh(lam) tends
        to 1 as t, tau -> 1, and the lower branch (tau <= t), which
        vanishes at t = 1, is O(d), as is its integral against f.
    So x_m(t) = int_t^1 f dtau + O(d) = m^b 2^-a int_0^d sigma^-a dsigma
    + O(d), which is the law.  Its relative remainders are O(d^a) from
    the lower branch and about -b m x from the clamp (0.4% at d = 1e-6,
    where m x = 0.015).
    """
    a = b = 0.25
    m = 128
    out = {}
    for mu in (1.5, 1.9):
        rep = solve(make_spec(mu=mu, numerics=NumericsConfig(mesh_cells=512)))
        assert rep.status == "converged" and rep.inner[-1].m == m
        op = rep.hypothesis.operator
        d = 1.0 - op.tau
        law = m**b * 2.0**-a * d**(1.0 - a) / (1.0 - a)
        out[mu] = d, rep.x[len(op.grid):] / law - 1.0
    return out


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_m_level_follows_the_endpoint_law(endpoint_deviation, mu):
    # the 32 nodes with 1e-8 <= d <= 1e-6, all outside the last cell
    # (d < (1/512)^3 = 7.5e-9); they deviate by 0.44% (mu = 1.5) and 0.52%
    # (mu = 1.9) at most
    d, deviation = endpoint_deviation[mu]
    band = (d >= 1e-8) & (d <= 1e-6)
    assert np.count_nonzero(band) == 32
    assert np.max(np.abs(deviation[band])) <= 0.01


def _volterra_level(t, m, a=0.25, b=0.25):
    """x_m(t) of the worked family's level m at mu = 1 (see the test below)."""
    return ((1.0 / m) ** (1.0 + b)
            + (1.0 + b) * (1.0 - t * t) ** (1.0 - a) / (2.0 * (1.0 - a))) ** (1.0 / (1.0 + b)) \
        - 1.0 / m


@pytest.mark.parametrize("cells, tol", [(128, 1e-5), (512, 1e-6)])
def test_m_level_as_mu_tends_to_one_has_a_closed_form(make_spec, cells, tol):
    """The last level x_m of the worked family tends, as mu -> 1, to a closed form.

    As mu -> 1 the rate lam = (mu - 1)/(2 - mu) -> 0, and the kernel on the
    right half tends to the indicator of tau > t: the upper branch
    cosh(lam t) e^(lam (1 - tau)) / cosh(lam) -> 1 and the lower branch
    (e^(-lam (t + tau)) - e^(-lam (2 - t + tau))) / (1 + e^(-2 lam)) -> 0.
    So level m solves the Volterra equation x(t) = int_t^1 f(tau, x + 1/m)
    dtau: clamp_m(x) = x + 1/m, as 0 <= x < R - 1/m (x <= 0.87, R = 100).
    With f = |t| (1 - t^2)^-a x^-b and y = x + 1/m on t >= 0,
    y' = -t (1 - t^2)^-a y^-b and y(1) = 1/m.  The equation separates:
    y^b dy = -t (1 - t^2)^-a dt, and integrating from t to 1 gives
      y(t)^(1+b) = (1/m)^(1+b) + (1 + b) (1 - t^2)^(1-a) / (2 (1 - a)),
    so x_m(t) = y(t) - 1/m; x_128(0) = 0.8583952 at a = b = 1/4.  The limit
    equation's x_1(0) = 0.864281 (no 1/m) is 0.7% away, so the test tells
    the level from the limit.

    At mu = 1 + 1e-10 the breakpoints with t <= 0.99 deviate by 3.6e-6
    (128 cells) and 1.6e-7 (512 cells) at most.  At mu = 1 + 1e-4, x(0)
    exceeds x_m(0) by lam times 0.1993 (128 cells) and 0.2012 (512 cells):
    the O(lam) term of ROADMAP item 17 (0.1998 lam for the limit).
    """
    m = 128

    def level(mu):
        rep = solve(make_spec(mu=mu, numerics=NumericsConfig(mesh_cells=cells)))
        assert rep.status == "converged" and rep.inner[-1].m == m
        grid = rep.hypothesis.operator.grid
        return grid, rep.x[:len(grid)]

    grid, x = level(1.0 + 1e-10)
    keep = grid <= 0.99
    assert np.max(np.abs(x[keep] / _volterra_level(grid[keep], m) - 1.0)) <= tol
    mu = 1.0 + 1e-4
    _, x = level(mu)
    lam = (mu - 1.0) / (2.0 - mu)
    assert 0.19 <= (x[0] / _volterra_level(0.0, m) - 1.0) / lam <= 0.21


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the Gauss rule of the last cell "
                   "does not resolve f's d^-a; the outermost node reads 19.3% low")
def test_m_level_follows_the_endpoint_law_at_the_outermost_node(endpoint_deviation):
    for d, deviation in endpoint_deviation.values():
        assert abs(deviation[np.argmin(d)]) <= 0.01


def test_solve_reuses_the_reports_operator(spec, monkeypatch, make_spec):
    # the solve builds the 2 operators of its A2 check (the solver mesh,
    # then SIZE_MESH, the mesh of the improper integrals whatever the solver
    # mesh) and none of its own
    cells = []
    original = GreenOperator.__init__

    def counted(self, mu, mesh, beta=None):
        cells.append(mesh.cells)
        original(self, mu, mesh, beta)

    monkeypatch.setattr(GreenOperator, "__init__", counted)
    size = [SIZE_MESH.cells]
    for s in (spec, make_spec(NumericsConfig(mesh_cells=64)),
              make_spec(NumericsConfig(mesh_cells=512))):
        cells.clear()
        check_A2(s)
        in_check = list(cells)
        cells.clear()
        rep = solve(s)
        assert rep.status == "converged"
        assert in_check == [s.numerics.mesh_cells, *size]
        assert cells == in_check
        assert len(rep.x) == len(rep.hypothesis.operator.points)


def test_solve_binds_f_once(spec, monkeypatch):
    # the ~50 Picard applies and both residuals share one binding of f to
    # the operator's nodes: f's x-free part is evaluated once per solve
    bound = []
    original = ex.bind

    def counted(e, fixed):
        bound.append((e, fixed))
        return original(e, fixed)

    monkeypatch.setattr(ex, "bind", counted)
    rep = solve(spec)
    assert rep.status == "converged"
    assert sum(s.iterations for s in rep.inner) > 40
    assert len(bound) == 1
    e, fixed = bound[0]
    assert e is spec.f and fixed["t"] is rep.hypothesis.operator.tau


def test_problem_spec_holds_no_state(make_spec):
    # a problem is a plain value: its fields are the eight it is made of,
    # and a solve binds f without leaving anything on it
    s = make_spec()
    assert [(fl.name, fl.init) for fl in dataclasses.fields(s)] == [
        (name, True) for name in ("mu", "R", "f", "q", "u", "v", "psi", "numerics")]
    before = {k: copy.copy(v) for k, v in vars(s).items()}
    assert solve(s).status == "converged"
    assert vars(s) == before


def test_solve_takes_no_hypothesis_report(make_spec):
    # the solve computes its own A2 report from the spec: a report of
    # another problem cannot stand in for it
    with pytest.raises(TypeError):
        solve(make_spec(mu=1.9), hypothesis=check_A2(make_spec(mu=1.5)))


def test_solution_brackets(report, spec):
    # sigma <= x <= R - eps at the breakpoints and the nodes, with
    # nonnegative margins
    assert report.lower_margin >= -1e-12
    assert report.upper_margin >= 0.0
    assert np.all(report.x >= report.hypothesis.sigma - 1e-12)
    assert np.all(report.x <= spec.R - report.eps)


def test_lower_margin_measures_the_interior(report):
    # sigma_R(1) = x(1) = 0; away from t = 1 the solution lies strictly
    # above the barrier, and the margin says by how much
    n = len(report.hypothesis.operator.grid)
    gap = report.x[:n - 1] - report.hypothesis.sigma[:n - 1]
    assert report.lower_margin > 0.0
    assert report.lower_margin == np.min(gap)


def test_solution_symmetric_and_vanishing(report):
    # x is even by construction: it is held on the right half [0, 1] only,
    # where x(1) = 0 exactly and x > 0 at every other breakpoint and node
    grid = report.hypothesis.operator.grid
    points = report.hypothesis.operator.points
    assert grid[0] == 0.0 and grid[-1] == 1.0 and np.all((points >= 0.0) & (points <= 1.0))
    assert report.x[len(grid) - 1] == 0.0
    assert np.all(np.delete(report.x, len(grid) - 1) > 0.0)


def test_level_deviations_shrink(report):
    devs = report.inter_m_deviations
    assert len(devs) == len(report.inner) - 1
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_clamped_residual_small(report, spec, op, f_nodes):
    # the iterate satisfies the regularized integral equation to solver tol
    assert report.residual_sup <= 1e-9
    # and matches a fresh residual computation
    m = spec.numerics.m_schedule[-1]
    fresh = residual_nonlinear(spec, f_nodes, report.x, op, m=m)
    assert fresh.shape == op.grid.shape
    assert np.max(np.abs(fresh)) == pytest.approx(report.residual_sup, abs=1e-14)


def test_limit_residual_tracks_regularization(report):
    # against the unclamped equation the residual carries the O(1/m) shift
    m = report.inner[-1].m
    assert report.residual_limit_sup <= 5.0 / m
    assert report.residual_limit_sup > report.residual_sup


def test_limit_residual_requires_positivity(spec, op, f_nodes):
    x = np.full(op.points.shape, -1.0)
    with pytest.raises(ValueError):
        residual_nonlinear(spec, f_nodes, x, op, m=None)


def test_fixed_point_is_stationary(spec, op, f_nodes, report):
    # re-applying the operator at the final level moves the iterate by no
    # more than the inner tolerance
    m = report.inner[-1].m
    tx = apply_Tm(spec, f_nodes, report.x, m, op)
    assert np.max(np.abs(report.x - tx)) <= 10.0 * spec.numerics.inner_tol


def test_damping_reaches_same_fixed_point(report, make_spec):
    damped = make_spec(numerics=NumericsConfig(omega=0.5))
    rep2 = solve(damped)
    assert rep2.status == "converged"
    assert np.max(np.abs(report.x - rep2.x)) <= 1e-8


def test_solver_refuses_failing_hypotheses(make_spec):
    bad = make_spec(f="t*x")  # odd in t
    with pytest.raises(HypothesisError) as exc:
        solve(bad)
    assert exc.value.failures


def test_small_R_rejected(make_spec):
    # R = 1 leaves ratio <= 1: the size condition refuses the solve
    with pytest.raises(HypothesisError) as exc:
        solve(make_spec(R=1.0))
    assert any(f.check == "A2.ratio" for f in exc.value.failures)


def test_inner_budget_exhaustion(report, make_spec, monkeypatch):
    monkeypatch.setattr("cfbvp.solver.MAX_INNER", 2)
    rep = solve(make_spec(numerics=NumericsConfig(m_schedule=(16, 32))))
    assert rep.status == "inner_failed"
    assert not rep.inner[0].converged


def test_schedule_vs_eps_guard(report, monkeypatch, make_spec):
    # eps_max ~ 75 so eps ~ 37; a schedule with 1/m >= eps is impossible to
    # build with integer m here, so synthesize via a doctored report
    from dataclasses import replace
    tiny = replace(report.hypothesis, ratio=1.001, eps_max=0.01)
    monkeypatch.setattr("cfbvp.solver.check_A2", lambda spec: tiny)
    with pytest.raises(SolverError, match="violates 1/m < eps"):
        solve(make_spec(numerics=NumericsConfig(m_schedule=(16, 32))))


def test_solve_deterministic(spec, report):
    rep2 = solve(spec)
    assert np.array_equal(rep2.x, report.x)
    assert rep2.residual_sup == report.residual_sup


def test_solve_fixed_m_leaves_x0_unchanged(spec, op, f_nodes):
    # the Picard step damps in place into arrays of its own
    x0 = check_A2(spec).sigma
    before = x0.copy()
    x, _ = solve_fixed_m(spec, f_nodes, 16, op, x0)
    assert x is not x0
    assert x0.tobytes() == before.tobytes()


def test_solve_leaves_the_barrier_unchanged(spec, report):
    # the solve starts from the A2 report's barrier, which it must not overwrite
    assert report.hypothesis.sigma.tobytes() == check_A2(spec).sigma.tobytes()


# x + 1/m straddles 1/m where x straddles 0, and R = 2 where x straddles 1.9 (m = 10)
CLAMP_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, -5e-324, 5e-324, -0.1, 0.1,
                1.9, np.nextafter(1.9, 0.0), np.nextafter(1.9, 2.0), 2.0, 3.0, 1e308, -1e308]


@pytest.mark.parametrize("m, R", [(10, 2.0), (1, 0.5), (3, 1.0 / 3.0), (16, np.inf)])
def test_clamp_is_min_max_bit_for_bit(m, R):
    # NaN stays NaN, -0.0 and values straddling 1/m and R, scalars and arrays
    want = lambda x: np.minimum(np.maximum(x + 1.0 / m, 1.0 / m), R)
    for x in [*CLAMP_VALUES, np.array(CLAMP_VALUES), np.array(CLAMP_VALUES).reshape(4, 4)]:
        got = clamp_m(x, m, R)
        assert type(got) is type(want(x))
        assert np.shape(got) == np.shape(want(x))
        assert np.asarray(got).tobytes() == np.asarray(want(x)).tobytes()
