from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbvp.gridfn import SymmetricGridFunction
from cfbvp.hypotheses import NumericsConfig, ProblemSpec, check_A2
from cfbvp.problem_io import load_problem
from cfbvp.solver import (GreenOperator, HypothesisError, SolverError, apply_Tm,
                          clamp_m, residual_nonlinear, solve, solve_fixed_m)

WORKED = dict(
    mu=1.5,
    R=100.0,
    f="abs(t)*(1-t^2)^(-0.25)*x^(-0.25)",
    q="s*(1-s^2)^(-0.25)",
    u="x^(-0.25)",
    v="x^(0.25)",
    psi="s*(1-s^2)^(-0.25)*R^(-0.25)",
)


def make_spec(numerics=None, **overrides):
    kw = dict(WORKED)
    kw.update(overrides)
    return ProblemSpec.from_strings(numerics=numerics, **kw)


@pytest.fixture(scope="module")
def spec():
    return make_spec()


@pytest.fixture(scope="module")
def mesh(spec):
    return spec.default_mesh()


@pytest.fixture(scope="module")
def op(spec, mesh):
    return GreenOperator(spec.mu, mesh)


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
    via_op = op.apply(yfn)
    assert np.max(np.abs(direct - via_op)) <= 1e-13 * max(1.0, np.max(np.abs(direct)))


def test_apply_Tm_zero_nonlinearity(op):
    # f = 0 maps everything to the zero function
    s = make_spec(f="0*t*x", psi="0*s")
    x0 = np.ones(op.points.shape)
    tx = apply_Tm(s, x0, 16, op)
    assert tx.shape == op.points.shape
    assert np.max(np.abs(tx)) == 0.0


def test_apply_Tm_deep_clamp(spec, op):
    # far below the clamp floor the operator only sees f(., 1/m)
    m = 16
    x0 = np.full(op.points.shape, -50.0)
    tx = apply_Tm(spec, x0, m, op)
    want = op.apply(lambda tau: spec.f_at(tau, 1.0 / m + 0.0 * np.asarray(tau)), nodes=True)
    assert np.max(np.abs(tx - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_solve_fixed_m_names_non_finite_node(op):
    # f overflows at x = 1 + 1/m; the first non-finite value of T_m x stops
    # the iteration instead of entering the next step
    s = make_spec(f=WORKED["f"] + " + 0*exp(1000*x)")
    x0 = np.ones(op.points.shape)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match=r"not finite at t = .*m = 16"):
        solve_fixed_m(s, 16, op, x0)


def test_apply_Tm_order_interval(spec, mesh, op):
    # any iterate starting from the barrier stays in [sigma, R], at the
    # breakpoints and at the nodes
    hyp = check_A2(spec, mesh)
    sigma = np.concatenate((hyp.sigma.values, hyp.sigma_nodes))
    tx = apply_Tm(spec, sigma, 64, op)
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
    assert report.eps == 0.5 * report.eps_max
    assert report.eps_max > 1.0


def test_x0_refinement_order():
    # the graded breakpoints nest and x(0) is the breakpoint t = 0: its
    # change per doubling of the cells shrinks by a factor of about 5
    shipped = Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"
    x0 = [solve(load_problem(shipped, {"mesh_cells": cells})).x.values[0]
          for cells in (64, 128, 256, 512, 1024)]
    steps = np.abs(np.diff(x0))
    assert np.all(steps[:-1] / steps[1:] >= 4.0), steps


def test_x0_matches_independent_nystrom_reference(family_nystrom):
    # the mu = 1.9 member at the default 128 cells and grading 3 against an
    # m = 128 reference on 256 cells at grading 6 with 12 nodes per cell
    # (limit of refinement to ~1e-13); reading the iterate through a cubic
    # spline instead of at the quadrature nodes left a 1.9e-8 relative error
    want = family_nystrom(1.9, 100.0, 0.25, 0.25).x0(m=128)
    rep = solve(make_spec(mu=1.9))
    assert rep.status == "converged" and rep.inner[-1].m == 128
    assert abs(rep.x.values[0] - want) <= 1e-9 * want


def test_solve_reads_no_spline(spec, mesh, monkeypatch):
    # the A2 check reads the barrier at its quadrature nodes through each
    # mesh's operator, and the iterate lives on the breakpoints and the
    # Gauss nodes: no interpolant is fitted or read in the check or the solve
    calls = []
    original = SymmetricGridFunction.__call__

    def counted(self, t):
        calls.append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(SymmetricGridFunction, "__call__", counted)
    hyp = check_A2(spec, mesh)
    rep = solve(spec, hypothesis=hyp)
    assert hyp.passed and rep.status == "converged"
    assert calls == []


def test_solve_reuses_the_reports_operator(spec, report, monkeypatch):
    # the A2 report carries the Green operator of the mesh; given the
    # report, the solve builds none of its own
    builds = []
    original = GreenOperator.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GreenOperator, "__init__", counted)
    rep = solve(spec, hypothesis=report.hypothesis)
    assert rep.status == "converged"
    assert builds == []


def test_solution_brackets(report, spec):
    # sigma <= x <= R - eps on the grid, with nonnegative margins
    assert report.lower_margin >= -1e-12
    assert report.upper_margin >= 0.0
    assert np.all(report.x.values >= report.sigma.values - 1e-12)
    assert np.all(report.x.values <= spec.R - report.eps)


def test_solution_symmetric_and_vanishing(report):
    assert report.x.values[-1] == 0.0
    assert report.x(0.7) == report.x(-0.7)


def test_level_deviations_shrink(report):
    devs = report.inter_m_deviations
    assert len(devs) == len(report.inner) - 1
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_clamped_residual_small(report, spec, op):
    # the iterate satisfies the regularized integral equation to solver tol
    assert report.residual_sup <= 1e-9
    # and matches a fresh residual computation
    m = spec.numerics.m_schedule[-1]
    fresh = residual_nonlinear(spec, report.iterate, op, m=m)
    assert fresh.sup == pytest.approx(report.residual_sup, abs=1e-14)


def test_limit_residual_tracks_regularization(report):
    # against the unclamped equation the residual carries the O(1/m) shift
    m = report.inner[-1].m
    assert report.residual_limit_sup <= 5.0 / m
    assert report.residual_limit_sup > report.residual_sup


def test_limit_residual_requires_positivity(spec, op):
    x = np.full(op.points.shape, -1.0)
    with pytest.raises(ValueError):
        residual_nonlinear(spec, x, op, m=None)


def test_fixed_point_is_stationary(spec, op, report):
    # re-applying the operator at the final level moves the iterate by no
    # more than the inner tolerance
    m = report.inner[-1].m
    tx = apply_Tm(spec, report.iterate, m, op)
    assert np.max(np.abs(report.iterate - tx)) <= 10.0 * spec.numerics.inner_tol


def test_damping_reaches_same_fixed_point(report):
    damped = make_spec(numerics=NumericsConfig(omega=0.5))
    rep2 = solve(damped, hypothesis=report.hypothesis)
    assert rep2.status == "converged"
    assert report.x.sup_diff(rep2.x) <= 1e-8


def test_solver_refuses_failing_hypotheses():
    bad = make_spec(f="t*x")  # odd in t
    with pytest.raises(HypothesisError) as exc:
        solve(bad)
    assert exc.value.failures


def test_small_R_rejected():
    with pytest.raises(HypothesisError):
        solve(make_spec(R=1.0))


def test_inner_budget_exhaustion(report):
    tight = make_spec(numerics=NumericsConfig(m_schedule=(16,), max_inner=2))
    rep = solve(tight, hypothesis=report.hypothesis)
    assert rep.status == "inner_failed"
    assert not rep.inner[0].converged


def test_schedule_vs_eps_guard(report):
    # eps_max ~ 75 so eps ~ 37; a schedule with 1/m >= eps is impossible to
    # build with integer m here, so synthesize via a doctored report
    from dataclasses import replace
    tiny = replace(report.hypothesis, ratio=1.001, eps_max=0.01)
    with pytest.raises(SolverError):
        solve(make_spec(numerics=NumericsConfig(m_schedule=(16,))), hypothesis=tiny)


def test_solve_deterministic(spec, report):
    rep2 = solve(spec, hypothesis=report.hypothesis)
    assert np.array_equal(rep2.x.values, report.x.values)
    assert rep2.residual_sup == report.residual_sup
