import math

import numpy as np
import pytest

from cfbvp.cli import main
from cfbvp.green import GreenOperator, rate_of
from cfbvp.hypotheses import NumericsConfig, ProblemSpec, check_A1, check_A2, sigma_R
from cfbvp.quadrature import MeshError, build_mesh


@pytest.fixture(scope="module")
def spec(make_spec):
    return make_spec()


@pytest.fixture(scope="module")
def a2_report(spec):
    return check_A2(spec)


def test_spec_validation(make_spec):
    with pytest.raises(ValueError):
        make_spec(R=-1.0)
    with pytest.raises(ValueError):
        make_spec(mu=2.5)
    with pytest.raises(ValueError):
        make_spec(f="x + s")  # s not allowed in f


def test_sigma_constant_profile_oracle(make_spec):
    # psi = 1: sigma(0) = int_0^1 e^{lam(1-s)} / cosh(lam) ds
    #        = (e^lam - 1) / (lam cosh(lam))
    s = make_spec(psi="1")
    sig = sigma_R(s, GreenOperator(s.mu, s.default_mesh()))
    lam = rate_of(1.5)
    want = (math.exp(lam) - 1.0) / (lam * math.cosh(lam))
    assert abs(sig[0] - want) <= 1e-10  # the breakpoint t = 0 comes first


def test_sigma_zero_profile(make_spec):
    s = make_spec(psi="0*s")
    sig = sigma_R(s, GreenOperator(s.mu, s.default_mesh()))
    assert np.all(sig == 0.0)


def test_sigma_vanishes_at_one(spec):
    op = GreenOperator(spec.mu, spec.default_mesh())
    sig = sigma_R(spec, op)
    assert sig.shape == op.points.shape
    assert sig[len(op.grid) - 1] == 0.0  # the breakpoint t = 1
    assert np.all(sig >= 0.0)


def test_sigma_monotone_in_profile(make_spec):
    op = GreenOperator(1.5, make_spec().default_mesh())
    lo = sigma_R(make_spec(psi="s"), op)
    hi = sigma_R(make_spec(psi="s + 0.5"), op)
    assert np.all(hi >= lo - 1e-15)


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_sigma_refinement_order(mu, make_spec):
    # the graded breakpoints nest (1 - (1 - j/N)^3 is node 2j of the 2N
    # mesh); with psi ~ (1 - s)^(-1/4) the barrier converges at order
    # gamma (1 - 1/4) = 2.25, a factor 4.76 per doubling
    spec = make_spec(mu=mu)
    ops = [GreenOperator(mu, build_mesh(cells, 3.0))
           for cells in (64, 128, 256, 512)]
    sigmas = [sigma_R(spec, op)[:len(op.grid)] for op in ops]
    diffs = []
    for coarse, fine, op_c, op_f in zip(sigmas, sigmas[1:], ops, ops[1:]):
        assert np.array_equal(op_c.grid, op_f.grid[::2])
        diffs.append(np.max(np.abs(coarse - fine[::2])))
    assert diffs[0] / diffs[1] >= 4.0
    assert diffs[1] / diffs[2] >= 4.0


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.9, 1.975])
def test_a2_kernel_bound_is_the_audited_sup(mu, make_spec, capsys):
    assert main(["audit", str(mu)]) == 0
    sup = float(capsys.readouterr().out.splitlines()[1].split(",")[5])
    assert check_A2(make_spec(mu=mu)).c_kernel == sup


def test_a1_worked_family_passes(spec):
    report = check_A1(spec)
    assert report.passed, [str(f) for f in report.failures][:5]


def test_a1_majorant_example(make_spec):
    # |t * x| <= |t| (1/x + x) for x > 0
    s = make_spec(f="abs(t)*x", q="s", u="1/x", v="x", psi="0*s")
    assert check_A1(s).passed


def test_a1_odd_nonlinearity_fails(make_spec):
    s = make_spec(f="t*x")
    report = check_A1(s)
    assert not report.passed
    assert any(f.check == "A1.even" for f in report.failures)
    witness = next(f for f in report.failures if f.check == "A1.even")
    assert "t" in witness.witness


def test_a1_nonzero_at_origin_fails(make_spec):
    s = make_spec(f="1 + abs(t)")
    report = check_A1(s)
    assert not report.passed
    assert any(f.check == "A1.f(0,x)=0" for f in report.failures)


def test_a1_monotonicity_checks(make_spec):
    s = make_spec(u="x", v="x")  # u increasing: violates the assumption
    report = check_A1(s)
    assert any(f.check == "A1.u_decreasing" for f in report.failures)


def test_a1_monotone_pair_needs_both_values_finite(make_spec):
    # The A1 lattice is x_k = 10^(-3 + 0.15 k), k = 0..40 (up to 10 R = 1000).
    # This u is x^(-0.25) up to x_39 = 10^2.85, where exp(x - 290) - 1e300 < 0,
    # and inf at x_40 = 1000, where exp(710) overflows.  The step to inf is a
    # non-finite u, not u increasing; the bound q (u + v) is inf at x = 1000
    # for each of the 40 lattice points t = k/41 > 0.
    s = make_spec(u="max(x^(-0.25), exp(x - 290) - 1e300)")
    want = [f"[A1.majorant] non-finite value inf (at t={k / 41:.6g}, x=1000)"
            for k in range(1, 41)]
    want.append("[A1.monotone] non-finite value inf (at x=1000)")
    assert [str(f) for f in check_A1(s).failures] == want


def test_a2_worked_family(a2_report):
    assert a2_report.passed, [str(f) for f in a2_report.failures][:5]
    assert a2_report.ratio > 1.0
    assert a2_report.eps_max > 0.0
    assert abs(a2_report.I_q - 2.0 / 3.0) <= 1e-9  # closed form of int q
    assert a2_report.c_kernel > 1.0
    # the identity eps_max = R (1 - 1/ratio)
    assert abs(a2_report.eps_max - 100.0 * (1.0 - 1.0 / a2_report.ratio)) <= 1e-8


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_I_qu_matches_independent_nystrom(mu, reference, make_spec):
    # the size terms I_q, I_qu = int q u(sigma_R) and the ratio, at the
    # default 128 cells and on a refined solver mesh, against the
    # benchmark's Nystrom barrier (256 cells, grading 6, 12 nodes per cell;
    # converged to ~1e-10); reading sigma_R through a spline of its
    # breakpoint values left 3.8e-5 (mu = 1.5) and 3.0e-5 (mu = 1.9) in I_qu
    want = reference.family_size_terms(mu, 100.0, 0.25, 0.25)
    for cells in (128, 2048):
        report = check_A2(make_spec(mu=mu, numerics=NumericsConfig(mesh_cells=cells)))
        for key in ("I_q", "I_qu", "ratio"):
            got = getattr(report, key)
            assert abs(got - want[key]) <= 1e-8 * want[key], (cells, key, got)


def test_a2_zero_profile_diverges(make_spec):
    # psi = 0 makes sigma = 0, so u(sigma) = sigma^{-1/4} is evaluated at 0
    s = make_spec(psi="0*s")
    report = check_A2(s)
    assert not report.passed
    assert any(f.check == "A2.I_qu_finite" for f in report.failures)


def test_a2_small_R_fails_on_barrier(make_spec):
    # choose R below sigma_R(0); with psi independent of R the barrier at 0
    # stays put while R shrinks under it
    s = make_spec(R=0.05, psi="0.4*s*(1-s^2)^(-0.25)")
    report = check_A2(s)
    assert not report.passed
    assert any(f.check == "A2.R>=sigma(0)" for f in report.failures)


def test_a2_minorant_violation_detected(make_spec):
    s = make_spec(psi="10 + 0*s")  # f cannot dominate the constant 10 near t=0
    report = check_A2(s)
    assert not report.passed
    assert any(f.check == "A2.minorant" for f in report.failures)


def test_check_A2_evaluates_q_once_per_refinement_mesh(spec, monkeypatch):
    # int q and int q u(sigma_R) share each mesh's q values: one call per
    # mesh (512, then 1024 cells), where one per integral and mesh took four
    sizes = []
    original = ProblemSpec.q_at

    def counted(self, s):
        sizes.append(np.size(s))
        return original(self, s)

    monkeypatch.setattr(ProblemSpec, "q_at", counted)
    report = check_A2(spec)
    assert report.passed
    # (build_mesh makes one last cell of each steep grading's tail from its
    # first gap of a few ulps near t = 1 on: 510 and 1,020 cells are left)
    assert len(sizes) == 2 and report.operator.tau.size < sizes[0] < sizes[1]


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_size_terms_do_not_depend_on_the_mesh(mu, make_spec):
    # the refinement meshes of I_q and I_qu are REFINE_MESHES whatever the
    # mesh keys, so the size terms of any solver mesh are the default
    # mesh's, bit for bit, and A2 passes (int q = 2/3) at every grading
    # that keeps the solver mesh's cells
    def terms(numerics):
        r = check_A2(make_spec(mu=mu, numerics=numerics))
        assert r.passed, numerics
        return r.I_q, r.I_qu, r.ratio, r.eps_max

    want = terms(NumericsConfig())
    for numerics in (*(NumericsConfig(mesh_cells=c) for c in (512, 2048)),
                     *(NumericsConfig(gamma=g) for g in (1.0, 6.0))):
        assert terms(numerics) == want, numerics


@pytest.mark.parametrize("gamma", [1.0, 3.0, 6.0, 3e4, 4e4, 1e5])
@pytest.mark.parametrize("a", [1.0, 1.2])
def test_divergent_int_q_fails_at_every_grading(a, gamma, make_spec):
    # int_0^1 s (1 - s^2)^(-a) ds diverges for a >= 1, so I_q and I_qu are
    # not finite at any mesh.gamma.  The solver mesh is one the grading keeps
    # whole: 128 cells below gamma 6.854, and one cell at the steep gradings,
    # which merge 128 cells into one (rejected, as the next test checks)
    cells = 128 if gamma < 6.854 else 1
    assert build_mesh(cells, gamma).cells == cells
    report = check_A2(make_spec(q=f"s*(1-s^2)^(-{a})", R=1e4,
                                numerics=NumericsConfig(mesh_cells=cells, gamma=gamma)))
    assert {"A2.I_q_finite", "A2.I_qu_finite"} <= {f.check for f in report.failures}


@pytest.mark.parametrize("gamma, kept", [(7.0, 127), (500.0, 9), (1e3, 5), (3e4, 1),
                                         (4e4, 1), (1e5, 1)])
def test_a_grading_that_merges_solver_cells_is_rejected(gamma, kept, make_spec):
    # build_mesh makes the tail from a steep grading's first gap of a few
    # ulps near t = 1 one cell; the solver mesh must keep all 128, or the
    # solve would run on `kept` cells (below gamma 6.854 it keeps them all)
    assert build_mesh(128, gamma).cells == kept
    spec = make_spec(numerics=NumericsConfig(gamma=gamma))
    with pytest.raises(MeshError, match=f"^key 'mesh.gamma': a grading of {gamma:g} "
                                        f"merges the 128 mesh cells into {kept}; "):
        check_A2(spec)


def test_q_failure_names_one_subexpression(make_spec):
    # q fails at two subexpressions; the vector evaluation of q meets
    # sqrt(0.5 - s) first, and both integrals report that one error
    report = check_A2(make_spec(q="sqrt(0.5 - s) + sqrt(s - 0.001) + s*(1-s^2)^(-0.25)"))
    details = {f.check: f.detail for f in report.failures}
    assert details["A2.I_q_finite"] == details["A2.I_qu_finite"] == (
        "integration failed: square root of a negative value in subexpression "
        "'sqrt(0.5 - s)'")


def test_zero_size_denominator_is_named(make_spec):
    # q = 0 makes I_qu = 0: R / (c (1 + v(R)/u(R)) I_qu) is no ratio to
    # test, and the failure names the denominator, not "ratio=inf"; with no
    # ratio there is no slack eps_max either
    report = check_A2(make_spec(f="0*x", q="0*s", psi="0*s", u="exp(-x)", v="x"))
    assert report.I_qu == 0.0
    assert [str(f) for f in report.failures] == [
        "[A2.ratio] size condition requires a positive denominator "
        "c (1 + v(R)/u(R)) I_qu (at denominator=0)"]
    assert np.isnan(report.ratio) and np.isnan(report.eps_max)


@pytest.mark.parametrize("u,error", [
    # u(R) = 0 divides v(R) by zero
    ("x - 100", "float division by zero"),
    # sqrt(99.9 - x) is defined at the barrier's values but not at R = 100
    ("x^(-0.25) + 0*sqrt(99.9 - x)", "square root of a negative value in subexpression "
                                    "'sqrt(99.9 - x)'"),
])
def test_undefined_size_ratio(u, error, make_spec):
    # the ratio needs u(R): when that raises, the ratio is nan and the one
    # ratio failure says why, without a witness
    report = check_A2(make_spec(u=u))
    ratio = [str(f) for f in report.failures if f.check == "A2.ratio"]
    assert ratio == [f"[A2.ratio] ratio undefined: {error}"]
    assert np.isnan(report.ratio) and np.isnan(report.eps_max)


def test_report_reproducible(spec):
    r1 = check_A2(spec)
    r2 = check_A2(spec)
    assert r1.I_q == r2.I_q
    assert r1.I_qu == r2.I_qu
    assert r1.ratio == r2.ratio
    assert np.array_equal(r1.sigma, r2.sigma)
