import math

import numpy as np
import pytest

from cfbvp.cli import main
from cfbvp.green import GreenOperator, rate_of
from cfbvp.endpoint import endpoint_exponents
from cfbvp.hypotheses import (SIZE_MESH, NumericsConfig, ProblemSpec, check_A1, check_A2,
                              sigma_R)
from cfbvp.problem_io import parse_problem_text
from cfbvp.quadrature import MeshError, build_mesh
from test_manufactured import manufactured_text


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


@pytest.mark.parametrize("u", ["x^(-0.25)", "max(x^(-0.25), 0)"], ids=["u_read", "u_unread"])
def test_check_A2_builds_two_operators_and_evaluates_q_once(u, make_spec, monkeypatch):
    # whether the exponents are read (the worked family) or not (max is
    # unread), check_A2 builds the solver mesh's operator, then SIZE_MESH's,
    # and int q and int q u(sigma_R) share one evaluation of q on SIZE_MESH
    # (128 uniform cells, then the last one halved 33 times toward t = 1)
    built, sizes = [], []
    original_init, original_q = GreenOperator.__init__, ProblemSpec.q_at

    def counted_init(self, mu, mesh, beta=None):
        built.append(mesh.cells)
        original_init(self, mu, mesh, beta)

    def counted_q(self, s):
        sizes.append(np.size(s))
        return original_q(self, s)

    monkeypatch.setattr(GreenOperator, "__init__", counted_init)
    monkeypatch.setattr(ProblemSpec, "q_at", counted_q)
    report = check_A2(make_spec(u=u))
    assert (report.exponents.u is None) == u.startswith("max")
    assert (SIZE_MESH.cells, SIZE_MESH.flat_nodes.size) == (161, 1288)
    assert built == [128, 161]
    assert sizes == [8 * 161]


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_size_terms_do_not_depend_on_the_mesh(mu, make_spec):
    # the mesh of I_q and I_qu is SIZE_MESH whatever the
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
    # which refuse 128 cells (as the next test checks)
    cells = 128 if gamma < 6.854 else 1
    assert build_mesh(cells, gamma).cells == cells
    report = check_A2(make_spec(q=f"s*(1-s^2)^(-{a})", R=1e4,
                                numerics=NumericsConfig(mesh_cells=cells, gamma=gamma)))
    assert {"A2.I_q_finite", "A2.I_qu_finite"} <= {f.check for f in report.failures}


@pytest.mark.parametrize("gamma, kept", [(7.0, 127), (500.0, 9), (1e3, 5), (3e4, 1),
                                         (4e4, 1), (1e5, 1)])
def test_a_grading_that_merges_solver_cells_is_rejected(gamma, kept, make_spec):
    # a steep grading's gaps near t = 1 fall to a few ulps after `kept` of
    # the 128 cells (below gamma 6.854 they never do); the solver mesh is
    # then refused, naming the key
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


def _family(make_spec, a, b, **overrides):
    """The worked family with q = s (1-s^2)^(-a), u = x^(-b) and psi alike."""
    return make_spec(**{"f": f"abs(t)*(1-t^2)^(-{a!r})*x^(-{b!r})", "q": f"s*(1-s^2)^(-{a!r})",
                        "u": f"x^(-{b!r})", "v": f"x^({b!r})",
                        "psi": f"s*(1-s^2)^(-{a!r})*R^(-{b!r})", **overrides})


@pytest.mark.parametrize("a, b", [(0.25, 0.25), (0.5, 0.25), (0.1, 0.3), (0.8, 0.5), (0.6, 1.5)])
def test_exponents_of_the_worked_family(a, b, make_spec):
    # q ~ 2^-a d^-a and psi alike, so sigma_R ~ d^(1-a) and q u(sigma_R) ~
    # d^-(a + b (1-a)): the benchmark family's beta_qu.  (0.25, 0.25) is
    # problems/worked_family.prob
    exps = endpoint_exponents(_family(make_spec, a, b))
    assert (exps.q, exps.psi, exps.u) == (-a, -a, -b)
    assert exps.beta_q == a
    assert math.isclose(exps.beta_qu, a + b * (1.0 - a), rel_tol=1e-15)


@pytest.mark.parametrize("mu, A, a, b", [(1.5, 1.0, 0.25, 0.25), (1.9, 0.1, 0.25, 0.25),
                                         (1.5, 1.0, 0.4, 0.3)])
def test_exponents_of_the_manufactured_member(mu, A, a, b):
    # q ~ F(1) x*^-a / 2 and psi ~ x*^b: sigma_R ~ d, and I_qu's integrand
    # behaves like d^-(a + b).  (1.5, 1, 0.25, 0.25) is problems/manufactured.prob
    exps = endpoint_exponents(parse_problem_text(manufactured_text(mu, A, a, b)))
    assert (exps.q, exps.psi, exps.u) == (-a, b, -b)
    assert math.isclose(exps.beta_qu, a + b, rel_tol=1e-15)


def test_unread_exponent_is_not_shown_finite(make_spec):
    # |s - 0.5|^-1.5 is not integrable at s = 0.5, inside the domain: its
    # base is not shown positive, so q's exponent is unread and neither
    # integral is shown finite, whatever the plain rule's values
    report = check_A2(make_spec(q="s*(1-s^2)^(-0.25) + abs(s - 0.5)^(-1.5)"))
    assert report.exponents.q is None and report.exponents.psi == report.exponents.u == -0.25
    assert [str(f) for f in report.failures[:2]] == [
        "[A2.I_q_finite] int q not shown finite: the exponent of q at s = 1 is unread",
        "[A2.I_qu_finite] int q*u(sigma_R) not shown finite: the exponent of q at s = 1 "
        "is unread"]
    assert np.isfinite(report.I_q) and np.isfinite(report.I_qu)


@pytest.mark.parametrize("psi, u, unread", [
    ("s*(1-s^2)^(-0.25)*R^(-0.25)", "max(x^(-0.25), 0)", "the exponent of u at x = 0 is unread"),
    ("min(s*(1-s^2)^(-0.25)*R^(-0.25), 1e9)", "max(x^(-0.25), 0)",
     "the exponents of psi at s = 1 and u at x = 0 are unread"),
], ids=["u_unread", "psi_and_u_unread"])
def test_I_q_needs_only_the_exponent_of_q(psi, u, unread, make_spec):
    # int_0^1 s (1 - s^2)^(-1/4) ds = 2/3 from q's own exponent, on the last
    # cell's exact rule, whatever psi and u read; int q u(sigma_R) needs all
    # three exponents, and its failure names the unread ones
    report = check_A2(make_spec(psi=psi, u=u))
    assert report.exponents.beta_q == 0.25 and report.exponents.beta_qu is None
    assert abs(report.I_q - 2.0 / 3.0) <= 1e-10
    assert [str(f) for f in report.failures] == [
        f"[A2.I_qu_finite] int q*u(sigma_R) not shown finite: {unread}"]
    assert 0.0 < report.I_qu < np.inf and report.ratio > 1.0


def test_a_zero_q_makes_both_integrals_finite(make_spec):
    # q folds to exactly 0, so int q = int q u(sigma_R) = 0 whatever psi and
    # u read (min and max leave both unread)
    report = check_A2(make_spec(q="0*s", psi="0*min(s, 1)", u="max(exp(-x), 0.5)"))
    exps = report.exponents
    assert (exps.q, exps.psi, exps.u) == (math.inf, None, None)
    assert exps.beta_q == exps.beta_qu == -math.inf
    assert report.I_q == report.I_qu == 0.0
    assert not {"A2.I_q_finite", "A2.I_qu_finite"} & {f.check for f in report.failures}


@pytest.mark.parametrize("a, b, beta", [(0.5, 0.25, 0.625), (0.5, 0.5, 0.75), (0.8, 0.5, 0.9),
                                        (0.5, 1.0, 1.0), (0.6, 1.5, 1.2)])
def test_I_qu_is_finite_iff_its_exponent_is_below_one(a, b, beta, make_spec):
    # beta = a + b (1 - a) from the closed forms; the refinement test that
    # decided unread exponents until they became "not shown" called
    # beta = 0.625 divergent (change 9.6e-8 between 510 and 1,020 cells) and
    # could not tell 0.9 (3.6e-4) from 1 (2e-2)
    report = check_A2(_family(make_spec, a, b))
    assert math.isclose(report.exponents.beta_qu, beta, rel_tol=1e-15)
    finiteness = [str(f) for f in report.failures if f.check == "A2.I_qu_finite"]
    if beta < 1.0:
        assert finiteness == [] and 0.0 < report.I_qu < np.inf
    else:
        assert finiteness == [f"[A2.I_qu_finite] int q*u(sigma_R) diverges: its integrand "
                              f"behaves like (1 - t)^(-beta) at t = 1 (at beta={beta:.6g})"]
        assert report.I_qu == np.inf and report.ratio == 0.0
    # the benchmark's probe: ratio 2.88, so A2 passes
    assert report.passed == (beta == 0.625)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 2.0 / 3.0, 0.8, 0.9])
def test_I_q_matches_its_closed_form(a, make_spec):
    # int_0^1 s (1 - s^2)^(-a) ds = 1 / (2 (1 - a)); a last-cell exponent off
    # by 0.02 leaves 5.8e-9 at a = 0.5, and the Gauss rule 6.9e-8 there.
    # SIZE_MESH's error grows with a, to 9.0e-9 at a = 0.9
    report = check_A2(make_spec(q=f"s*(1-s^2)^(-{a!r})"))
    want = 0.5 / (1.0 - a)
    assert abs(report.I_q - want) <= (1e-10 if a <= 0.5 else 2e-8) * want


@pytest.mark.parametrize("mu, tol", [(1.5, 1e-12), (1.9, 1e-12), (1.99, 1e-12),
                                     (1.9985, 1e-7)])
def test_I_qu_matches_the_converged_reference_at_high_order(mu, tol, reference, make_spec):
    # the worked family at R = 1e4 against the benchmark's Nystrom barrier on
    # 2,048 cells, which moves at most 9.4e-13 from 1,024 cells; at
    # mu = 1.9985 (lambda = 666) SIZE_MESH is 2.7e-8 off
    want = reference.family_size_terms(mu, 1e4, 0.25, 0.25, cells=2048)["I_qu"]
    report = check_A2(make_spec(mu=mu, R=1e4))
    assert abs(report.I_qu - want) <= tol * want


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.8])
def test_the_barrier_on_SIZE_MESH_is_positive_at_lambda_703(a, make_spec):
    # at mu = 1.99858 the kernel decays like e^(-703 |t - tau|); on a
    # positive psi the barrier at every node of SIZE_MESH, with psi's
    # exponent in the last cell, stays positive (down to 1.4e-13 at a = 0.1),
    # so u(sigma_R) never meets the clamp at 0
    spec = make_spec(mu=1.99858, psi=f"s*(1-s^2)^(-{a!r})*R^(-0.25)")
    op = GreenOperator(spec.mu, SIZE_MESH, a)
    assert np.all(sigma_R(spec, op)[len(op.grid):] > 0.0)
