import math

import numpy as np
import pytest

from cfbvp.cf_derivative import rate_of
from cfbvp.green import GreenOperator, green_sup
from cfbvp.hypotheses import (NumericsConfig, ProblemSpec, check_A1, check_A2,
                              epsilon_max, sigma_R)
from cfbvp.quadrature import build_mesh

WORKED = dict(
    f="abs(t)*(1-t^2)^(-0.25)*x^(-0.25)",
    q="s*(1-s^2)^(-0.25)",
    u="x^(-0.25)",
    v="x^(0.25)",
    psi="s*(1-s^2)^(-0.25)*R^(-0.25)",
)


def make_spec(mu=1.5, R=100.0, numerics=None, **overrides):
    kw = dict(WORKED)
    kw.update(overrides)
    return ProblemSpec.from_strings(mu=mu, R=R, numerics=numerics, **kw)


@pytest.fixture(scope="module")
def spec():
    return make_spec()


@pytest.fixture(scope="module")
def a2_report(spec):
    return check_A2(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(R=-1.0)
    with pytest.raises(ValueError):
        make_spec(mu=2.5)
    with pytest.raises(ValueError):
        make_spec(f="x + s")  # s not allowed in f


def test_sigma_constant_profile_oracle():
    # psi = 1: sigma(0) = int_0^1 e^{lam(1-s)} / cosh(lam) ds
    #        = (e^lam - 1) / (lam cosh(lam))
    s = make_spec(psi="1")
    sig = sigma_R(s, GreenOperator(s.mu, s.default_mesh()))
    lam = rate_of(1.5)
    want = (math.exp(lam) - 1.0) / (lam * math.cosh(lam))
    assert abs(float(sig(0.0)) - want) <= 1e-10


def test_sigma_zero_profile():
    s = make_spec(psi="0*s")
    sig = sigma_R(s, GreenOperator(s.mu, s.default_mesh()))
    assert np.all(sig.values == 0.0)


def test_sigma_vanishes_at_one(spec):
    sig = sigma_R(spec, GreenOperator(spec.mu, spec.default_mesh()))
    assert sig.values[-1] == 0.0
    assert np.all(sig.values >= 0.0)
    # even extension is structural
    assert sig(-0.375) == sig(0.375)


def test_sigma_monotone_in_profile():
    op = GreenOperator(1.5, make_spec().default_mesh())
    lo = sigma_R(make_spec(psi="s"), op)
    hi = sigma_R(make_spec(psi="s + 0.5"), op)
    assert np.all(hi.values >= lo.values - 1e-15)


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_sigma_refinement_order(mu):
    # the graded breakpoints nest (1 - (1 - j/N)^3 is node 2j of the 2N
    # mesh); with psi ~ (1 - s)^(-1/4) the barrier converges at order
    # gamma (1 - 1/4) = 2.25, a factor 4.76 per doubling
    spec = make_spec(mu=mu)
    sigmas = [sigma_R(spec, GreenOperator(mu, build_mesh(0.0, 1.0, cells, 3.0, "right")))
              for cells in (64, 128, 256, 512)]
    diffs = []
    for coarse, fine in zip(sigmas, sigmas[1:]):
        assert np.array_equal(coarse.nodes, fine.nodes[::2])
        diffs.append(np.max(np.abs(coarse.values - fine.values[::2])))
    assert diffs[0] / diffs[1] >= 4.0
    assert diffs[1] / diffs[2] >= 4.0


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.9, 1.975])
def test_a2_kernel_bound_is_the_audited_sup(mu):
    assert check_A2(make_spec(mu=mu)).c_kernel == green_sup(mu, 401)


def test_a1_worked_family_passes(spec):
    report = check_A1(spec)
    assert report.passed, [str(f) for f in report.failures][:5]


def test_a1_majorant_example():
    # |t * x| <= |t| (1/x + x) for x > 0
    s = make_spec(f="abs(t)*x", q="s", u="1/x", v="x", psi="0*s")
    assert check_A1(s).passed


def test_a1_odd_nonlinearity_fails():
    s = make_spec(f="t*x")
    report = check_A1(s)
    assert not report.passed
    assert any(f.check == "A1.even" for f in report.failures)
    witness = next(f for f in report.failures if f.check == "A1.even")
    assert "t" in witness.witness


def test_a1_nonzero_at_origin_fails():
    s = make_spec(f="1 + abs(t)")
    report = check_A1(s)
    assert not report.passed
    assert any(f.check == "A1.f(0,x)=0" for f in report.failures)


def test_a1_monotonicity_checks():
    s = make_spec(u="x", v="x")  # u increasing: violates the assumption
    report = check_A1(s)
    assert any(f.check == "A1.u_decreasing" for f in report.failures)


def test_a2_worked_family(a2_report):
    assert a2_report.passed, [str(f) for f in a2_report.failures][:5]
    assert a2_report.ratio > 1.0
    assert a2_report.eps_max > 0.0
    assert abs(a2_report.I_q - 2.0 / 3.0) <= 1e-9  # closed form of int q
    assert a2_report.c_kernel > 1.0
    # the identity eps_max = R (1 - 1/ratio)
    assert abs(a2_report.eps_max - 100.0 * (1.0 - 1.0 / a2_report.ratio)) <= 1e-8


@pytest.mark.parametrize("mu", [1.5, 1.9])
def test_I_qu_matches_independent_nystrom(mu, family_nystrom):
    # I_qu = int q u(sigma_R) at the default 128 cells against the test
    # suite's own Nystrom barrier (256 cells, grading 6, 12 nodes per cell;
    # converged to ~1e-10); reading sigma_R through a spline of its
    # breakpoint values left 3.8e-5 (mu = 1.5) and 3.0e-5 (mu = 1.9)
    want = family_nystrom(mu, 100.0, 0.25, 0.25).I_qu()
    got = check_A2(make_spec(mu=mu)).I_qu
    assert abs(got - want) <= 1e-8 * want


def test_a2_zero_profile_diverges():
    # psi = 0 makes sigma = 0, so u(sigma) = sigma^{-1/4} is evaluated at 0
    s = make_spec(psi="0*s")
    report = check_A2(s)
    assert not report.passed
    assert any(f.check == "A2.I_qu_finite" for f in report.failures)


def test_a2_small_R_fails_on_barrier():
    # choose R below sigma_R(0); with psi independent of R the barrier at 0
    # stays put while R shrinks under it
    s = make_spec(R=0.05, psi="0.4*s*(1-s^2)^(-0.25)")
    report = check_A2(s)
    assert not report.passed
    assert any(f.check == "A2.R>=sigma(0)" for f in report.failures)


def test_a2_minorant_violation_detected():
    s = make_spec(psi="10 + 0*s")  # f cannot dominate the constant 10 near t=0
    report = check_A2(s)
    assert not report.passed
    assert any(f.check == "A2.minorant" for f in report.failures)


def test_strict_mode_uses_unit_bound():
    s = make_spec(numerics=NumericsConfig(strict_unit_bound=True))
    report = check_A2(s)
    assert report.c_kernel == 1.0
    assert report.strict_unit_bound


def test_epsilon_max(a2_report):
    assert epsilon_max(a2_report) == a2_report.eps_max


def test_epsilon_max_requires_ratio_above_one():
    s = make_spec(R=1.0)
    report = check_A2(s)
    assert not report.passed
    with pytest.raises(ValueError):
        epsilon_max(report)


def test_epsilon_arithmetic():
    # R = 10 with denominator 4 leaves eps_max = 6
    from dataclasses import replace
    base = check_A2(make_spec())
    doctored = replace(base, ratio=2.5, eps_max=10.0 - 4.0)
    assert epsilon_max(doctored) == 6.0


def test_report_reproducible(spec):
    r1 = check_A2(spec)
    r2 = check_A2(spec)
    assert r1.I_q == r2.I_q
    assert r1.I_qu == r2.I_qu
    assert r1.ratio == r2.ratio
    assert np.array_equal(r1.sigma.values, r2.sigma.values)
