"""End-to-end acceptance checks, one per published criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and then asserts, so the suite doubles as a
human-readable acceptance report.
"""

import math
import pathlib

import numpy as np
import pytest
import scipy.integrate

from cfbvp.cli import main as cli_main
from cfbvp.green import GreenOperator, green_diagonal_jump, green_eval, rate_of
from cfbvp.hypotheses import check_A1, check_A2
from cfbvp.problem_io import load_problem
from cfbvp.quadrature import build_mesh
from cfbvp.solver import solve
from linear_oracles import (LocalQuartic, cf_left, cf_right, general_solution_right_half,
                            residual_linear)

MUS = (1.2, 1.5, 1.8)
PROBLEM_FILE = pathlib.Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"


def _report(num: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d}: {status} — {label}{suffix}")
    assert passed, f"criterion {num} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def spec():
    return load_problem(PROBLEM_FILE)


@pytest.fixture(scope="module")
def solve_report(spec):
    return solve(spec)


def test_criterion_01_kernel_symmetry():
    t, tau = np.meshgrid(np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 201),
                         indexing="ij")
    worst = max(float(np.max(np.abs(green_eval(mu, t, tau) - green_eval(mu, -t, -tau))))
                for mu in MUS)
    _report(1, "kernel reflection symmetry is exact on both half squares",
            worst == 0.0, f"max |G(t,tau) - G(-t,-tau)| = {worst:g}")


def test_criterion_02_boundary_zeros():
    taus = np.linspace(0.0, 1.0, 201)
    worst = max(float(np.max(np.abs(green_eval(mu, t, t * taus))))
                for mu in MUS for t in (1.0, -1.0))
    _report(2, "kernel vanishes at t = +-1", worst <= 1e-14,
            f"max |G(+-1, tau)| = {worst:g}")


def test_criterion_03_diagonal_jump():
    ts = np.linspace(-1.0, 1.0, 101)
    worst = max(float(np.max(np.abs(green_diagonal_jump(mu, ts) - 1.0))) for mu in MUS)
    _report(3, "diagonal jump equals 1 (kernel is not continuous there)",
            worst <= 1e-12, f"max |jump - 1| = {worst:g}")


def test_criterion_04_sup_audit():
    worst = 0.0
    exceeds = True
    g = np.linspace(0.0, 1.0, 401)
    for mu in MUS:
        lam = rate_of(mu)
        closed = 2.0 / (1.0 + math.exp(-2.0 * lam))
        # the max over the grid, both diagonal sides
        sup = max(float(np.max(green_eval(mu, g[:, None], g[None, :], side=side)))
                  for side in ("lower", "upper"))
        worst = max(worst, abs(sup - closed))
        exceeds = exceeds and sup > 1.0
    _report(4, "kernel sup matches 2/(1+e^{-2 lam}) and exceeds 1",
            worst <= 1e-6 and exceeds, f"max |sup - closed form| = {worst:g}")


def test_criterion_05_cf_derivative_oracle():
    mesh = build_mesh(256)
    worst_rel = 0.0
    worst_affine = 0.0
    xpp = lambda s: 2.0 + 0.0 * np.asarray(s)
    zero = lambda s: 0.0 * np.asarray(s)
    at = [64, 128, 256]  # the breakpoints t = 0.25, 0.5, 1
    t = mesh.breakpoints[at]
    for mu in MUS:
        lam = rate_of(mu)
        want = 2.0 * (1.0 - np.exp(-lam * t)) / (mu - 1.0)
        # cf_right reads the left half in ascending order: -t is at -1 - i
        for got in (cf_left(xpp, mu, mesh)[at], cf_right(xpp, mu, mesh)[[-1 - i for i in at]]):
            worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / want)))
        for op in (cf_left, cf_right):
            worst_affine = max(worst_affine, float(np.max(np.abs(op(zero, mu, mesh)))))
    _report(5, "left/right derivatives of t^2 match the closed form; "
               "affine inputs are annihilated",
            worst_rel <= 1e-10 and worst_affine <= 1e-13,
            f"max rel err = {worst_rel:g}, max affine residual = {worst_affine:g}")


def test_criterion_06_homogeneous_residuals():
    lam = rate_of(1.5)
    fns = (lambda s: np.cosh(lam * np.asarray(s)),
           lambda s: np.sinh(lam * np.asarray(s)))
    zero = lambda s: 0.0 * np.asarray(s)
    mesh = build_mesh(512)
    worst = 0.0
    for half in ("right", "left"):
        for fn in fns:
            worst = max(worst, float(np.max(np.abs(residual_linear(1.5, fn, zero, mesh,
                                                                   half=half)))))
    # decay under doubling: limited by the local quartic's second derivative
    # (O(h^3)), not the Gauss-rule order
    sups = []
    for cells in (128, 256, 512):
        mesh = build_mesh(cells)
        sups.append(np.max(np.abs(residual_linear(1.5, fns[0], zero, mesh, half="right"))))
    factors = [a / b for a, b in zip(sups, sups[1:])]
    _report(6, "homogeneous solutions have tiny defect and the defect "
               "decreases under mesh doubling",
            worst <= 1e-8 and all(f >= 4.0 for f in factors),
            f"sup defect = {worst:g}, doubling factors = "
            + ", ".join(f"{f:.1f}" for f in factors))


def test_criterion_07_linear_bvp(quad_green, slope_at_zero):
    mu = 1.5
    mesh = build_mesh(256)
    y = LocalQuartic(mesh.breakpoints, mesh.breakpoints ** 2)
    op = GreenOperator(mu, mesh)
    values = op.apply(y(op.tau))[:len(op.grid)]
    bnd = abs(values[-1])
    # x is even, so flat at zero: x'(0+) = -y(0) = 0.  On the uniform mesh
    # the one-sided difference of the breakpoint values differs from x'(0)
    # by at most h^2 max |x'''| on [0, 2h] (Taylor remainder), and x'''
    # = lam^2 x' - lam y' - y'' is -2 + O(h) there (lam = 1, y = t^2,
    # |x| < 2/3): |slope| <= h^2 (2 + 6h)
    h = float(mesh.breakpoints[1])
    flat = h * h * (2.0 + 6.0 * h)
    slope = slope_at_zero(*values[:3], h)
    # independent oracle: adaptive quadrature of the kernel against s^2
    discrepancy = float(np.max(np.abs(
        values - quad_green(mu, lambda s: s * s, mesh.breakpoints))))
    ok_smooth = bnd <= 1e-12 and abs(slope) <= flat and discrepancy <= 1e-12

    # forcing with y(0) != 0 breaks the corner condition: the even extension
    # of the boundary-fitted profile has one-sided slope -y(0) = -1 at 0+,
    # which the flatness check above rejects
    lam = rate_of(mu)
    b1 = (math.exp(lam) - 1.0) / (lam * math.cosh(lam))
    deriv = slope_at_zero(*general_solution_right_half(mu, b1, 0.0, lambda s: 1.0, mesh)[:3], h)
    ok_counter = abs(deriv - (-1.0)) <= 1e-3 and abs(deriv) > flat
    _report(7, "quadratic forcing gives a flat-at-zero solution; constant "
               "forcing produces the corner slope -1",
            ok_smooth and ok_counter,
            f"|x(+-1)| = {bnd:g}, |x'(0+)| = {abs(slope):g} <= {flat:g}, "
            f"quadrature discrepancy = {discrepancy:g}, "
            f"corner slope = {deriv:.6f}")


def test_criterion_08_hypothesis_checker(spec):
    a1 = check_A1(spec)
    a2 = check_A2(spec)

    # independent oracle for I_qu: adaptive quadrature with the w = sqrt(1-s)
    # substitution removing the endpoint singularity, against the same barrier
    # read between its breakpoints by the local quartic
    grid = a2.operator.grid
    sigma = LocalQuartic(grid, a2.sigma[:len(grid)])

    def integrand_w(w):
        s = 1.0 - w * w
        return 2.0 * w * spec.q_at(s) * spec.u_at(max(float(sigma(s)), 1e-300))

    I_qu_oracle, err = scipy.integrate.quad(integrand_w, 0.0, 1.0, limit=200)
    ratio_oracle = spec.R / (a2.c_kernel * (1.0 + spec.v_at(spec.R) / spec.u_at(spec.R))
                             * I_qu_oracle)
    close = abs(a2.I_qu - I_qu_oracle) <= 1e-4
    _report(8, "worked family passes both assumption checks with ratio > 1",
            a1.passed and a2.passed and a2.ratio > 1.0 and a2.eps_max > 0.0
            and close and ratio_oracle > 1.0,
            f"ratio = {a2.ratio:.4f} (oracle {ratio_oracle:.4f}), "
            f"eps_max = {a2.eps_max:.4f}, |I_qu - oracle| = {abs(a2.I_qu - I_qu_oracle):.2e}")


def test_criterion_09_nonlinear_solve(spec, solve_report, slope_at_zero):
    rep = solve_report
    grid = rep.hypothesis.operator.grid
    n = len(grid)
    lb_ok = bool(np.all(rep.x >= rep.hypothesis.sigma - 1e-9))
    ub_ok = bool(np.all(rep.x <= spec.R - rep.eps + 1e-9))
    # x is even, so flat at zero.  The one-sided difference differs from
    # x'(0+) by at most h^2 max |x'''| on [0, 2h]; x''' = lam^2 x' - lam y'
    # - y'' with y = f(t, x + 1/m) is -lam (x(0) + 1/m)^(-1/4) at 0, at most
    # lam m^(1/4) for x >= 0, and moves by O(h) across [0, 2h], which the
    # factor 2 covers.  2h stays in the first cell of the mesh
    h = 1e-2
    flat = 2.0 * rate_of(spec.mu) * rep.inner[-1].m ** 0.25 * h * h
    at = np.array([0.0, h, 2.0 * h])
    # forcing f + 1 breaks f(0, x) = 0: slope -1 at 0+, which the check rejects
    corner = rep.x[:n] + rep.hypothesis.operator.apply(1.0)[:n]
    symmetric = (abs(slope_at_zero(*LocalQuartic(grid, rep.x[:n])(at), h)) <= flat
                 and abs(slope_at_zero(*LocalQuartic(grid, corner)(at), h)) > flat)
    positive = bool(np.all(rep.x[:n - 1] > 0.0))
    devs = rep.inter_m_deviations
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    # the residual is measured against the regularized equation actually
    # iterated (final m); the unregularized-limit residual carries an
    # irreducible O(1/m) offset and is reported as a diagnostic
    res_ok = rep.residual_sup <= 1e-6
    _report(9, "regularized fixed-point solve converges within bounds",
            rep.status == "converged" and lb_ok and ub_ok and symmetric
            and positive and monotone and res_ok,
            f"status = {rep.status}, residual sup = {rep.residual_sup:.2e}, "
            f"limit-equation diagnostic = {rep.residual_limit_sup:.2e}, "
            f"deviations = " + ", ".join(f"{d:.4f}" for d in devs))


def test_criterion_10_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["solve", str(PROBLEM_FILE), "--out", str(out)])
        assert code == 0
        outs.append(((out / "solution.csv").read_bytes(),
                     (out / "solve_report.txt").read_bytes()))
    _report(10, "repeated solves produce byte-identical outputs",
            outs[0] == outs[1])
