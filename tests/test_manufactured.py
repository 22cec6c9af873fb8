"""The manufactured member: a problem whose symmetric positive solution is
known in closed form, x*(t) = A (1 - t^2).

On [0, 1) the equation reads int_0^t e^{-lam(t-tau)} (x'' - lam^2 x) dtau
= -f(t, x(t)).  For x* the left side is -F(t) with
F(t) = A [lam (1 - t^2 - e^{-lam t}) + 2t], so
f(t, x) = F(|t|) [(x*(t)/x)^b / 2 + (x/x*(t))^a / 2] has f(t, x*(t)) = F(|t|).
It is bounded by q (u + v) with q = F [x*^b / 2 + x*^{-a} / 2], u = x^{-b}
and v = x^a, and from below by psi = F x*^b R^{-b} / 2.  The integrand of
I_qu behaves like (1 - s)^{-(a + b)} at s = 1.

Every expected value here comes from x* and F, never from the program.
"""

from pathlib import Path

import numpy as np
import pytest

from cfbvp.cli import EXIT_OK, main
from cfbvp.green import GreenOperator
from cfbvp.problem_io import load_problem, parse_problem_text
from cfbvp.quadrature import build_mesh
from cfbvp.solver import solve

SHIPPED = Path(__file__).resolve().parents[1] / "problems" / "manufactured.prob"

NUMERICS = """\
mesh.cells = 128
mesh.gamma = 3
solver.m_schedule = 16,32,64,128
solver.omega = 1.0
solver.inner_tol = 1e-10
solver.inter_m_tol = 0.05
"""


def manufactured_text(mu, A, a, b, R=100.0) -> str:
    """The problem file of the member with solution A (1 - t^2), order mu and
    exponents a (of v) and b (of u)."""
    lam = (mu - 1.0) / (2.0 - mu)
    F = lambda v: f"{A!r}*({lam!r}*(1 - {v}^2 - exp(-{lam!r}*{v})) + 2*{v})"
    x_star = lambda v: f"({A!r}*(1 - {v}^2))"
    return (f"mu = {mu!r}\nR = {R!r}\n"
            f"f = {F('abs(t)')}*(0.5*({x_star('t')}/x)^({b!r}) "
            f"+ 0.5*(x/{x_star('t')})^({a!r}))\n"
            f"q = {F('s')}*(0.5*{x_star('s')}^({b!r}) + 0.5*{x_star('s')}^(-{a!r}))\n"
            f"u = x^(-{b!r})\n"
            f"v = x^({a!r})\n"
            f"psi = {F('s')}*0.5*{x_star('s')}^({b!r})*R^(-{b!r})\n" + NUMERICS)


def _problem_file(tmp_path, mu, A, a=0.25, b=0.25):
    path = tmp_path / f"manufactured_{mu}_{A}.prob"
    path.write_text(manufactured_text(mu, A, a, b))
    return path


def test_shipped_file_is_the_generated_member():
    shipped = load_problem(SHIPPED)
    generated = parse_problem_text(manufactured_text(1.5, 1.0, 0.25, 0.25))
    assert (shipped.mu, shipped.R, shipped.numerics) == \
        (generated.mu, generated.R, generated.numerics)
    t = np.linspace(-0.999, 0.999, 37)[:, None]
    s = np.abs(t[:, 0])
    x = np.geomspace(1e-3, 1e2, 11)
    for name, got, want in (
            ("f", shipped.f_at(t, x), generated.f_at(t, x)),
            ("q", shipped.q_at(s), generated.q_at(s)),
            ("u", shipped.u_at(x), generated.u_at(x)),
            ("v", shipped.v_at(x), generated.v_at(x)),
            ("psi", shipped.psi_at(s), generated.psi_at(s))):
        assert np.allclose(got, want, rtol=1e-14, atol=0.0), name


@pytest.mark.parametrize("mu", [1.2, 1.5, 1.9])
def test_exact_solution_is_a_fixed_point(mu):
    # f(t, x*(t)) = F(t) and the Green operator maps F to x*: the member's
    # text and the operator together reproduce x* at every point
    A = 1.0
    spec = parse_problem_text(manufactured_text(mu, A, 0.25, 0.25))
    op = GreenOperator(mu, build_mesh(spec.numerics.mesh_cells))
    x_star = lambda t: A * (1.0 - t * t)
    x = op.apply(spec.f_at(op.tau, x_star(op.tau)))
    assert np.max(np.abs(x - x_star(op.points))) <= 2e-14 * A


@pytest.mark.parametrize("mu", [1.2, 1.5])
def test_check_passes(tmp_path, capsys, mu):
    path = SHIPPED if mu == 1.5 else _problem_file(tmp_path, mu, 1.0)
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "A2 passed = True" in capsys.readouterr().out


def test_solve_is_the_regularization_of_the_exact_solution():
    # the m = 128 level solves the clamped equation, whose argument is
    # x + 1/m: it sits above x* by the regularization error, under 1e-3
    report = solve(load_problem(SHIPPED))
    assert report.status == "converged"
    points = report.hypothesis.operator.points
    assert np.max(np.abs(report.x - (1.0 - points ** 2))) < 1e-3


def test_check_passes_at_high_order(tmp_path, capsys):
    # I_qu's integrand behaves like (1 - s)^-(a + b): the exponent read from
    # q, psi and u decides its finiteness exactly, where the refinement test
    # that preceded it (a change of 1.03e-8 between 510 and 1,020 cells) did not
    assert main(["check", str(_problem_file(tmp_path, 1.9, 0.1))]) == EXIT_OK
    assert "beta_qu = 0.5\n" in capsys.readouterr().out
