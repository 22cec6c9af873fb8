import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cfbvp import problem_io
from cfbvp.cli import (_ROWS_PER_WRITE, EXIT_HYPOTHESIS, EXIT_OK, EXIT_SOLVER,
                       EXIT_USAGE, _solution_csv, main)
from cfbvp.green import green_diagonal_jump, green_eval, kernel_bound, rate_of
from cfbvp.hypotheses import NUMERIC_KEYS, NumericsConfig, ProblemSpec, check_A2
from cfbvp.problem_io import (ProblemFileError, load_problem,
                              parse_problem_text)
from cfbvp.quadrature import build_mesh
from cfbvp.solver import solve

ROOT = Path(__file__).resolve().parents[1]

WORKED_TEXT = """\
# worked singular family
mu = 1.5
R = 100
f = abs(t)*(1-t^2)^(-0.25)*x^(-0.25)
q = s*(1-s^2)^(-0.25)
u = x^(-0.25)
v = x^(0.25)
psi = s*(1-s^2)^(-0.25)*R^(-0.25)
mesh.cells = 64
solver.m_schedule = 16,32,64
"""


@pytest.fixture()
def problem_file(tmp_path):
    p = tmp_path / "worked.prob"
    p.write_text(WORKED_TEXT)
    return p


# ---------------------------------------------------------------- problem_io

def test_parse_problem_text():
    spec = parse_problem_text(WORKED_TEXT)
    assert spec.mu == 1.5
    assert spec.R == 100.0
    assert spec.numerics.mesh_cells == 64
    assert spec.numerics.m_schedule == (16, 32, 64)
    assert spec.numerics.gamma == 3.0  # default preserved


def test_parse_overrides():
    spec = parse_problem_text(WORKED_TEXT, {"mesh_cells": 32, "gamma": 2.0})
    assert spec.numerics.mesh_cells == 32
    assert spec.numerics.gamma == 2.0


def _schedule(text, schedule):
    return text.replace("solver.m_schedule = 16,32,64", f"solver.m_schedule = {schedule}")


@pytest.mark.parametrize("mutation,fragment", [
    (lambda t: t.replace("R = 100\n", ""), "missing required key"),
    (lambda t: t + "bogus.key = 1\n", "unknown key"),
    # the kernel bound is the kernel's corner value: no grid to configure
    (lambda t: t + "kernel.sup_grid = 401\n", "unknown key(s): kernel.sup_grid"),
    (lambda t: t + "mu = 1.7\n", "duplicate key"),
    (lambda t: t.replace("mu = 1.5", "mu = fast"), "mu"),
    (lambda t: t.replace("q = s*(1-s^2)^(-0.25)", "q = s*(1-s^2)^(-0.25"), ""),
    (lambda t: t + "this line has no equals sign\n", "key = value"),
    (lambda t: t.replace("solver.m_schedule = 16,32,64",
                         "solver.m_schedule = 16,x"), "m_schedule"),
    # the lattice density is a constant, hypotheses.LATTICE_DENSITY: the key
    # is unknown at its old default, at the golden's 9 and at any other value
    (lambda t: t + "checks.lattice_density = 41\n", "checks.lattice_density"),
    (lambda t: t + "checks.lattice_density = 9\n", "checks.lattice_density"),
    (lambda t: t + "checks.lattice_density = 401\n", "checks.lattice_density"),
    # NaN passes no range test; each would otherwise be taken silently
    (lambda t: t + "mesh.gamma = nan\n", "key 'mesh.gamma': must be finite"),
    (lambda t: t + "mesh.gamma = inf\n", "key 'mesh.gamma': must be finite"),
    (lambda t: t + "mesh.gamma = 0.5\n", "key 'mesh.gamma'"),
    (lambda t: t + "solver.inter_m_tol = nan\n", "key 'solver.inter_m_tol'"),
    (lambda t: t + "solver.inner_tol = nan\n", "key 'solver.inner_tol'"),
    (lambda t: t + "solver.inner_tol = -1\n", "key 'solver.inner_tol'"),
    (lambda t: t.replace("R = 100", "R = inf"), "R must be positive and finite"),
    # the A1 lattice samples x up to 10 R
    (lambda t: t.replace("R = 100", "R = 1e308"), "R must keep 10 R finite"),
    # check and solve read one validated config: solve no longer has its own
    (lambda t: t + "solver.omega = nan\n", "key 'solver.omega': must be in (0, 1], got nan"),
    (lambda t: t + "solver.omega = 0\n", "key 'solver.omega': must be in (0, 1]"),
    (lambda t: t + "solver.omega = 1.5\n", "key 'solver.omega': must be in (0, 1]"),
    (lambda t: _schedule(t, "32,16"),
     "key 'solver.m_schedule': must be at least two entries, positive"),
    (lambda t: _schedule(t, "16,16"), "key 'solver.m_schedule': must be"),
    (lambda t: _schedule(t, "-5"), "key 'solver.m_schedule': must be"),
    (lambda t: _schedule(t, "0,16"), "key 'solver.m_schedule': must be"),
    # one level has no inter-level deviation to test
    (lambda t: _schedule(t, "16"), "key 'solver.m_schedule': must be"),
    (lambda t: t.replace("mesh.cells = 64", "mesh.cells = 0"),
     "key 'mesh.cells': must be at least 1, got 0"),
])
def test_parse_rejections(mutation, fragment):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text(mutation(WORKED_TEXT))
    assert fragment in str(exc.value)


def test_numeric_keys_are_one_table():
    # one key per NumericsConfig field that a problem file can set, read by
    # problem_io from the table that NumericsConfig checks the ranges with
    assert problem_io.NUMERIC_KEYS is NUMERIC_KEYS
    assert list(NUMERIC_KEYS) == ["mesh.cells", "mesh.gamma", "solver.m_schedule",
                                  "solver.omega", "solver.inner_tol", "solver.inter_m_tol"]
    names = [name for name, *_ in NUMERIC_KEYS.values()]
    assert sorted(names) == sorted(f.name for f in fields(NumericsConfig))
    default = NumericsConfig()
    for key, (name, parse, _, _) in NUMERIC_KEYS.items():
        value = getattr(default, name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        assert parse(text) == value, key


@pytest.mark.parametrize("key,value", [("solver.omega", "nan"), ("solver.m_schedule", "-5"),
                                       ("mesh.cells", "0")])
def test_check_and_solve_reject_the_same_numerics(tmp_path, capsys, key, value):
    # both commands validate the one config; check once took the first two
    # (exit 0, and exit 2 with an A1 report of x = nan failures)
    lines = [ln for ln in WORKED_TEXT.splitlines() if not ln.startswith(key)]
    p = tmp_path / "bad.prob"
    p.write_text("\n".join([*lines, f"{key} = {value}", ""]))
    for argv in (["check", str(p)], ["solve", str(p), "--out", str(tmp_path / "o")]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: key '{key}': must be ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["mesh.nodes_per_cell = 8", "solver.max_inner = 200",
                                  "checks.lattice_density = 41"])
def test_removed_numerics_keys_are_unknown(tmp_path, capsys, line):
    # the Gauss order, the Picard budget and the lattice density are
    # constants: a file that sets one, even to its value, fails as any
    # unknown key does
    p = tmp_path / "old.prob"
    p.write_text(WORKED_TEXT + line + "\n")
    for argv in (["check", str(p)], ["solve", str(p), "--out", str(tmp_path / "o")]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown key(s): {line.split(' =')[0]}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag", [
    ("check", ["--gamma", "3"]), ("solve", ["--gamma", "3"]),
    ("check", ["--strict-unit-bound"]), ("solve", ["--strict-unit-bound"]),
    ("audit", ["--grid", "41"]),
], ids=["check", "solve", "check-strict", "solve-strict", "audit-grid"])
def test_gamma_flag_is_a_usage_error(problem_file, tmp_path, capsys, command, flag):
    # no flag sets a grading (mesh.gamma is accepted and read by nothing);
    # the size ratio always uses the kernel's sup, never the literal bound 1;
    # the audit's sup is the closed form, which no grid changes
    target = "1.5" if command == "audit" else str(problem_file)
    argv = [command, target, *flag, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_check_empty_value(tmp_path, capsys):
    p = tmp_path / "empty.prob"
    p.write_text(WORKED_TEXT.replace("mu = 1.5", "mu ="))
    assert main(["check", str(p)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: line 2: empty key or value\n"


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(ProblemFileError):
        load_problem(tmp_path / "nope.prob")


def test_shipped_problem_file_loads():
    import pathlib
    shipped = pathlib.Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"
    spec = load_problem(shipped)
    assert spec.mu == 1.5 and spec.R == 100.0


# ----------------------------------------------------------------------- CLI

def test_check_ok(problem_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["check", str(problem_file), "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "A1 passed = True" in text
    assert "A2 passed = True" in text
    assert (out / "hypothesis_report.txt").read_text() == text
    sigma = (out / "sigma_R.csv").read_text().splitlines()
    assert sigma[0] == "t,sigma_R"
    # header + one row per breakpoint: 64 uniform cells, then 34 halvings down to 2^-40
    assert len(sigma) == 1 + 64 + 34 + 1 == 1 + len(build_mesh(64).breakpoints)


def test_check_missing_key(tmp_path, capsys):
    p = tmp_path / "bad.prob"
    p.write_text(WORKED_TEXT.replace("R = 100\n", ""))
    assert main(["check", str(p)]) == EXIT_USAGE
    assert "missing required key" in capsys.readouterr().err


def test_check_hypothesis_failure(tmp_path, capsys):
    p = tmp_path / "odd.prob"
    p.write_text(WORKED_TEXT.replace("f = abs(t)*(1-t^2)^(-0.25)*x^(-0.25)",
                                     "f = t*x"))
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert "A1 passed = False" in out
    assert "A1 failure" in out


# int_0^1 1e-9 / (1 - s) ds diverges, so this q's int q does too;
# 0*min(s, 1) hides its exponent from the endpoint walk
LOG_DIVERGENT_TEXT = """\
mu = 1.5
R = 100
f = abs(t)*(1-t^2)^(-0.25)
q = s*(1-s^2)^(-0.25) + 1e-9/(1-s) + 0*min(s, 1)
u = 1
v = x^(0.25)
psi = 0.5*s*(1-s^2)^(-0.25)
"""


@pytest.mark.parametrize("hidden", [True, False], ids=["hidden", "read"])
def test_a_divergent_int_q_never_passes(hidden, tmp_path, capsys):
    # with the exponent hidden, int q is "not shown" finite (two meshes'
    # plain rules once agreed to 1e-8 on it, and check and solve exited 0);
    # without it, q ~ 1e-9 d^-1 reads beta_q = 1, a divergence
    p = tmp_path / "log.prob"
    p.write_text(LOG_DIVERGENT_TEXT if hidden else
                 LOG_DIVERGENT_TEXT.replace(" + 0*min(s, 1)", ""))
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    failure = "A2 failure: [A2.I_q_finite] int q " + (
        "not shown finite: the exponent of q at s = 1 is unread\n" if hidden else
        "diverges: its integrand behaves like (1 - t)^(-beta) at t = 1 (at beta=1)\n")
    assert failure in out
    assert ("endpoint exponents = q unread, " in out) == hidden
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    assert "  " + failure.removeprefix("A2 failure: ") in capsys.readouterr().err


def test_a_finite_but_unread_q_is_exit_2(tmp_path, capsys):
    # int_0^1 s (1 - s^2)^(-1/4) ds = 2/3 is finite, but min hides q's
    # exponent: the size integrals are not shown finite, and check and solve
    # exit 2 naming q
    p = tmp_path / "hidden.prob"
    p.write_text(WORKED_TEXT.replace("q = s*(1-s^2)^(-0.25)\n",
                                     "q = s*(1-s^2)^(-0.25) + 0*min(s, 1)\n"))
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("A2 failure")] == [
        "A2 failure: [A2.I_q_finite] int q not shown finite: the exponent of q at s = 1 "
        "is unread",
        "A2 failure: [A2.I_qu_finite] int q*u(sigma_R) not shown finite: the exponent of q "
        "at s = 1 is unread"]
    I_q = float(out.split("\nI_q = ")[1].split("\n")[0])
    assert abs(I_q - 2.0 / 3.0) < 1e-7  # the plain rule's value is still shown
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    assert "the exponent of q at s = 1 is unread" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _worked_family_with_psi(tmp_path, psi: str) -> Path:
    text = (ROOT / "problems" / "worked_family.prob").read_text()
    p = tmp_path / "psi.prob"
    p.write_text(text.replace("psi = s*(1-s^2)^(-0.25)*R^(-0.25)\n", f"psi = {psi}\n"))
    assert p.read_text() != text
    return p


def test_a_psi_read_as_not_integrable_makes_the_barrier_diverge(tmp_path, capsys):
    # psi ~ 0.001 2^(-1.5) (1 - s)^(-1.5): int psi diverges at s = 1, and
    # G(t, 1) > 0 for t < 1, so sigma_R is infinite on [0, 1), whatever
    # finite value a quadrature rule gives it
    p = _worked_family_with_psi(tmp_path, "0.001*s*(1-s^2)^(-1.5)")
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    lines = capsys.readouterr().out.splitlines()
    assert "sigma_R(0) = nan" in lines and "I_qu = nan" in lines
    assert "endpoint exponents = q -0.25, psi -1.5, u -0.25; beta_q = 0.25, " \
           "beta_qu = unread" in lines
    assert [line for line in lines if line.startswith("A2 failure")] == [
        "A2 failure: [A2.sigma_finite] barrier diverges: psi behaves like (1 - s)^(-1.5) at "
        "s = 1, not integrable (at t=0)",
        "A2 failure: [A2.ratio] size condition requires ratio > 1 (at ratio=nan)"]
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    assert "[A2.sigma_finite] barrier diverges" in capsys.readouterr().err


def _u_sizes(monkeypatch) -> list:
    """The size of each argument ProblemSpec.u_at is called with, from now on."""
    sizes = []
    original = ProblemSpec.u_at

    def counted(self, x):
        sizes.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(ProblemSpec, "u_at", counted)
    return sizes


def test_a_diverging_barrier_evaluates_no_u_at_the_nodes(tmp_path, capsys, monkeypatch):
    # the barrier is infinite, so I_qu = int q u(sigma_R) is left undefined
    # without evaluating u(sigma_R) at the mesh's nodes; the report is that
    # of evaluating it and throwing it away
    p = _worked_family_with_psi(tmp_path, "0.001*s*(1-s^2)^(-1.5)")
    nodes = build_mesh(128).flat_nodes.size
    sizes = _u_sizes(monkeypatch)
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    assert sizes and nodes not in sizes  # the A1 lattice and u(R) only
    assert capsys.readouterr().out == (
        "hypothesis report\nmu = 1.5\nR = 100\nA1 passed = True (lattice density 41)\n"
        "A2 passed = False\nsigma_R(0) = nan\n"
        "endpoint exponents = q -0.25, psi -1.5, u -0.25; beta_q = 0.25, beta_qu = unread\n"
        "I_q = 0.66666666666666452\nI_qu = nan\n"
        "kernel bound c = 1.7615941559557646 (audited sup)\nratio = nan\neps_max = nan\n"
        "A2 failure: [A2.sigma_finite] barrier diverges: psi behaves like (1 - s)^(-1.5) at "
        "s = 1, not integrable (at t=0)\n"
        "A2 failure: [A2.ratio] size condition requires ratio > 1 (at ratio=nan)\n")


def _high_order_family(tmp_path) -> Path:
    # the worked family at mu = 1.9985 and R = 1e4: lambda = 666
    text = (ROOT / "problems" / "worked_family.prob").read_text()
    high = text.replace("\nmu = 1.5\n", "\nmu = 1.9985\n").replace("\nR = 100\n", "\nR = 1e4\n")
    assert high.count("1.9985") == 1 and high.count("R = 1e4") == 1
    p = tmp_path / "high.prob"
    p.write_text(high)
    return p


def test_a_barrier_negative_between_breakpoints_is_named(tmp_path, capsys):
    # on 32 uniform cells lambda h = 21, and the barrier's node values,
    # which amplify rounding by about e^(lambda h) (ROADMAP item 3), dip to
    # -279 at the node t = 0.96813 while every breakpoint reads >= 0: the
    # check names that node
    p = _high_order_family(tmp_path)
    assert main(["check", str(p), "--mesh-cells", "32"]) == EXIT_HYPOTHESIS
    assert "A2 failure: [A2.sigma_nonneg] barrier takes a negative value (at t=0.96813)" \
        in capsys.readouterr().out.splitlines()
    a2 = check_A2(load_problem(p, {"mesh_cells": 32}))
    n = len(a2.operator.grid)
    assert np.min(a2.sigma[:n]) >= 0.0 and np.argmin(a2.sigma) >= n
    assert -280.0 < np.min(a2.sigma) < -279.0
    # at the default 128 cells (lambda h = 5.2) the barrier is positive and check passes
    assert main(["check", str(p)]) == EXIT_OK
    capsys.readouterr()


def test_a_negative_barrier_is_one_failure_and_evaluates_no_u_at_the_nodes(
        tmp_path, capsys, monkeypatch):
    # the barrier is unusable, so I_qu = int q u(sigma_R) is left undefined
    # without reading u at the negative node values: the report names the
    # barrier once, and the ratio that I_qu leaves nan
    p = _high_order_family(tmp_path)
    nodes = build_mesh(32).flat_nodes.size
    sizes = _u_sizes(monkeypatch)
    assert main(["check", str(p), "--mesh-cells", "32"]) == EXIT_HYPOTHESIS
    assert sizes and nodes not in sizes  # the A1 lattice and u(R) only
    lines = capsys.readouterr().out.splitlines()
    assert "I_qu = nan" in lines
    assert [line for line in lines if line.startswith("A2 failure")] == [
        "A2 failure: [A2.sigma_nonneg] barrier takes a negative value (at t=0.96813)",
        "A2 failure: [A2.ratio] size condition requires ratio > 1 (at ratio=nan)"]


@pytest.mark.parametrize("name", ["worked_family", "manufactured"])
def test_the_shipped_problems_pass_at_every_cell_count(name):
    # their barriers are positive at every node (down to 1.7e-11 and 9.0e-16)
    for cells in (16, 32, 64, 128, 256, 512):
        a2 = check_A2(load_problem(ROOT / "problems" / f"{name}.prob", {"mesh_cells": cells}))
        assert a2.passed, (cells, a2.failures)
        assert np.min(a2.sigma[len(a2.operator.grid):]) > 0.0


def test_a_psi_read_as_negative_at_one_is_named(tmp_path, capsys):
    # psi ~ -0.001 2^(-0.25) (1 - s)^(-0.25): its exponent is read, and the
    # barrier's exponent is not min(1, 1 + psi) for a psi below 0 near s = 1
    p = _worked_family_with_psi(tmp_path, "-0.001*s*(1-s^2)^(-0.25)")
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    lines = capsys.readouterr().out.splitlines()
    assert "endpoint exponents = q -0.25, psi -0.25, u -0.25; beta_q = 0.25, " \
           "beta_qu = unread" in lines
    assert "I_qu = nan" in lines
    assert [line for line in lines if "A2.I_qu_finite" in line] == [
        "A2 failure: [A2.I_qu_finite] int q*u(sigma_R) not shown finite: psi is not "
        "positive at s = 1"]
    assert not any("unread" in line for line in lines if line.startswith("A2 failure"))
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS


def test_missing_problem_path(tmp_path):
    assert main(["check", str(tmp_path / "ghost.prob")]) == EXIT_USAGE


def test_usage_error():
    assert main(["check"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_solve_ok_and_deterministic(problem_file, tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["solve", str(problem_file), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", str(problem_file), "--out", str(out2)]) == EXIT_OK
    csv1 = (out1 / "solution.csv").read_bytes()
    assert csv1 == (out2 / "solution.csv").read_bytes()
    assert (out1 / "solve_report.txt").read_bytes() == \
        (out2 / "solve_report.txt").read_bytes()

    lines = csv1.decode().splitlines()
    assert lines[0] == "t,x,sigma_R,residual"
    assert len(lines) == 2 * len(build_mesh(64).breakpoints) - 1 + 1  # mirrored grid + header
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t, x, sigma, res = data.T
    assert np.all(np.diff(t) > 0)
    assert t[0] == -1.0 and t[-1] == 1.0
    assert np.allclose(x, x[::-1])  # even symmetry of the written table
    assert np.all(x >= sigma - 1e-12)
    assert np.max(np.abs(res)) < 1e-8
    report = capsys.readouterr().out
    assert "status = converged" in report


@pytest.mark.parametrize("cells", ["1", "2"])
def test_check_and_solve_on_one_or_two_cells(problem_file, tmp_path, capsys, cells):
    # neither command reads the barrier or the iterate between breakpoints,
    # so one or two uniform cells (then the halving tail) still check and solve
    out = tmp_path / "o"
    assert main(["check", str(problem_file), "--mesh-cells", cells]) == EXIT_OK
    assert main(["solve", str(problem_file), "--mesh-cells", cells, "--out", str(out)]) \
        == EXIT_OK
    assert "status = converged" in capsys.readouterr().out
    assert len((out / "solution.csv").read_text().splitlines()) == \
        2 * build_mesh(int(cells)).cells + 2


def test_solve_hypothesis_failure_exit(problem_file, tmp_path, capsys):
    p = tmp_path / "small.prob"
    p.write_text(WORKED_TEXT.replace("R = 100", "R = 1"))
    code = main(["solve", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_HYPOTHESIS
    assert "hypothesis failure" in capsys.readouterr().err


def test_solve_counts_the_failures_it_does_not_list(tmp_path, capsys):
    # u = x^(-0.125) fails the majorant at 520 lattice points: solve lists
    # the first 10 and counts the rest, which check lists in full
    p = tmp_path / "majorant.prob"
    p.write_text(WORKED_TEXT.replace("u = x^(-0.25)", "u = x^(-0.125)"))
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    listed = capsys.readouterr().out.count("A1 failure: ")
    assert listed == 520
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "hypothesis failure: growth/symmetry assumptions failed"
    assert len(err) == 12 and all(line.startswith("  [A1.") for line in err[1:11])
    assert err[11] == "  ... and 510 more (cfbvp check lists them all)"
    assert not (tmp_path / "o").exists()


def test_solve_inner_failure_exit(problem_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("cfbvp.solver.MAX_INNER", 2)
    code = main(["solve", str(problem_file), "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "status = inner_failed" in captured.out
    assert captured.err == "solver failure: status = inner_failed\n"


def test_solve_not_stabilized_exit(tmp_path, capsys):
    # every level converges, but the last inter-level deviation (4.2e-3)
    # exceeds the tolerance
    shipped = Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"
    p = tmp_path / "strict.prob"
    p.write_text(shipped.read_text().replace("solver.inter_m_tol = 0.05",
                                             "solver.inter_m_tol = 1e-9"))
    out = tmp_path / "o"
    assert main(["solve", str(p), "--out", str(out)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "status = not_stabilized" in captured.out
    assert captured.err == "solver failure: status = not_stabilized\n"
    assert "status = not_stabilized\n" in (out / "solve_report.txt").read_text()


def test_solve_divergence_exit(problem_file, tmp_path, capsys, monkeypatch):
    # f at the nodes doubles at every evaluation, so T_m x and the Picard
    # step double every iteration, and the tenth consecutive growth is a
    # SolverError
    doublings = itertools.count()
    monkeypatch.setattr("cfbvp.expressions.bind", lambda e, fixed: lambda env:
                        np.full_like(env["x"], 2.0 ** next(doublings)))
    out = tmp_path / "o"
    assert main(["solve", str(problem_file), "--out", str(out)]) == EXIT_SOLVER
    assert "solver failure: divergence at m = 16" in capsys.readouterr().err
    assert not out.exists()


def test_solve_negative_margin_exit(problem_file, tmp_path, capsys, monkeypatch):
    # f = 0 at the nodes makes T_m x = 0, which converges at once, to a
    # solution below the barrier: the status is converged, yet the negative
    # lower margin fails the solve
    monkeypatch.setattr("cfbvp.expressions.bind",
                        lambda e, fixed: lambda env: np.zeros_like(env["x"]))
    out = tmp_path / "o"
    assert main(["solve", str(problem_file), "--out", str(out)]) == EXIT_SOLVER
    text = (out / "solve_report.txt").read_text()
    assert "status = converged\n" in text
    shown = text.split("lower bound margin min(x - sigma_R) = ")[1].split("\n")[0]
    assert float(shown) < -1e-9
    captured = capsys.readouterr()
    assert text == captured.out
    # the one stderr line names the margin and the breakpoint t >= 0 where
    # solution.csv's x - sigma_R is least (x = 0 there, so sigma_R's max)
    t, x, sigma = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1,
                             usecols=(0, 1, 2), unpack=True)
    right = t >= 0.0
    at = t[right][np.argmin((x - sigma)[right])]
    assert captured.err == (f"solver failure: lower bound margin min(x - sigma_R) = {shown} "
                            f"at t = {at:.17g}\n")


def test_solve_exit_3_names_the_violated_margin(tmp_path, capsys):
    # f = |t| does not dominate psi ~ 2^(-1/4) (1 - t)^(-1/4) next to t = 1,
    # between A2's lattice points, so check passes; the solution then dips
    # below the barrier at the mesh's breakpoint 128 (the first halving,
    # 1 - 2^-8), and solve
    # exits 3 with one stderr line naming that margin and t.  The shipped
    # problem itself writes nothing to stderr
    shipped = (ROOT / "problems" / "worked_family.prob").read_text()
    p = tmp_path / "abs_t.prob"
    p.write_text(shipped.replace("f = abs(t)*(1-t^2)^(-0.25)*x^(-0.25)", "f = abs(t)"))
    assert main(["check", str(p)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "status = converged\n" in captured.out
    t = build_mesh(128).breakpoints[128]
    assert t == 1.0 - 2.0 ** -8
    assert captured.err == ("solver failure: lower bound margin min(x - sigma_R) = "
                            f"-0.0012272058137906185 at t = {t:.17g}\n")
    assert main(["solve", str(ROOT / "problems" / "worked_family.prob"),
                 "--out", str(tmp_path / "w")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def _worked_variant(tmp_path, f_extra, schedule="16,32,64"):
    p = tmp_path / "variant.prob"
    p.write_text(WORKED_TEXT
                 .replace("*x^(-0.25)\n", f"*x^(-0.25){f_extra}\n", 1)
                 .replace("solver.m_schedule = 16,32,64",
                          f"solver.m_schedule = {schedule}"))
    return p


@pytest.mark.parametrize("f_extra,schedule", [
    (" + 0*sqrt(x - 0.0005)", "16,256,4096"),  # undefined above the clamp floor 1/4096
    (" + 0*exp(1000*x)", "16,32,64"),          # overflows to nan inside (0, R]
])
def test_check_covers_what_solve_evaluates(tmp_path, capsys, f_extra, schedule):
    # an undefined or overflowing f is a reported failure, not a numpy
    # warning leaking from inside the evaluation
    p = _worked_variant(tmp_path, f_extra, schedule)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(p)]) == EXIT_HYPOTHESIS
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    detail = "non-finite value nan" if "exp" in f_extra else "expression error: square root"
    assert f"A1 failure: [A1.f(0,x)=0] {detail}" in capsys.readouterr().out


def test_solve_expression_error_exit(tmp_path, capsys):
    # f is undefined only for |x - 0.3| < 0.001, between the lattice points
    p = _worked_variant(tmp_path, " + 0*sqrt((x - 0.3)^2 - 0.000001)")
    assert main(["check", str(p)]) == EXIT_OK
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure: expression error at m = " in err
    assert "sqrt" in err


def test_solve_t_only_expression_error_exit(tmp_path, capsys):
    # f is undefined only for |t - 0.305| < 0.01, between the lattice points
    # but at Gauss nodes: the error is found when f is bound to the nodes,
    # and raised by the first apply, at the first level
    p = _worked_variant(tmp_path, " + 0*sqrt((t - 0.305)^2 - 0.0001)")
    assert main(["check", str(p)]) == EXIT_OK
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == ("solver failure: expression error at m = 16: square root of a negative "
                   "value in subexpression 'sqrt((t - 0.305)^2.0 - 0.0001)'\n")


@pytest.mark.parametrize("command", ["check", "solve"])
def test_high_order_emits_no_runtime_warning(tmp_path, capsys, command):
    # lam = 768 > 709: the barrier overflows to nan in GreenOperator's row
    # factor cosh(lam t) (ROADMAP item 3), which check_A2 reports
    # (A2.sigma_finite, exit 2), while the kernel bound is 2; no numpy
    # warning leaks
    p = tmp_path / "overflow.prob"
    p.write_text(WORKED_TEXT.replace("mu = 1.5", "mu = 1.9987"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    out, err = capsys.readouterr()
    line = "[A2.sigma_finite] barrier takes a non-finite value (at t=0)"
    if command == "check":
        assert f"A2 failure: {line}" in out.splitlines()
        assert "kernel bound c = 2 (audited sup)" in out.splitlines()
    else:
        assert f"  {line}" in err.splitlines()


def test_undefined_size_ratio_emits_no_runtime_warning(tmp_path, capsys):
    # u(R) overflows to nan, and u = x^(-0.25) everywhere else: the size
    # ratio is nan, an A2 failure, and no numpy warning leaks from u(R)
    p = tmp_path / "ratio.prob"
    p.write_text(WORKED_TEXT.replace(
        "u = x^(-0.25)\n", "u = x^(-0.25) + 0*exp(1000000*max(0, 1 - abs(x - 100)))\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(p)]) == EXIT_HYPOTHESIS
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    out, err = capsys.readouterr()
    line = "[A2.ratio] size condition requires ratio > 1 (at ratio=nan)"
    assert f"A2 failure: {line}" in out.splitlines()
    assert f"  {line}" in err.splitlines()


def test_solve_names_the_node_where_f_is_not_finite(tmp_path, capsys):
    # f overflows to nan only for t > 0.99, past the A1 lattice's last
    # t = 40/41, so check passes; solve names a Gauss node past 0.99, not
    # t = 0 where the nan spread to, and no numpy warning leaks
    p = _worked_variant(tmp_path, " + 0*exp(1000000*max(0, t - 0.99))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(p)]) == EXIT_OK
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: T_m x is not finite at t = ")
    assert err.endswith(" (m = 16, iteration 1)\n")
    assert float(err.split(" at t = ")[1].split(" ")[0]) > 0.99


@pytest.mark.parametrize("mu", ["1.975", "1.998"])
def test_check_passes_at_high_order(tmp_path, capsys, mu):
    # lam = 39 and 499: the kernel bound is the closed form 2 / (1 + e^{-2 lam})
    p = tmp_path / "high.prob"
    p.write_text(WORKED_TEXT.replace("mu = 1.5", f"mu = {mu}"))
    assert main(["check", str(p)]) == EXIT_OK
    assert "kernel bound c = 2 (audited sup)" in capsys.readouterr().out


def test_green_dump(tmp_path):
    out = tmp_path / "green.csv"
    assert main(["green", "1.5", "--grid", "11", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,tau,branch,value"
    assert len(lines) == 2 * 11 * 11 + 1
    # spot-check the origin row: the diagonal defaults to the lower branch,
    # whose value at (0, 0) is tanh(lambda) with lam = 1 for mu = 1.5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "lower"
    assert float(first[3]) == pytest.approx(math.tanh(1.0), rel=1e-13)


@pytest.mark.parametrize("grid", [0, 1])
def test_green_rejects_a_degenerate_grid(tmp_path, capsys, grid):
    # a grid of 0 points wrote a header and blank lines, and one of 1 point
    # the origin twice (0,0 and -0,-0)
    out = tmp_path / "green.csv"
    assert main(["green", "1.5", "--out", str(out), "--grid", str(grid)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --grid must be at least 2, got {grid}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["green", "2.5", "--grid", "9"], ["green", "1.5", "--grid", "1"]])
def test_green_error_writes_nothing(tmp_path, capsys, argv):
    # the kernel is evaluated and rendered before the file or its directory
    # is made: an order outside (1, 2) or a degenerate grid leaves no trace
    out = tmp_path / "D" / "sub" / "g.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_green_out_is_a_directory(tmp_path, capsys):
    # the dump is made, then the file cannot be opened: exit 1, nothing
    # written and nothing left open (an unclosed file fails the test)
    (tmp_path / "d").mkdir()
    assert main(["green", "1.5", "--grid", "9", "--out", str(tmp_path / "d")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path / 'd'}'\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_green_dump_peak_is_below_its_file(tmp_path):
    # the dump is written in blocks of rows, so it never holds the whole
    # table (20.5 MB here), let alone a joined or an encoded copy of it
    out = tmp_path / "green.csv"
    # import csvfmt and build its tables outside the trace
    assert main(["green", "1.93", "--grid", "9", "--out", str(out)]) == EXIT_OK
    tracemalloc.start()
    try:
        code = main(["green", "1.93", "--grid", "401", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < out.stat().st_size


def test_audit_table(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert main(["audit", "1.2,1.5,1.8", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert out.read_text() == text
    lines = text.splitlines()
    assert len(lines) == 4
    for ln in lines[1:]:
        cols = ln.split(",")
        assert float(cols[2]) <= 1e-13      # boundary_max
        assert float(cols[3]) == 0.0        # symmetry_max_diff exact
        assert float(cols[4]) <= 1e-12      # diag_jump_max_err
        assert cols[5] == cols[6]           # the sup is its closed form
        assert cols[7] == "True"            # sup exceeds the unit bound


# The kernel tables below were written by the point-by-point evaluation of
# the kernel that the whole-array one replaced; they pin it to the byte.
KERNEL_TABLES = Path(__file__).resolve().parent / "data" / "kernel_tables"


@pytest.mark.parametrize("argv,golden", [
    (["green", "1.93", "--grid", "7"], "green_1.93_grid7.csv"),
    (["green", "1.3", "--grid", "7"], "green_1.3_grid7.csv"),
    # up to and past lam = 709: mu = 1.9985938 is lam = 710.14, where e^lam
    # overflows but cosh(lam) does not
    (["audit", "1.05,1.2,1.35,1.5,1.65,1.8,1.95,1.9985,1.9985938,1.9987"],
     "audit_grid401.csv"),
])
def test_kernel_tables_match_golden(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (KERNEL_TABLES / golden).read_bytes()


def _audit_loop(mus):
    """The audit table from scalar-order calls, one order at a time."""
    lines = ["mu,lambda,boundary_max,symmetry_max_diff,diag_jump_max_err,"
             "sup_measured,sup_closed_form,sup_exceeds_unit_bound"]
    taus = np.linspace(0.0, 1.0, 201)
    t, tau = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
    diag = np.linspace(-1.0, 1.0, 101)
    for mu in mus:
        lam = rate_of(mu)
        values = [mu, lam, np.max(np.abs(green_eval(mu, 1.0, taus))),
                  np.max(np.abs(green_eval(mu, t, tau) - green_eval(mu, -t, -tau))),
                  np.max(np.abs(green_diagonal_jump(mu, diag) - 1.0)),
                  kernel_bound(mu), kernel_bound(mu)]
        lines.append(",".join(f"{v:.17g}" for v in values) + f",{values[5] > 1.0}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [2, 3, 41, 401])
def test_audit_is_the_loop_over_orders(tmp_path, capsys, seed):
    # the tables are evaluated for all orders at once: the bytes are those
    # of one order at a time, for random order lists, most of them with
    # orders past lam = 709
    rng = np.random.default_rng(seed)
    out = tmp_path / "audit.csv"
    for _ in range(6):
        k = int(rng.integers(1, 11))
        high = 2.0 - 10.0 ** rng.uniform(-5.0, -2.0, k)
        mus = np.where(rng.random(k) < 0.4, high, rng.uniform(1.00001, 1.99999, k)).tolist()
        mus.insert(int(rng.integers(0, k + 1)), 1.9985938)  # lam = 710.14
        assert main(["audit", ",".join(map(repr, mus)), "--out", str(out)]) == EXIT_OK
        want = _audit_loop(mus)
        assert capsys.readouterr().out == want
        assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("argv,message", [
    # the first order, then each later order
    (["audit", "1.5,1.7,1"], "order must lie in (1, 2), got 1.0"),
    (["audit", "2.5,1.5"], "order must lie in (1, 2), got 2.5"),
    (["audit", "1.5,nan"], "order must lie in (1, 2), got nan"),
    (["audit", "1.5,2.5"], "order must lie in (1, 2), got 2.5"),
])
def test_audit_check_order(tmp_path, capsys, argv, message):
    # every order is checked before the --out file or its directory is made
    out = tmp_path / "sub" / "a.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _python(args, cwd=None):
    """``python ARGS`` in a new interpreter on ``src``, RuntimeWarning an error."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))))


def _fresh_cli(argv, cwd):
    """``python -m cfbvp.cli ARGV`` in a new interpreter, RuntimeWarning an error."""
    return _python(["-m", "cfbvp.cli", *argv], cwd)


@pytest.mark.parametrize("argv", [["audit", "1.9987"],
                                  ["green", "1.9987", "--grid", "5", "--out", "g.csv"],
                                  ["check", "overflow.prob"]])
def test_kernel_tables_overflow_without_warning(tmp_path, argv):
    # lam = 768 > 709, where cosh(lam) overflows: the kernel and its sup
    # stay finite (sup 2 in the audit), while the check of the shipped
    # problem fails A2, because GreenOperator's row factor cosh(lam t)
    # still overflows and makes the barrier nan (ROADMAP item 3); no numpy
    # warning reaches stderr or, as an error, turns into exit 1
    shipped = (ROOT / "problems" / "worked_family.prob").read_text()
    overflow = shipped.replace("\nmu = 1.5\n", "\nmu = 1.9987\n")
    assert overflow != shipped
    (tmp_path / "overflow.prob").write_text(overflow)
    run = _fresh_cli(argv, tmp_path)
    code = EXIT_HYPOTHESIS if argv[0] == "check" else EXIT_OK
    assert (run.returncode, run.stderr) == (code, "")
    if argv[0] == "audit":
        row = run.stdout.splitlines()[1].split(",")
        assert (row[5], row[6], row[7]) == ("2", "2", "True")
    elif argv[0] == "green":
        assert len((tmp_path / "g.csv").read_text().splitlines()) == 1 + 2 * 5 * 5
    else:
        assert "A2.sigma_finite" in run.stdout


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # the parser and the meshes are built once per process: a sequence of
    # commands in one process, a flag and then its default among them, gives
    # the exit codes, messages and files of each command in a fresh process
    prob = str(ROOT / "problems" / "worked_family.prob")
    commands = [["check", prob, "--mesh-cells", "64", "--out", "check_64"],
                ["check", prob, "--out", "check"],
                ["solve", prob, "--mesh-cells", "64", "--out", "solve_64"],
                ["solve", prob, "--out", "solve"],
                ["solve"],
                ["audit", "1.5,1.9", "--out", "audit.csv"],
                ["green", "1.93", "--grid", "7", "--out", "green.csv"]]
    fresh, inproc = tmp_path / "fresh", tmp_path / "inproc"
    fresh.mkdir()
    inproc.mkdir()
    monkeypatch.chdir(inproc)
    # argparse wraps its usage lines to the terminal, here and in the fresh process
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in commands:
        want = _fresh_cli(argv, fresh)
        codes.append(main(argv))
        got = capsys.readouterr()
        assert (codes[-1], got.out, got.err) == (want.returncode, want.stdout, want.stderr), argv
    assert codes == [EXIT_OK] * 4 + [EXIT_USAGE] + [EXIT_OK] * 2

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert tree(inproc) == tree(fresh)
    assert len(tree(fresh)) == 2 + 2 + 2 + 2 + 1 + 1


def test_cli_imports_no_scipy():
    run = _python(["-c", "import sys, cfbvp.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_imports_no_numpy_polynomial():
    # the Gauss and Legendre tables are written out or recurred in quadrature:
    # no command imports numpy.polynomial or runs its eigensolver
    run = _python(["-c", "import sys, cfbvp.cli, cfbvp.endpoint\n"
                   "print('numpy.polynomial' in sys.modules)"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_check_and_solve_without_scipy_write_the_same_bytes(tmp_path):
    # scipy is a test dependency only: the package imports and runs without it
    worked = ROOT / "problems" / "worked_family.prob"
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    run = _python(["-c", "import sys\n"
                   "sys.modules['scipy'] = None  # any import of scipy now fails\n"
                   "from cfbvp.cli import main\n"
                   f"p, d = {str(worked)!r}, {str(blocked)!r}\n"
                   "sys.exit(main(['check', p, '--out', d]) or main(['solve', p, '--out', d]))"])
    assert run.returncode == 0, run.stderr
    assert main(["check", str(worked), "--out", str(here)]) == 0
    assert main(["solve", str(worked), "--out", str(here)]) == 0
    names = sorted(f.name for f in here.iterdir())
    assert names == ["hypothesis_report.txt", "sigma_R.csv", "solution.csv", "solve_report.txt"]
    assert sorted(f.name for f in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (here / name).read_bytes(), name


def test_solution_csv_is_the_per_row_rendering(tmp_path, capsys):
    # the mirrored rows reuse the right half's strings; they must be the
    # bytes of formatting each of the 2N + 1 rows on its own
    spec = load_problem(ROOT / "problems" / "worked_family.prob", {"mesh_cells": 64})
    report = solve(spec)
    nodes = report.hypothesis.operator.grid  # the first len(nodes) entries of x and sigma
    rows = [(t, i) for t, i in zip(-nodes[:0:-1], range(len(nodes) - 1, 0, -1))]
    rows += [(t, i) for i, t in enumerate(nodes)]
    want = ["t,x,sigma_R,residual"]
    for t, i in rows:
        want.append(f"{t:.17g},{report.x[i]:.17g},{report.hypothesis.sigma[i]:.17g},"
                    f"{report.residual[i]:.17g}")
    assert len(want) == 2 * len(nodes)
    assert _solution_csv(report) == ("\n".join(want) + "\n").encode()
    out = tmp_path / "o"
    assert main(["solve", str(ROOT / "problems" / "worked_family.prob"), "--mesh-cells", "64",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "solution.csv").read_bytes() == _solution_csv(report)
    assert (out / "solve_report.txt").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("cells", [1, 128, 2048])
def test_sigma_csv_is_the_per_row_rendering(tmp_path, capsys, cells):
    # sigma_R.csv is formatted in one pass; it must be the bytes of
    # formatting each breakpoint row on its own
    prob = ROOT / "problems" / "worked_family.prob"
    a2 = check_A2(load_problem(prob, {"mesh_cells": cells}))
    grid = a2.operator.grid  # the first len(grid) entries of sigma
    want = ["t,sigma_R"] + [f"{t:.17g},{v:.17g}" for t, v in zip(grid, a2.sigma[:len(grid)])]
    assert len(want) == build_mesh(cells).cells + 2
    out = tmp_path / "o"
    assert main(["check", str(prob), "--mesh-cells", str(cells), "--out", str(out)]) == EXIT_OK
    assert (out / "sigma_R.csv").read_bytes() == ("\n".join(want) + "\n").encode()


@pytest.mark.parametrize("mu,grid", [(1.93, 201), (1.3, 37), (1.9987, 9), (1.5, 2),
                                     (1.5, _ROWS_PER_WRITE - 1), (1.5, _ROWS_PER_WRITE),
                                     (1.5, _ROWS_PER_WRITE + 1)])
def test_green_table_is_the_per_row_rendering(tmp_path, mu, grid):
    # the dump renders every value once, in one call, the mirrored half
    # reuses its lines, and the 2 * grid t rows are written in blocks, the
    # last one partial or full; it must be the bytes of formatting each
    # row on its own (at mu = 1.9987, lam = 768, the values span 1e-292
    # to 1, and 26 of the 81 underflow to 0)
    nodes = np.linspace(0.0, 1.0, grid)
    right = []
    for t in nodes:
        for tau, v in zip(nodes, green_eval(mu, t, nodes).tolist()):
            right.append((t, tau, "lower" if tau <= t else "upper", v))
    want = ["t,tau,branch,value"]
    want += [f"{t:.17g},{tau:.17g},{branch},{v:.17g}" for t, tau, branch, v in right]
    want += [f"{-t:.17g},{-tau:.17g},{branch},{v:.17g}" for t, tau, branch, v in right]
    out = tmp_path / "green.csv"
    assert main(["green", str(mu), "--grid", str(grid), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == ("\n".join(want) + "\n").encode()


def test_psi_expression_error_exit(tmp_path, capsys):
    # psi is undefined on (0, 0.5): the barrier is undefined, an A2 failure
    p = tmp_path / "psi.prob"
    p.write_text(WORKED_TEXT.replace("*R^(-0.25)\n", "*R^(-0.25) + 0*sqrt(s - 0.5)\n"))
    assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    captured = capsys.readouterr()
    assert ("A2 failure: [A2.sigma_finite] barrier undefined: expression error in psi: "
            "square root of a negative value in subexpression 'sqrt(s - 0.5)'") in captured.out
    assert "A2.sigma_finite" in captured.err
