import warnings
from pathlib import Path

import numpy as np
import pytest

from cfbvp.cli import (EXIT_HYPOTHESIS, EXIT_OK, EXIT_SOLVER, EXIT_USAGE,
                       main)
from cfbvp.problem_io import (ProblemFileError, load_problem,
                              parse_problem_text)

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
])
def test_parse_rejections(mutation, fragment):
    with pytest.raises(ProblemFileError) as exc:
        parse_problem_text(mutation(WORKED_TEXT))
    assert fragment in str(exc.value)


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
    assert len(sigma) == 64 + 2  # header + one row per grid node


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
    assert len(lines) == 2 * (64 + 1) - 1 + 1  # mirrored grid + header
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t, x, sigma, res = data.T
    assert np.all(np.diff(t) > 0)
    assert t[0] == -1.0 and t[-1] == 1.0
    assert np.allclose(x, x[::-1])  # even symmetry of the written table
    assert np.all(x >= sigma - 1e-12)
    assert np.max(np.abs(res)) < 1e-8
    report = capsys.readouterr().out
    assert "status = converged" in report


def test_solve_hypothesis_failure_exit(problem_file, tmp_path, capsys):
    p = tmp_path / "small.prob"
    p.write_text(WORKED_TEXT.replace("R = 100", "R = 1"))
    code = main(["solve", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_HYPOTHESIS
    assert "hypothesis failure" in capsys.readouterr().err


def test_solve_inner_failure_exit(problem_file, tmp_path, capsys):
    p = tmp_path / "tight.prob"
    p.write_text(WORKED_TEXT + "solver.max_inner = 2\n")
    code = main(["solve", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_SOLVER
    assert "status = inner_failed" in capsys.readouterr().out


def test_solve_not_stabilized_exit(tmp_path, capsys):
    # every level converges, but the last inter-level deviation (4.2e-3)
    # exceeds the tolerance
    shipped = Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"
    p = tmp_path / "strict.prob"
    p.write_text(shipped.read_text().replace("solver.inter_m_tol = 0.05",
                                             "solver.inter_m_tol = 1e-9"))
    out = tmp_path / "o"
    assert main(["solve", str(p), "--out", str(out)]) == EXIT_SOLVER
    assert "status = not_stabilized" in capsys.readouterr().out
    assert "status = not_stabilized\n" in (out / "solve_report.txt").read_text()


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
    p = _worked_variant(tmp_path, f_extra, schedule)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["check", str(p)]) == EXIT_HYPOTHESIS
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    assert "A1 failure" in capsys.readouterr().out


def test_solve_expression_error_exit(tmp_path, capsys):
    # f is undefined only for |x - 0.3| < 0.001, between the lattice points
    p = _worked_variant(tmp_path, " + 0*sqrt((x - 0.3)^2 - 0.000001)")
    assert main(["check", str(p)]) == EXIT_OK
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure: expression error at m = " in err
    assert "sqrt" in err


def test_check_emits_no_runtime_warning(tmp_path, capsys):
    # f overflows to nan on part of the lattice; that is a reported failure,
    # not a numpy warning leaking from inside the evaluation
    p = _worked_variant(tmp_path, " + 0*exp(1000*x)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(p)]) == EXIT_HYPOTHESIS
    assert "non-finite value nan" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "solve"])
def test_high_order_emits_no_runtime_warning(tmp_path, capsys, command):
    # lam = 768 > 709: the barrier and the kernel bound overflow to nan, which
    # check_A2 reports (A2.sigma_finite, c = nan); no numpy warning leaks
    p = tmp_path / "overflow.prob"
    p.write_text(WORKED_TEXT.replace("mu = 1.5", "mu = 1.9987"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    assert "A2.sigma_finite" in "".join(capsys.readouterr())


@pytest.mark.parametrize("mu", ["1.975", "1.998"])
def test_check_passes_at_high_order(tmp_path, capsys, mu):
    # lam = 39 and 499: the kernel bound is the closed form 2 / (1 + e^{-2 lam})
    p = tmp_path / "high.prob"
    p.write_text(WORKED_TEXT.replace("mu = 1.5", f"mu = {mu}"))
    assert main(["check", str(p)]) == EXIT_OK
    assert "kernel bound c = 2 (audited sup)" in capsys.readouterr().out


def test_non_finite_barrier_exit(tmp_path, capsys):
    # lam = 768 > 709: the barrier overflows, which is an A2 failure (exit 2)
    p = tmp_path / "overflow.prob"
    p.write_text(WORKED_TEXT.replace("mu = 1.5", "mu = 1.9987"))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["check", str(p)]) == EXIT_HYPOTHESIS
        assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == EXIT_HYPOTHESIS
    captured = capsys.readouterr()
    assert "A2 failure: [A2.sigma_finite] barrier takes a non-finite value" in captured.out
    assert "A2.sigma_finite" in captured.err


def test_green_dump(tmp_path):
    out = tmp_path / "green.csv"
    assert main(["green", "1.5", "--grid", "11", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,tau,branch,value"
    assert len(lines) == 2 * 11 * 11 + 1
    # spot-check the origin row: the diagonal defaults to the lower branch,
    # whose value at (0, 0) is tanh(lambda) with lam = 1 for mu = 1.5
    import math
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "lower"
    assert float(first[3]) == pytest.approx(math.tanh(1.0), rel=1e-13)


def test_audit_table(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert main(["audit", "1.2,1.5,1.8", "--grid", "101",
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert out.read_text() == text
    lines = text.splitlines()
    assert len(lines) == 4
    for ln in lines[1:]:
        cols = ln.split(",")
        assert float(cols[2]) <= 1e-13      # boundary_max
        assert float(cols[3]) == 0.0        # symmetry_max_diff exact
        assert float(cols[4]) <= 1e-12      # diag_jump_max_err
        assert abs(float(cols[5]) - float(cols[6])) <= 1e-4  # sup vs closed form
        assert cols[7] == "True"            # sup exceeds the unit bound


# The kernel tables below were written by the point-by-point evaluation of
# the kernel that the whole-array one replaced; they pin it to the byte.
KERNEL_TABLES = Path(__file__).resolve().parent / "data" / "kernel_tables"


@pytest.mark.parametrize("argv,golden", [
    (["green", "1.93", "--grid", "7"], "green_1.93_grid7.csv"),
    (["green", "1.3", "--grid", "7"], "green_1.3_grid7.csv"),
    (["audit", "1.05,1.5,1.9,1.95,1.9985", "--grid", "41"], "audit_grid41.csv"),
])
def test_kernel_tables_match_golden(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (KERNEL_TABLES / golden).read_bytes()


def test_audit_does_not_hide_overflow(capsys):
    # lam = 768 > 709: the upper branch is inf/inf; the audited sup is nan,
    # not the 1 that a NaN-dropping max once reported
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["audit", "1.9987", "--grid", "41"]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[5] == "nan"
    assert row[7] == "nan"  # not False: a NaN sup is not known to stay below 1


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
