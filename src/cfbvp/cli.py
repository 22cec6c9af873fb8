"""Command-line front end.

Subcommands: ``check`` (assumption verification), ``solve`` (the nonlinear
problem), ``green`` (kernel dump on a grid), ``audit`` (kernel property
table).  Exit codes are a stable contract: 0 ok, 1 usage/IO error,
2 hypothesis failure, 3 solver failure.

All output files are deterministic functions of the inputs; floats are
rendered with 17 significant digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .cf_derivative import rate_of
from .green import green_diagonal_jump, green_eval, green_sup
from .hypotheses import check_A1, check_A2
from .problem_io import ProblemFileError, load_problem
from .solver import HypothesisError, SolverError, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _numeric_overrides(args) -> dict:
    overrides = {}
    if args.mesh_cells is not None:
        overrides["mesh_cells"] = args.mesh_cells
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.strict_unit_bound:
        overrides["strict_unit_bound"] = True
    return overrides


def _hypothesis_text(spec, a1, a2) -> str:
    lines = [
        "hypothesis report",
        f"mu = {_fmt(spec.mu)}",
        f"R = {_fmt(spec.R)}",
        f"A1 passed = {a1.passed} (lattice density {a1.lattice_density})",
    ]
    for fail in a1.failures:
        lines.append(f"A1 failure: {fail}")
    lines += [
        f"A2 passed = {a2.passed}",
        f"sigma_R(0) = {_fmt(a2.sigma_at_zero)}",
        f"I_q = {_fmt(a2.I_q)}",
        f"I_qu = {_fmt(a2.I_qu)}",
        f"kernel bound c = {_fmt(a2.c_kernel)}"
        + (" (strict literal bound 1)" if a2.strict_unit_bound else " (audited sup)"),
        f"ratio = {_fmt(a2.ratio)}",
        f"eps_max = {_fmt(a2.eps_max)}",
    ]
    for fail in a2.failures:
        lines.append(f"A2 failure: {fail}")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    try:
        spec = load_problem(args.problem, _numeric_overrides(args))
    except ProblemFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    a1 = check_A1(spec)
    a2 = check_A2(spec)
    text = _hypothesis_text(spec, a1, a2)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        _write(out / "hypothesis_report.txt", text)
        sigma_csv = ["t,sigma_R"]
        for t, v in zip(a2.sigma.nodes, a2.sigma.values):
            sigma_csv.append(f"{_fmt(t)},{_fmt(v)}")
        _write(out / "sigma_R.csv", "\n".join(sigma_csv) + "\n")
    if not (a1.passed and a2.passed):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _solution_csv(report) -> str:
    # full symmetric grid: mirrored left half then the right half; each
    # right-half row is formatted once and its strings serve both rows
    # (formatting is sign-symmetric, and t > 0 on the mirrored rows)
    ts = [_fmt(t) for t in report.x.nodes.tolist()]
    tails = [f"{_fmt(xv)},{_fmt(sv)},{_fmt(rv)}" for xv, sv, rv in
             zip(report.x.values.tolist(), report.sigma.values.tolist(),
                 report.residual.values.tolist())]
    left = [f"-{t},{tail}" for t, tail in zip(ts[:0:-1], tails[:0:-1])]
    right = [f"{t},{tail}" for t, tail in zip(ts, tails)]
    return "\n".join(["t,x,sigma_R,residual", *left, *right, ""])


def _solve_text(report) -> str:
    lines = [
        "solve report",
        f"status = {report.status}",
        f"eps = {_fmt(report.eps)} (eps_max = {_fmt(report.eps_max)})",
        f"residual sup (regularized equation, final m) = {_fmt(report.residual_sup)}",
        f"residual sup (limit equation, O(1/m) offset) = {_fmt(report.residual_limit_sup)}",
        f"lower bound margin min(x - sigma_R) = {_fmt(report.lower_margin)}",
        f"upper bound margin min(R - eps - x) = {_fmt(report.upper_margin)}",
    ]
    for s in report.inner:
        lines.append(f"m = {s.m}: iterations = {s.iterations}, "
                     f"final step = {_fmt(s.final_step)}, converged = {s.converged}")
    for (m0, m1), d in zip(zip(report.inner, report.inner[1:]),
                           report.inter_m_deviations):
        lines.append(f"sup |x_{m1.m} - x_{m0.m}| = {_fmt(d)}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    try:
        spec = load_problem(args.problem, _numeric_overrides(args))
    except ProblemFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = solve(spec)
    except HypothesisError as err:
        print(f"hypothesis failure: {err}", file=sys.stderr)
        for fail in err.failures[:10]:
            print(f"  {fail}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(args.out)
    text = _solve_text(report)
    _write(out / "solution.csv", _solution_csv(report))
    _write(out / "solve_report.txt", text)
    sys.stdout.write(text)
    if report.status != "converged" or report.lower_margin < -1e-9 \
            or report.upper_margin < -1e-9:
        return EXIT_SOLVER
    return EXIT_OK


def _green_table(mu, n: int) -> str:
    """The ``green`` CSV; its pieces are freed before the caller writes it."""
    grid = np.linspace(0.0, 1.0, n)
    t, tau = np.meshgrid(grid, grid, indexing="ij")
    # G(-t, -tau) = G(t, tau): the mirrored left-half square reuses the
    # branch and value strings of the right half, row for row
    tails = [f"{'lower' if low else 'upper'},{_fmt(v)}" for low, v in
             zip((tau <= t).ravel().tolist(), green_eval(mu, t, tau).ravel().tolist())]
    halves = []
    for sign in (1.0, -1.0):
        coords = [_fmt(sign * g) for g in grid.tolist()]
        halves.append("\n".join(f"{a},{b},{tail}" for (a, b), tail in
                                zip(product(coords, coords), tails)))
    return "\n".join(["t,tau,branch,value", *halves, ""])


def cmd_green(args) -> int:
    _write(Path(args.out), _green_table(args.mu, args.grid))
    return EXIT_OK


def cmd_audit(args) -> int:
    mus = [float(v) for v in args.mu_list.split(",")]
    lines = ["mu,lambda,boundary_max,symmetry_max_diff,diag_jump_max_err,"
             "sup_measured,sup_closed_form,sup_exceeds_unit_bound"]
    taus = np.linspace(0.0, 1.0, 201)
    t, tau = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
    diag = np.linspace(-1.0, 1.0, 101)
    for mu in mus:
        lam = rate_of(mu)
        boundary = np.max(np.abs(green_eval(mu, 1.0, taus)))
        sym = np.max(np.abs(green_eval(mu, t, tau) - green_eval(mu, -t, -tau)))
        jump = np.max(np.abs(green_diagonal_jump(mu, diag) - 1.0))
        sup = green_sup(mu, args.grid)
        closed = 2.0 / (1.0 + math.exp(-2.0 * lam))
        exceeds = "nan" if math.isnan(sup) else sup > 1.0  # nan > 1.0 is False
        lines.append(f"{_fmt(mu)},{_fmt(lam)},{_fmt(boundary)},{_fmt(sym)},"
                     f"{_fmt(jump)},{_fmt(sup)},{_fmt(closed)},{exceeds}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(Path(args.out), text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cfbvp",
                                description="check and solve the symmetric singular "
                                            "integro-differential boundary value problem")
    sub = p.add_subparsers(dest="command", required=True)

    def add_numeric_flags(sp):
        sp.add_argument("--mesh-cells", type=int, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--strict-unit-bound", action="store_true",
                        help="use the literal kernel bound 1 instead of the audited sup")

    sp = sub.add_parser("check", help="verify the problem assumptions")
    sp.add_argument("problem")
    sp.add_argument("--out", default=None)
    add_numeric_flags(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("solve", help="run the regularized fixed-point solver")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    add_numeric_flags(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("green", help="dump the kernel on a tensor grid as CSV")
    sp.add_argument("mu", type=float)
    sp.add_argument("--grid", type=int, default=101)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_green)

    sp = sub.add_parser("audit", help="kernel property audit table")
    sp.add_argument("mu_list", help="comma-separated list of orders")
    sp.add_argument("--grid", type=int, default=401)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_audit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
