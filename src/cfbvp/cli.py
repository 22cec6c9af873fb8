"""Command-line front end.

Subcommands: ``check`` (assumption verification), ``solve`` (the nonlinear
problem), ``green`` (kernel dump on a grid), ``audit`` (kernel property
table).  Exit codes are a stable contract: 0 ok, 1 usage/IO error,
2 hypothesis failure, 3 solver failure.

All output files are deterministic functions of the inputs; floats are
rendered with 17 significant digits so doubles round-trip losslessly (the
CSV tables through ``csvfmt.render``, byte for byte Python's ``'%.17g'``).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .green import green_diagonal_jump, green_eval, green_sup, rate_of
from .hypotheses import check_A1, check_A2
from .problem_io import load_problem
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
        f"A1 passed = {a1.passed} (lattice density {spec.numerics.lattice_density})",
    ]
    for fail in a1.failures:
        lines.append(f"A1 failure: {fail}")
    lines += [
        f"A2 passed = {a2.passed}",
        f"sigma_R(0) = {_fmt(a2.sigma_at_zero)}",
        f"I_q = {_fmt(a2.I_q)}",
        f"I_qu = {_fmt(a2.I_qu)}",
        f"kernel bound c = {_fmt(a2.c_kernel)}"
        + (" (strict literal bound 1)" if spec.numerics.strict_unit_bound
           else " (audited sup)"),
        f"ratio = {_fmt(a2.ratio)}",
        f"eps_max = {_fmt(a2.eps_max)}",
    ]
    for fail in a2.failures:
        lines.append(f"A2 failure: {fail}")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    spec = load_problem(args.problem, _numeric_overrides(args))
    a1 = check_A1(spec)
    a2 = check_A2(spec)
    text = _hypothesis_text(spec, a1, a2)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        _write(out / "hypothesis_report.txt", text)
        _write(out / "sigma_R.csv", _sigma_csv(a2))
    if not (a1.passed and a2.passed):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _sigma_csv(a2) -> str:
    # the renderer is imported where a CSV is written: importing the CLI
    # (and check without --out, and audit) need not compile it and build
    # its tables
    from .csvfmt import render
    # the right-half breakpoints; their values lead a2.sigma
    grid = a2.operator.grid
    return "t,sigma_R\n" + render(np.column_stack((grid, a2.sigma[:len(grid)])))


def _solution_csv(report) -> str:
    # full symmetric grid: the right-half rows, mirrored (t > 0 on the
    # mirrored rows), then the right half; the breakpoint values lead the
    # arrays on the operator's points
    from .csvfmt import render
    grid = report.hypothesis.operator.grid
    n = len(grid)
    columns = np.column_stack((grid, report.x[:n], report.hypothesis.sigma[:n],
                               report.residual))
    return "t,x,sigma_R,residual\n" + render(columns, mirrored=True)


def _solve_text(report) -> str:
    lines = [
        "solve report",
        f"status = {report.status}",
        f"eps = {_fmt(report.eps)} (eps_max = {_fmt(report.hypothesis.eps_max)})",
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
    spec = load_problem(args.problem, _numeric_overrides(args))
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
    from .csvfmt import render
    grid = np.linspace(0.0, 1.0, n)
    # the values and the grid are rendered in one call.  The n lines at t_i
    # interleave "t_i," with "tau_j,lower," up to the diagonal and
    # "tau_j,upper," past it (the grid increases) and with the value lines,
    # joined per t_i; G(-t, -tau) = G(t, tau) lets the mirrored left-half
    # square reuse the value lines
    lines = render(np.concatenate((green_eval(mu, grid[:, None], grid[None, :]).ravel(),
                                   grid))[:, None]).splitlines(keepends=True)
    values, coords = lines[:n * n], [line[:-1] + "," for line in lines[n * n:]]
    del lines
    rows = ["t,tau,branch,value\n"]
    fields = [""] * (3 * n)
    for sign in ("", "-"):
        signed = [sign + c for c in coords]
        lower = [c + "lower," for c in signed]
        upper = [c + "upper," for c in signed]
        for i, t in enumerate(signed):
            fields[0::3] = [t] * n
            fields[1::3] = lower[:i + 1] + upper[i + 1:]
            fields[2::3] = values[i * n:(i + 1) * n]
            rows.append("".join(fields))
    del values
    return "".join(rows)


def cmd_green(args) -> int:
    if args.grid < 2:  # as audit, whose green_sup rejects these with this message
        raise ValueError("grid_density must be >= 2")
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


@functools.cache  # parse_args returns a new namespace on each call
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
