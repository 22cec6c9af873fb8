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
import sys
from pathlib import Path

import numpy as np

from . import hypotheses
from .green import green_diagonal_jump, green_eval, kernel_bound, rate_of
from .hypotheses import check_A1, check_A2
from .problem_io import load_problem
from .solver import HypothesisError, SolverError, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write(path: Path, data) -> None:
    """Write ``data``, bytes or an iterable of byte blocks, to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as f:
        if isinstance(data, bytes):
            f.write(data)
        else:
            f.writelines(data)


def _numeric_overrides(args) -> dict:
    return {} if args.mesh_cells is None else {"mesh_cells": args.mesh_cells}


def _hypothesis_text(spec, a1, a2) -> str:
    lines = [
        "hypothesis report",
        f"mu = {_fmt(spec.mu)}",
        f"R = {_fmt(spec.R)}",
        f"A1 passed = {a1.passed} (lattice density {hypotheses.LATTICE_DENSITY})",
    ]
    for fail in a1.failures:
        lines.append(f"A1 failure: {fail}")
    lines += [
        f"A2 passed = {a2.passed}",
        f"sigma_R(0) = {_fmt(a2.sigma_at_zero)}",
        f"I_q = {_fmt(a2.I_q)}",
        f"I_qu = {_fmt(a2.I_qu)}",
        f"kernel bound c = {_fmt(a2.c_kernel)} (audited sup)",
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
        _write(out / "hypothesis_report.txt", text.encode())
        _write(out / "sigma_R.csv", _sigma_csv(a2))
    if not (a1.passed and a2.passed):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _sigma_csv(a2) -> bytes:
    # the renderer is imported where a CSV is written: importing the CLI
    # (and check without --out, and audit) need not compile it and build
    # its tables
    from .csvfmt import render
    # the right-half breakpoints; their values lead a2.sigma
    grid = a2.operator.grid
    return b"t,sigma_R\n" + render(np.column_stack((grid, a2.sigma[:len(grid)])))


def _solution_csv(report) -> bytes:
    # full symmetric grid: the right half's lines n-1, ..., 1 with a '-'
    # before t (t > 0 there), then the right half; the breakpoint values
    # lead the arrays on the operator's points
    from .csvfmt import render
    grid = report.hypothesis.operator.grid
    n = len(grid)
    right = render(np.column_stack((grid, report.x[:n], report.hypothesis.sigma[:n],
                                    report.residual)))
    left = [b"-" + line for line in right.splitlines(keepends=True)[:0:-1]]
    return b"".join([b"t,x,sigma_R,residual\n", *left, right])


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
        if len(err.failures) > 10:
            print(f"  ... and {len(err.failures) - 10} more (cfbvp check lists them all)",
                  file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(args.out)
    text = _solve_text(report)
    _write(out / "solution.csv", _solution_csv(report))
    _write(out / "solve_report.txt", text.encode())
    sys.stdout.write(text)
    if report.status != "converged" or report.lower_margin < -1e-9 \
            or report.upper_margin < -1e-9:
        return EXIT_SOLVER
    return EXIT_OK


# rows of the green dump per write (about 200 KB at 201 grid points): one
# write per block, not per row, and never the whole table
_ROWS_PER_WRITE = 24


def _green_table(mu, n: int):
    """The ``green`` CSV as byte blocks of rows.  The kernel is evaluated and
    rendered before this returns, so whatever can raise has run before the
    caller opens the file; the blocks are joined as the writer takes them."""
    from .csvfmt import render
    grid = np.linspace(0.0, 1.0, n)
    # the values and the grid are rendered in one call; G(-t, -tau) =
    # G(t, tau) lets the mirrored left-half square reuse the value lines
    lines = render(np.concatenate((green_eval(mu, grid[:, None], grid[None, :]).ravel(),
                                   grid))[:, None]).splitlines(keepends=True)
    return _green_blocks(lines, n)


def _green_blocks(lines, n: int):
    # lines: the n * n value lines, row by row, then the n grid lines.  The
    # n lines at t_i interleave "t_i," with "tau_j,lower," up to the
    # diagonal and "tau_j,upper," past it (the grid increases) and with the
    # value lines, joined per t_i
    coords = [line[:-1] + b"," for line in lines[n * n:]]
    yield b"t,tau,branch,value\n"
    fields = [b""] * (3 * n)
    block = []
    for sign in (b"", b"-"):
        signed = [sign + c for c in coords]
        fields[1::3] = [c + b"upper," for c in signed]
        for i, t in enumerate(signed):
            fields[0::3] = [t] * n
            # the earlier rows switched the fields before the diagonal
            fields[3 * i + 1] = t + b"lower,"
            fields[2::3] = lines[i * n:(i + 1) * n]
            block.append(b"".join(fields))
            if len(block) == _ROWS_PER_WRITE:
                yield b"".join(block)
                block.clear()
    if block:
        yield b"".join(block)


def cmd_green(args) -> int:
    if args.grid < 2:  # 0 points make no table, 1 point the origin twice
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    _write(Path(args.out), _green_table(args.mu, args.grid))
    return EXIT_OK


def cmd_audit(args) -> int:
    mus = [float(v) for v in args.mu_list.split(",")]
    lines = ["mu,lambda,boundary_max,symmetry_max_diff,diag_jump_max_err,"
             "sup_measured,sup_closed_form,sup_exceeds_unit_bound"]
    # the fixed tables for all orders at once, one row per order; the sup
    # of G on any grid is its closed form (kernel_bound)
    orders = np.array(mus)
    taus = np.linspace(0.0, 1.0, 201)
    t, tau = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
    diag = np.linspace(-1.0, 1.0, 101)
    boundaries = np.max(np.abs(green_eval(orders, 1.0, taus)), axis=1)
    syms = np.max(np.abs(green_eval(orders, t, tau) - green_eval(orders, -t, -tau)), axis=(1, 2))
    jumps = np.max(np.abs(green_diagonal_jump(orders, diag) - 1.0), axis=1)
    for mu, lam, boundary, sym, jump, sup in zip(mus, rate_of(orders).tolist(), boundaries.tolist(),
                                                 syms.tolist(), jumps.tolist(),
                                                 kernel_bound(orders).tolist()):
        lines.append(f"{_fmt(mu)},{_fmt(lam)},{_fmt(boundary)},{_fmt(sym)},"
                     f"{_fmt(jump)},{_fmt(sup)},{_fmt(sup)},{sup > 1.0}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(Path(args.out), text.encode())
    return EXIT_OK


@functools.cache  # parse_args returns a new namespace on each call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cfbvp",
                                description="check and solve the symmetric singular "
                                            "integro-differential boundary value problem")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="verify the problem assumptions")
    sp.add_argument("problem")
    sp.add_argument("--out", default=None)
    sp.add_argument("--mesh-cells", type=int, default=None)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("solve", help="run the regularized fixed-point solver")
    sp.add_argument("problem")
    sp.add_argument("--out", required=True)
    sp.add_argument("--mesh-cells", type=int, default=None)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("green", help="dump the kernel on a tensor grid as CSV")
    sp.add_argument("mu", type=float)
    sp.add_argument("--grid", type=int, default=101)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_green)

    sp = sub.add_parser("audit", help="kernel property audit table")
    sp.add_argument("mu_list", help="comma-separated list of orders")
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
