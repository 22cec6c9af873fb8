#!/usr/bin/env python3
"""Refinement study: how the discretization and regularization errors decay.

Two tables are printed:

  * linear-equation defect of the homogeneous solution cosh(lambda t) under
    uniform mesh doubling (limited by the cubic-spline fit of x'', so the
    expected decay factor is about 8 per doubling);
  * nonlinear solve on the shipped worked family across mesh resolutions,
    with the inter-level deviations that stand in for the m -> infinity
    limit (measured: a factor 0.58, then 0.57, per doubling of m; on a
    schedule extended to m = 16384 the factor falls to 0.517, so the decay
    tends to 1/m).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from cfbvp.cf_derivative import rate_of  # noqa: E402
from cfbvp.linear import residual_linear  # noqa: E402
from cfbvp.problem_io import load_problem  # noqa: E402
from cfbvp.quadrature import build_mesh  # noqa: E402
from cfbvp.solver import solve  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]


def linear_table() -> None:
    lam = rate_of(1.5)
    fn = lambda s: np.cosh(lam * np.asarray(s))
    zero = lambda s: 0.0 * np.asarray(s)
    print("linear defect of cosh(lambda t), mu = 1.5, uniform mesh")
    print(f"{'cells':>6} {'sup defect':>12} {'factor':>8}")
    prev = None
    for cells in (64, 128, 256, 512, 1024):
        sup = residual_linear(1.5, fn, zero, build_mesh(0.0, 1.0, cells)).sup
        factor = f"{prev / sup:8.2f}" if prev else " " * 8
        print(f"{cells:>6} {sup:>12.3e} {factor}")
        prev = sup


def nonlinear_table(problem: str) -> None:
    print("\nnonlinear solve on the worked family")
    print(f"{'cells':>6} {'status':>12} {'residual':>12} {'last dev':>10} {'x(0)':>12}")
    for cells in (32, 64, 128, 256):
        spec = load_problem(problem, {"mesh_cells": cells})
        rep = solve(spec)
        print(f"{cells:>6} {rep.status:>12} {rep.residual_sup:>12.3e} "
              f"{rep.inter_m_deviations[-1]:>10.3e} {float(rep.x(0.0)):>12.8f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default=str(ROOT / "problems" / "worked_family.prob"))
    args = ap.parse_args()
    linear_table()
    nonlinear_table(args.problem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
