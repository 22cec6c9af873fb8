#!/usr/bin/env python3
"""Refinement study: how the discretization and regularization errors decay.

These tables are printed:

  * linear-equation defect of the homogeneous solutions cosh(lambda t) on
    the right half and sinh(lambda t) on the left half under uniform mesh
    doubling (limited by the local quartic's x'', O(h^3), so the expected
    decay factor is about 8 per doubling; the script exits 1 if a factor of
    either half falls below 4);
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


MIN_FACTOR = 4.0  # the decay the acceptance tests require per doubling


def linear_table() -> bool:
    """Print the defect tables; True if every doubling factor is at least MIN_FACTOR.

    The left half is reached by reflecting x and y.  The table only gates
    the order: with y = 0 the defect is linear in x, so an odd x reads the
    same magnitudes with the reflection of x or without it (the odd-forcing
    test in tests/test_linear.py is the one that catches a missing one).
    """
    lam = rate_of(1.5)
    zero = lambda s: 0.0 * np.asarray(s)
    ok = True
    for title, fn, half in (("linear defect of cosh", np.cosh, "right"),
                            ("\nleft-half linear defect of sinh", np.sinh, "left")):
        print(f"{title}(lambda t), mu = 1.5, uniform mesh")
        print(f"{'cells':>6} {'sup defect':>12} {'factor':>8}")
        sups = []
        for cells in (64, 128, 256, 512, 1024):
            res = residual_linear(1.5, lambda s: fn(lam * np.asarray(s)), zero,
                                  build_mesh(cells), half=half)
            sups.append(np.max(np.abs(res)))
            factor = f"{sups[-2] / sups[-1]:8.2f}" if len(sups) > 1 else " " * 8
            print(f"{cells:>6} {sups[-1]:>12.3e} {factor}")
        ok = ok and all(a / b >= MIN_FACTOR for a, b in zip(sups, sups[1:]))
    return ok


def nonlinear_table(problem: str) -> None:
    print("\nnonlinear solve on the worked family")
    print(f"{'cells':>6} {'status':>12} {'residual':>12} {'last dev':>10} {'x(0)':>12}")
    for cells in (32, 64, 128, 256):
        spec = load_problem(problem, {"mesh_cells": cells})
        rep = solve(spec)
        print(f"{cells:>6} {rep.status:>12} {rep.residual_sup:>12.3e} "
              f"{rep.inter_m_deviations[-1]:>10.3e} {rep.x[0]:>12.8f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default=str(ROOT / "problems" / "worked_family.prob"))
    args = ap.parse_args()
    order_ok = linear_table()
    nonlinear_table(args.problem)
    if not order_ok:
        print(f"error: a linear-defect factor fell below {MIN_FACTOR}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
