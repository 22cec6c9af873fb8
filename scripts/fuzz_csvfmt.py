#!/usr/bin/env python3
"""Compare the CSV renderer with Python's '%.17g', value by value.

    python -W error::RuntimeWarning scripts/fuzz_csvfmt.py [--count N] [--seed S]

Renders N seeded random float64 bit patterns (nan, inf and subnormals
included) and the 201-point kernel grid at six orders, and counts the values
whose bytes differ from Python's own rendering.  Exits 1 on any mismatch.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfbvp.csvfmt import render  # noqa: E402
from cfbvp.green import green_eval  # noqa: E402

ORDERS = (1.05, 1.5, 1.9, 1.95, 1.99, 1.9987)


def mismatches(values: np.ndarray) -> int:
    got = render(values[:, None]).split("\n")[:-1]
    want = ("%.17g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    if len(got) != len(want):
        return len(values)
    return sum(g != w for g, w in zip(got, want))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    bits = rng.integers(0, 2 ** 64, args.count, dtype=np.uint64, endpoint=False)
    cases = [(f"{args.count} random bit patterns, seed {args.seed}", bits.view(np.float64))]
    grid = np.linspace(0.0, 1.0, 201)
    cases += [(f"201-point kernel grid, mu = {mu}",
               green_eval(mu, grid[:, None], grid[None, :]).ravel()) for mu in ORDERS]
    bad = 0
    for label, values in cases:
        n = mismatches(values)
        print(f"{label}: {values.size} values, {n} mismatches")
        bad += n
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
