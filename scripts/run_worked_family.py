#!/usr/bin/env python3
"""Check and solve the shipped worked problem family end to end.

Equivalent to:

    cfbvp check problems/worked_family.prob --out results/worked_family
    cfbvp solve problems/worked_family.prob --out results/worked_family

in one process, through the CLI's own entry point: the files it writes are
the CLI's, and a failing check stops the run before the solve.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfbvp.cli import main as cli_main  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default=str(ROOT / "problems" / "worked_family.prob"))
    ap.add_argument("--out", default=str(ROOT / "results" / "worked_family"))
    args = ap.parse_args()

    code = cli_main(["check", args.problem, "--out", args.out])
    if code != 0:
        return code
    return cli_main(["solve", args.problem, "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
