#!/usr/bin/env python3
"""Fuzz the CLI's exit-code contract with random problem files.

    python -W error::RuntimeWarning scripts/fuzz_cli.py [--count N] [--seed S]

Each of the N seeded files is the worked family (problems/worked_family.prob)
on 32 cells with one or two of f, q, u, v and psi replaced by, or multiplied
by, a random expression tree.  A tree reads that expression's own variables,
every function of the grammar and hard constants (0, -1, 1e-300, 1e300,
0.999999999, and (1 - s^2)^c factors).  In 20% of the files mu is one of
1.0001, 1.99, 1.9987 and 1.999, and in 20% R is one of 0.5, 3, 1e-300 and
1e300.  Each file goes through ``cfbvp check`` and, after an exit 0, through
``cfbvp solve``, each command twice in this process with every warning an
error.  A violation is

  * an exception out of ``cli.main``;
  * an exit code outside {0, 1, 2, 3};
  * a non-zero exit with no reason: nothing on stderr, and, for ``check``
    exit 2, no ``A1 failure:`` or ``A2 failure:`` line;
  * two runs that differ in exit code, stdout, stderr or any output byte.

A passed ``check`` followed by a ``solve`` exit 3 is a sampling gap: the
solver meets a failure where the checks' lattices do not reach (ROADMAP
item 9).  It is printed and counted, not a violation.  Exits 1 on any
violation.
"""

import argparse
import contextlib
import io
import pathlib
import random
import shutil
import sys
import tempfile
import warnings
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfbvp.cli import main as cfbvp  # noqa: E402
from cfbvp.expressions import _FUNCTIONS  # noqa: E402  (the grammar's own table)

FAMILY = {
    "f": "abs(t)*(1-t^2)^(-0.25)*x^(-0.25)",
    "q": "s*(1-s^2)^(-0.25)",
    "u": "x^(-0.25)",
    "v": "x^(0.25)",
    "psi": "s*(1-s^2)^(-0.25)*R^(-0.25)",
}
# each expression's variables; the first one is the radial variable of its
# (1 - s^2)^c factors
VARIABLES = {"f": ("t", "x"), "q": ("s",), "u": ("x",), "v": ("x",), "psi": ("s", "R")}
CONSTANTS = ("0", "-1", "1e-300", "1e300", "0.999999999", "0.5", "2")
POWERS = ("-1.5", "-1", "-0.5", "-0.25", "0.5", "1")
ORDERS = ("1.0001", "1.99", "1.9987", "1.999")
LEVELS = ("0.5", "3", "1e-300", "1e300")
OPERATORS = ("+", "-", "*", "/", "^")
FAILURE_LINES = ("A1 failure:", "A2 failure:")


def tree(rng: random.Random, variables: tuple, depth: int) -> str:
    """A random expression over ``variables``, fully parenthesized."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.5:
            return rng.choice(variables)
        if pick < 0.85:
            return f"({rng.choice(CONSTANTS)})"
        return f"(1-{variables[0]}^2)^({rng.choice(POWERS)})"
    pick = rng.random()
    if pick < 0.5:
        a, b = tree(rng, variables, depth - 1), tree(rng, variables, depth - 1)
        return f"({a}{rng.choice(OPERATORS)}{b})"
    if pick < 0.6:
        return f"(-{tree(rng, variables, depth - 1)})"
    name = rng.choice(sorted(_FUNCTIONS))
    args = ", ".join(tree(rng, variables, depth - 1) for _ in range(_FUNCTIONS[name][0]))
    return f"{name}({args})"


def problem_text(rng: random.Random) -> str:
    """The worked family on 32 cells with one or two expressions fuzzed."""
    exprs = dict(FAMILY)
    for name in rng.sample(sorted(FAMILY), rng.choice((1, 2))):
        fuzz = tree(rng, VARIABLES[name], 3)
        exprs[name] = fuzz if rng.random() < 0.5 else f"({exprs[name]})*{fuzz}"
    mu = rng.choice(ORDERS) if rng.random() < 0.2 else "1.5"
    R = rng.choice(LEVELS) if rng.random() < 0.2 else "100"
    lines = [f"mu = {mu}", f"R = {R}", *(f"{k} = {v}" for k, v in exprs.items()),
             "mesh.cells = 32"]
    return "\n".join(lines) + "\n"


def run(argv: list, out: pathlib.Path) -> tuple:
    """(exit code or escaped exception, stdout, stderr, {file: bytes} under out)."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = cfbvp(argv)
        except Exception as err:  # the contract lets none escape
            code = f"{type(err).__name__}: {err}"
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, stdout.getvalue(), stderr.getvalue(), files


def violations(command: str, first: tuple, second: tuple) -> list:
    code, out, err, _ = first
    found = []
    if not isinstance(code, int):
        found.append(f"exception out of main: {code}")
    elif code not in (0, 1, 2, 3):
        found.append(f"exit code {code} outside the contract")
    elif code and not err.strip() and not (command == "check" and code == 2 and any(
            line.startswith(FAILURE_LINES) for line in out.splitlines())):
        found.append(f"exit {code} with no reason")
    differ = [what for what, a, b in zip(("exit code", "stdout", "stderr", "output files"),
                                         first, second) if a != b]
    if differ:
        found.append(f"two runs differ in {', '.join(differ)}")
    return found


def campaign(count: int, seed: int, work: pathlib.Path) -> tuple:
    """Run ``count`` files; (violations, sampling gaps, exit tally)."""
    rng = random.Random(seed)
    problem, out = work / "fuzz.prob", work / "out"
    bad = gaps = 0
    tally = Counter()
    for i in range(count):
        text = problem_text(rng)
        problem.write_text(text)
        codes = {}
        for command in ("check", "solve"):
            argv = [command, str(problem), "--out", str(out)]
            first, second = run(argv, out), run(argv, out)
            codes[command] = first[0]
            tally[command, first[0] if isinstance(first[0], int) else "exception"] += 1
            for found in violations(command, first, second):
                bad += 1
                print(f"VIOLATION, file {i}, cfbvp {command}: {found}\n{text}")
            if first[0] != 0:
                break
        if codes.get("solve") == 3:
            gaps += 1
            print(f"sampling gap, file {i}: check passed, solve exited 3\n{text}")
    return bad, gaps, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        bad, gaps, tally = campaign(args.count, args.seed, pathlib.Path(work))
    exits = ", ".join(f"{command} exit {code}: {n}" for (command, code), n in
                      sorted(tally.items(), key=lambda item: str(item[0])))
    print(f"{args.count} files, seed {args.seed}: {exits}; "
          f"{bad} violations, {gaps} sampling gaps")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
