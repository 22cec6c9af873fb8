"""Byte-for-byte regression tests of the ``cfbvp check`` outputs.

Each case is a variant of the worked family chosen to exercise one path of
the A1/A2 lattice checks: a pass, every kind of lattice violation, an
expression error on part of the lattice, non-finite values and a constant
expression.  ``tests/data/golden/<case>/`` holds the ``hypothesis_report.txt``
and ``sigma_R.csv`` written with ``hypotheses.LATTICE_DENSITY`` set to 9;
``tests/data/golden/default_density.sha256`` holds the sha256 of the report
at the default density.  The report lists every failure witness in order, so
any change to the order or text of a ``CheckFailure`` shows up here.
``tests/data/golden/solve.sha256`` holds the sha256 of ``solution.csv`` and
``solve_report.txt`` of ``cfbvp solve`` for ``problems/worked_family.prob``
and its mu = 1.9 twin at 128 and 512 cells, so a rounding change on the
Picard path shows up too.
The goldens were written by a point-by-point evaluation of the checks, so
they pin the lattice (whole-array) evaluation to it; ``psi_domain`` (an
expression error of psi inside (0, 1), once an unreported exit 1) and the
``ratio = nan`` lines were written after the fixes that report them.

Regenerate the goldens, only when a change to the reports is intended, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from pathlib import Path

import pytest

from cfbvp import hypotheses
from cfbvp.cli import EXIT_HYPOTHESIS, EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
WORKED_FAMILY = Path(__file__).resolve().parents[1] / "problems" / "worked_family.prob"
SMALL_DENSITY = 9

F = "abs(t)*(1-t^2)^(-0.25)*x^(-0.25)"
Q = "s*(1-s^2)^(-0.25)"
PSI = "s*(1-s^2)^(-0.25)*R^(-0.25)"
# unread (its base is not shown positive), and fails only on A2's SIZE_MESH,
# whose last nodes pass 0.999999999
PSI_TAIL = PSI + " + 0*sqrt(0.999999999 - s)"
BASE = dict(f=F, q=Q, u="x^(-0.25)", v="x^(0.25)", psi=PSI)

CASES = {
    "worked": {},
    "majorant": {"u": "x^(-0.125)"},
    "odd_f": {"f": "t*x^(-0.25)"},
    "f0_nonzero": {"f": F + " + 0.001"},
    "domain_region": {"f": F + " + 0*sqrt(x - 0.3)"},
    "overflow": {"f": F + " + 0*exp(1000*x)"},
    "v_decreasing": {"v": "x^(-0.25)"},
    "u_constant": {"u": "1"},
    "u_domain": {"u": "x^(-0.25) + 0*sqrt(x - 1)"},
    "q_domain": {"q": Q + " + 0*sqrt(s - 0.5)"},
    "psi_negative": {"psi": PSI + " - 0.5"},
    "psi_origin": {"psi": PSI + " + 0*s^(-1)"},
    "u_increasing": {"u": "x^(0.25)"},
    "q_overflow": {"q": Q + " + 0*exp(1000*s)"},
    "f_left_overflow": {"f": F + " + 0*exp(-1000*t)"},
    "t_domain": {"f": F + " + 0*sqrt(t - 0.5)"},
    "psi_domain": {"psi": PSI + " + 0*sqrt(s - 0.5)"},
    "q_constant": {"q": "3"},
    "psi_constant": {"psi": "0.001"},
    "q_divergent": {"q": "s*(1-s^2)^(-1.2)"},
    "q_exp_overflow": {"q": "s*exp(800*s)"},
    "psi_tail": {"psi": PSI_TAIL},
    "psi_tail_q_domain": {"psi": PSI_TAIL, "q": Q + " + 0*sqrt(s - 0.5)"},
}


def problem_text(case: str) -> str:
    exprs = {**BASE, **CASES[case]}
    lines = ["mu = 1.5", "R = 100", *(f"{k} = {v}" for k, v in exprs.items()),
             "mesh.cells = 32", "solver.m_schedule = 16,32,64,128"]
    return "\n".join(lines) + "\n"


def run_check(case: str, density: int | None, work: Path) -> tuple[int, Path]:
    """``cfbvp check`` of the case, at ``density`` if given, else at the default."""
    problem = work / f"{case}.prob"
    problem.write_text(problem_text(case))
    out = work / case
    with pytest.MonkeyPatch.context() as mp:  # outside pytest too, for regenerate
        if density is not None:
            mp.setattr(hypotheses, "LATTICE_DENSITY", density)
        code = main(["check", str(problem), "--out", str(out)])
    return code, out


def _expected_code(report: str) -> int:
    passed = "A1 passed = True" in report and "A2 passed = True" in report
    return EXIT_OK if passed else EXIT_HYPOTHESIS


def _default_density_digests() -> dict:
    lines = (GOLDEN / "default_density.sha256").read_text().splitlines()
    return {case: digest for digest, case in (ln.split() for ln in lines)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_and_barrier_match_golden(case, tmp_path, capsys):
    code, out = run_check(case, SMALL_DENSITY, tmp_path)
    capsys.readouterr()
    for name in ("hypothesis_report.txt", "sigma_R.csv"):
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
    assert code == _expected_code((out / "hypothesis_report.txt").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_density_report_digest(case, tmp_path, capsys):
    code, out = run_check(case, None, tmp_path)
    capsys.readouterr()
    report = (out / "hypothesis_report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == _default_density_digests()[case]
    assert code == _expected_code(report.decode())


SOLVES = {f"{name}_{cells}": (mu, cells) for name, mu in (("worked_family", None),
                                                          ("twin_1.9", "1.9"))
          for cells in (128, 512)}


def run_solve(case: str, work: Path) -> Path:
    mu, cells = SOLVES[case]
    text = WORKED_FAMILY.read_text()
    if mu is not None:
        text, count = re.subn(r"(?m)^mu = 1\.5$", f"mu = {mu}", text)
        assert count == 1
    problem = work / f"{case}.prob"
    problem.write_text(text)
    out = work / case
    assert main(["solve", str(problem), "--mesh-cells", str(cells), "--out", str(out)]) == EXIT_OK
    return out


def _solve_digests() -> dict:
    lines = (GOLDEN / "solve.sha256").read_text().splitlines()
    return {name: digest for digest, name in (ln.split() for ln in lines)}


@pytest.mark.parametrize("case", sorted(SOLVES))
def test_solve_outputs_digest(case, tmp_path, capsys):
    out = run_solve(case, tmp_path)
    capsys.readouterr()
    digests = _solve_digests()
    for name in ("solution.csv", "solve_report.txt"):
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digests[f"{case}/{name}"], name


def regenerate(work: Path) -> None:
    # check and solve write their reports to stdout too: only the files count
    with contextlib.redirect_stdout(io.StringIO()):
        (work / "small").mkdir()
        (work / "default").mkdir()
        digests = []
        for case in sorted(CASES):
            _, out = run_check(case, SMALL_DENSITY, work / "small")
            target = GOLDEN / case
            target.mkdir(parents=True, exist_ok=True)
            for name in ("hypothesis_report.txt", "sigma_R.csv"):
                (target / name).write_bytes((out / name).read_bytes())
            _, out = run_check(case, None, work / "default")
            report = (out / "hypothesis_report.txt").read_bytes()
            digests.append(f"{hashlib.sha256(report).hexdigest()}  {case}\n")
        (GOLDEN / "default_density.sha256").write_text("".join(digests))
        digests = []
        for case in SOLVES:
            out = run_solve(case, work)
            for name in ("solution.csv", "solve_report.txt"):
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                digests.append(f"{digest}  {case}/{name}\n")
        (GOLDEN / "solve.sha256").write_text("".join(digests))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
