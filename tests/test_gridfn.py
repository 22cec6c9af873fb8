"""The local quartic interpolant of ``linear``, and the CLI without scipy.

The interpolant is exact on quartics, and its value error on smooth data
falls like h^5.  scipy is not needed here: the package itself must import
and run without it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfbvp.cli import main
from cfbvp.linear import LocalQuartic
from cfbvp.quadrature import build_mesh

ROOT = Path(__file__).resolve().parents[1]
WORKED = ROOT / "problems" / "worked_family.prob"

QUARTIC = np.polynomial.Polynomial([0.3, -1.2, 2.5, -0.7, 1.1])


def barrier_like(t):
    # the shape of sigma_R and of the iterates: flat at 0, steep at t = 1
    return np.sqrt(1.0 - t * t) * (1.0 + np.cos(3.0 * t))


@pytest.mark.parametrize("cells", [16, 64, 512, 2048])
@pytest.mark.parametrize("grading", ["uniform", "graded", "left"])
def test_quartics_are_reproduced(grading, cells):
    mesh = build_mesh(cells, gamma=1.0 if grading == "uniform" else 3.0)
    grid, p = mesh.breakpoints, mesh.flat_nodes
    if grading == "left":  # the mirrored grid, on [-1, 0]
        grid, p = -grid[::-1], -p
    fit = LocalQuartic(grid, QUARTIC(grid))
    assert np.max(np.abs(fit(p) - QUARTIC(p))) <= 1e-13
    if grading == "uniform" and cells <= 64:
        # the second derivative divides by h^2, which amplifies roundoff
        h = 1.0 / cells
        err = np.max(np.abs(fit.second_derivative(p) - QUARTIC.deriv(2)(p)))
        assert err <= 1e-13 / h**2


def test_value_error_falls_like_h5():
    errs = []
    for cells in (16, 32, 64, 128, 256):
        mesh = build_mesh(cells)
        g = LocalQuartic(mesh.breakpoints, np.cos(3.0 * mesh.breakpoints))
        errs.append(np.max(np.abs(g(mesh.flat_nodes) - np.cos(3.0 * mesh.flat_nodes))))
    factors = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all(factors >= 16.0), factors  # 2^5 = 32 measured


def test_interpolant_evaluation_and_reuse():
    mesh = build_mesh(128, gamma=3.0)
    bps, tau = mesh.breakpoints, mesh.flat_nodes
    values = {"g": barrier_like(bps), "h": 2.0 * barrier_like(bps) - bps}
    fits = {name: LocalQuartic(bps, v) for name, v in values.items()}
    for name in ("g", "h", "g", "h"):  # each keeps its own fit on the same grid
        want = LocalQuartic(bps, values[name])(tau)
        np.testing.assert_array_equal(fits[name](tau), want)
    g = fits["g"]
    assert np.max(np.abs(g(tau) - barrier_like(tau))) <= 1e-4
    p = tau.copy()
    g(p)
    p[:] = p[::-1]  # the same array object, new points
    np.testing.assert_array_equal(g(p), g(tau)[::-1])
    scalar = g(0.0)
    assert scalar.shape == () and float(scalar) == float(g(np.array([0.0]))[0])
    assert g(tau.reshape(-1, 8)).shape == (len(tau) // 8, 8)


def test_interpolant_needs_five_nodes():
    for n in (2, 3, 4):
        with pytest.raises(ValueError, match="at least 5 nodes"):
            LocalQuartic(np.linspace(0.0, 1.0, n), np.ones(n))
    assert float(LocalQuartic(np.linspace(0.0, 1.0, 5), np.ones(5))(0.3)) \
        == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_fails_fast_naming_its_node(bad):
    nodes = np.linspace(0.0, 1.0, 9)
    values = np.ones(9)
    values[3] = bad
    values[6] = np.nan
    with pytest.raises(ValueError, match=r"non-finite value .* at node 0\.375$"):
        LocalQuartic(nodes, values)


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_cli_imports_no_scipy():
    run = _python("import sys, cfbvp.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_check_and_solve_without_scipy_write_the_same_bytes(tmp_path):
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    run = _python("import sys\n"
                  "sys.modules['scipy'] = None  # any import of scipy now fails\n"
                  "from cfbvp.cli import main\n"
                  f"p, d = {str(WORKED)!r}, {str(blocked)!r}\n"
                  "sys.exit(main(['check', p, '--out', d]) or main(['solve', p, '--out', d]))")
    assert run.returncode == 0, run.stderr
    assert main(["check", str(WORKED), "--out", str(here)]) == 0
    assert main(["solve", str(WORKED), "--out", str(here)]) == 0
    names = sorted(f.name for f in here.iterdir())
    assert names == ["hypothesis_report.txt", "sigma_R.csv", "solution.csv", "solve_report.txt"]
    assert sorted(f.name for f in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (here / name).read_bytes(), name
