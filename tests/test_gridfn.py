"""The numpy not-a-knot spline of ``gridfn`` against scipy's ``CubicSpline``.

The spline repeats scipy's arithmetic, so values and second derivatives
must be the same doubles, compared bit for bit (the sign of zero included).
scipy is the oracle here only: the package itself must import without it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cfbvp.cli import main
from cfbvp.gridfn import SplineNodes, SymmetricGridFunction
from cfbvp.quadrature import build_mesh

ROOT = Path(__file__).resolve().parents[1]
WORKED = ROOT / "problems" / "worked_family.prob"


def assert_same_doubles(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_matches_scipy(x, y, p):
    knots = SplineNodes(x)
    coeffs = knots.fit(y)
    oracle = CubicSpline(x, y, bc_type="not-a-knot")
    assert_same_doubles(knots.value(coeffs, p), oracle(p))
    assert_same_doubles(knots.second_derivative(coeffs, p), oracle.derivative(2)(p))
    assert_same_doubles(np.stack(coeffs[:3]), oracle.c[:3])
    assert_same_doubles(coeffs[3], 0.0 + oracle.c[3])  # fit folds in PPoly's 0.0 +
    return knots


def interchanges(knots: SplineNodes) -> int:
    return sum(swapped for _, swapped in knots._forward)


def barrier_like(t):
    # the shape of sigma_R and of the iterates: flat at 0, steep at t = 1
    return np.sqrt(1.0 - t * t) * (1.0 + np.cos(3.0 * t))


@pytest.mark.parametrize("cells", [64, 512, 2048])
def test_graded_mesh_matches_scipy(cells):
    mesh = build_mesh(0.0, 1.0, cells, gamma=3.0, singular_at="right")
    bps = mesh.breakpoints
    p = np.concatenate([bps, mesh.flat_nodes, [0.0, 1.0, -1e-9, 1.0 + 1e-9, -0.5, 1.5]])
    rng = np.random.default_rng(cells)
    for y in (barrier_like(bps), rng.standard_normal(len(bps))):
        assert_matches_scipy(bps, y, p)


@pytest.mark.parametrize("cells", [64, 512, 2048])
def test_left_half_grid_matches_scipy(cells):
    # residual_linear's left-half grid: cells shrink toward its right end
    mesh = build_mesh(0.0, 1.0, cells, gamma=3.0, singular_at="right")
    grid = -mesh.breakpoints[::-1]
    p = np.concatenate([grid, -mesh.flat_nodes, [-1.0, 0.0, -1.0 - 1e-9, 1e-9]])
    knots = assert_matches_scipy(grid, barrier_like(grid), p)
    assert interchanges(knots) > 0


def test_random_node_sets_match_scipy():
    rng = np.random.default_rng(2024)
    swaps = 0
    for case in range(300):
        n = 4 if case < 50 else int(rng.integers(5, 80))
        x = np.cumsum(10.0 ** rng.uniform(-4, 1, n)) - rng.uniform(0, 5)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        p = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 64)])
        swaps += interchanges(assert_matches_scipy(x, y, p))
    assert swaps > 0  # the row-interchange branch of the elimination ran


def test_grid_function_matches_scipy_and_reuses_safely():
    mesh = build_mesh(0.0, 1.0, 128, gamma=3.0, singular_at="right")
    bps, tau = mesh.breakpoints, mesh.flat_nodes
    g = SymmetricGridFunction(bps, barrier_like(bps))
    h = SymmetricGridFunction(bps, 2.0 * barrier_like(bps) - bps)
    for fn in (g, h, g, h):  # each keeps its own fit on the same grid
        oracle = CubicSpline(bps, fn.values, bc_type="not-a-knot")
        assert_same_doubles(fn(tau), oracle(tau))
        assert_same_doubles(fn(-tau), oracle(tau))
    p = tau.copy()
    g(p)
    p[:] = p[::-1]  # the same array object, new points
    assert_same_doubles(g(p), CubicSpline(bps, g.values)(p))
    scalar = g(0.0)
    assert scalar.shape == () and float(scalar) == float(CubicSpline(bps, g.values)(0.0))
    assert g(tau.reshape(-1, 8)).shape == (len(tau) // 8, 8)


def test_negative_zero_value_reads_as_scipy_does():
    # PPoly sums from 0.0, so a node value of -0.0 with all-negative
    # coefficients evaluates to +0.0 at its node
    x = np.linspace(0.0, 1.0, 9)
    y = x[2] ** 3 - x ** 3
    y[2] = -0.0
    assert_matches_scipy(x, y, x)
    assert np.signbit(SplineNodes(x).value(SplineNodes(x).fit(y), x[2:3])) == [False]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_fails_fast_naming_its_node(bad):
    nodes = np.linspace(0.0, 1.0, 9)
    values = np.ones(9)
    values[3] = bad
    values[6] = np.nan
    g = SymmetricGridFunction(nodes, values)
    with pytest.raises(ValueError, match=r"non-finite value .* at node 0\.375$"):
        g(0.5)
    with pytest.raises(ValueError, match="at node 0.375"):
        SplineNodes(nodes).fit(values)


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
