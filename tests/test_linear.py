import math

import numpy as np
import pytest

from cfbvp.cf_derivative import rate_of
from cfbvp.green import apply_green
from cfbvp.gridfn import SymmetricGridFunction
from cfbvp.linear import (GeneralSolutionCoeffs, general_solution_left_half,
                          general_solution_right_half, residual_linear)
from cfbvp.quadrature import build_mesh

MU = 1.5
LAM = rate_of(MU)
MESH = build_mesh(0.0, 1.0, 256, 3.0, "right")
UNIFORM = build_mesh(0.0, 1.0, 512)

# oracle: int_0^1 e^{1-s} s^2 ds = [-e^{1-s}(s^2+2s+2)]_0^1 = 2e - 5
INT_EXP_SQUARE = 2.0 * math.e - 5.0


def test_homogeneous_cosh():
    c = GeneralSolutionCoeffs(1.0, 0.0)
    for t in (0.0, 0.3, 1.0):
        got = general_solution_right_half(MU, c, lambda s: 0.0, t, MESH)
        assert abs(got - math.cosh(LAM * t)) <= 1e-14
    for t in (-0.4, -1.0):
        got = general_solution_left_half(MU, c, lambda s: 0.0, t, MESH)
        assert abs(got - math.cosh(LAM * t)) <= 1e-14


def test_sinh_vanishes_at_origin():
    c = GeneralSolutionCoeffs(0.0, 1.0)
    assert general_solution_right_half(MU, c, lambda s: 0.0, 0.0, MESH) == 0.0


def test_particular_term_oracle():
    c = GeneralSolutionCoeffs(0.0, 0.0)
    got = general_solution_right_half(MU, c, lambda s: s * s, 1.0, MESH)
    assert abs(got + INT_EXP_SQUARE) <= 1e-12


def test_empty_integral_at_origin():
    c = GeneralSolutionCoeffs(0.0, 0.0)
    assert general_solution_left_half(MU, c, lambda s: s * s, 0.0, MESH) == 0.0


def test_mirror_between_halves():
    # for even y, the left-half value at -t matches the right-half value at t
    # when a1 = b1 and a2 = -b2
    y = lambda s: s * s
    b = GeneralSolutionCoeffs(0.7, 0.3)
    a = GeneralSolutionCoeffs(0.7, -0.3)
    for t in (0.2, 0.55, 0.9):
        right = general_solution_right_half(MU, b, y, t, MESH)
        left = general_solution_left_half(MU, a, y, -t, MESH)
        assert abs(right - left) <= 1e-13


def test_out_of_range_t():
    c = GeneralSolutionCoeffs(0.0, 0.0)
    with pytest.raises(ValueError):
        general_solution_right_half(MU, c, lambda s: 0.0, -0.1, MESH)
    with pytest.raises(ValueError):
        general_solution_left_half(MU, c, lambda s: 0.0, 0.1, MESH)


def test_bvp_square_forcing(quad_green):
    y = SymmetricGridFunction.from_callable(lambda s: s * s, MESH.breakpoints)
    x = apply_green(MU, y, MESH)
    assert abs(x.values[-1]) <= 1e-12
    assert abs(x.values[0] - INT_EXP_SQUARE / math.cosh(1.0)) <= 1e-12
    # the interpolant of s^2 is s^2 (the local quartic reproduces quartics)
    want = quad_green(MU, lambda s: s * s, MESH.breakpoints)
    assert np.max(np.abs(x.values - want)) <= 1e-12


def test_bvp_zero_forcing():
    y = SymmetricGridFunction(MESH.breakpoints, np.zeros(len(MESH.breakpoints)))
    x = apply_green(MU, y, MESH)
    assert np.all(x.values == 0.0)


def test_bvp_cross_check_random_smooth(quad_green):
    rng = np.random.default_rng(11)
    nodes = MESH.breakpoints
    for _ in range(3):
        a, b = rng.uniform(-2.0, 2.0, 2)
        y = SymmetricGridFunction.from_callable(
            lambda s: a * s * s + b * np.sin(s) * s, nodes)
        x = apply_green(MU, y, MESH)
        # the oracle integrates the same interpolant piece by piece, at every
        # 32nd node to keep the scalar quadrature cheap
        want = quad_green(MU, y, nodes[::32], knots=nodes)
        assert np.max(np.abs(x.values[::32] - want)) <= 1e-12


@pytest.mark.parametrize("half", ["right", "left"])
@pytest.mark.parametrize("fn", [np.cosh, np.sinh])
def test_homogeneous_residual(half, fn):
    res = residual_linear(MU, lambda t: fn(LAM * t), lambda t: 0.0, UNIFORM, half=half)
    assert res.sup <= 1e-8


def test_residual_decreases_under_doubling():
    sups = []
    for cells in (128, 256, 512):
        mesh = build_mesh(0.0, 1.0, cells)
        sups.append(residual_linear(MU, lambda t: np.cosh(LAM * t),
                                    lambda t: 0.0, mesh).sup)
    # interpolation-limited: x'' of the local quartic is O(h^3), a factor 8
    assert sups[0] / sups[1] >= 4.0
    assert sups[1] / sups[2] >= 4.0


def test_residual_of_bvp_solution_refines():
    sups = []
    for cells in (64, 128):
        mesh = build_mesh(0.0, 1.0, cells)
        y = SymmetricGridFunction.from_callable(lambda s: s * s, mesh.breakpoints)
        x = apply_green(MU, y, mesh)
        sups.append(residual_linear(MU, x, y, mesh).sup)
    assert sups[1] < sups[0]
    assert sups[1] <= 1e-5


def test_residual_diagnostic_not_validator():
    # x(t) = t violates symmetry and the boundary conditions; the residual
    # is large but no error is raised
    res = residual_linear(MU, lambda t: t, lambda t: 0.0, UNIFORM)
    assert res.sup > 0.1


def test_zero_forcing_compatibility_is_sharp():
    # with y = 1 (violating y(0) = 0) the one-sided derivative at 0+ of the
    # boundary-value profile tends to -y(0) = -1
    b1 = (math.e - 1.0) / math.cosh(LAM)  # fits x(1) = 0 for lam = 1
    c = GeneralSolutionCoeffs(b1, 0.0)
    h = 1e-3
    x = [general_solution_right_half(MU, c, lambda s: 1.0, t, MESH)
         for t in (0.0, h, 2 * h)]
    deriv = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
    assert abs(deriv + 1.0) <= 1e-3


def test_graded_mesh_rejected():
    # x'' divides by h^2: on the graded cells near t = 1 roundoff swamped
    # the defect (cosh: 6.2e-8, 1.8e-8, 4.2e-7 at 128, 512, 2048 cells)
    mesh = build_mesh(0.0, 1.0, 512, 3.0, "right")
    with pytest.raises(ValueError, match="uniform"):
        residual_linear(MU, lambda t: np.cosh(LAM * t), lambda t: 0.0, mesh)


def test_grid_too_coarse_rejected():
    mesh = build_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        residual_linear(MU, lambda t: t, lambda t: 0.0, mesh)
