import bisect
import math

import numpy as np
import pytest

from cfbvp.green import GreenOperator, rate_of
from cfbvp.quadrature import MeshError, build_mesh, mesh_from_breakpoints
from linear_oracles import (LocalQuartic, cf_left, cf_right, general_solution_left_half,
                            general_solution_right_half, residual_linear)

MU = 1.5
LAM = rate_of(MU)
MESH = build_mesh(256, 3.0)
UNIFORM = build_mesh(512)

# oracle: int_0^1 e^{1-s} s^2 ds = [-e^{1-s}(s^2+2s+2)]_0^1 = 2e - 5
INT_EXP_SQUARE = 2.0 * math.e - 5.0


def test_homogeneous_cosh():
    t = MESH.breakpoints
    got = general_solution_right_half(MU, 1.0, 0.0, lambda s: 0.0, MESH)
    assert np.max(np.abs(got - np.cosh(LAM * t))) <= 1e-14
    got = general_solution_left_half(MU, 1.0, 0.0, lambda s: 0.0, MESH)
    assert np.max(np.abs(got - np.cosh(LAM * -t[::-1]))) <= 1e-14


def test_sinh_vanishes_at_origin():
    assert general_solution_right_half(MU, 0.0, 1.0, lambda s: 0.0, MESH)[0] == 0.0


def test_particular_term_oracle():
    got = general_solution_right_half(MU, 0.0, 0.0, lambda s: s * s, MESH)[-1]
    assert abs(got + INT_EXP_SQUARE) <= 1e-12


def test_empty_integral_at_origin():
    assert general_solution_left_half(MU, 0.0, 0.0, lambda s: s * s, MESH)[-1] == 0.0


def test_left_half_odd_forcing_oracle():
    # -int_{-1}^0 e^{1+s} s^3 ds = -[e^{1+s}(s^3 - 3s^2 + 6s - 6)]_{-1}^0 = 6e - 16;
    # an even forcing could not tell y(s) from y(-s)
    got = general_solution_left_half(MU, 0.0, 0.0, lambda s: s ** 3, MESH)[0]
    assert abs(got - (6.0 * math.e - 16.0)) <= 1e-14


def test_mirror_between_halves():
    # for even y, the left-half value at -t matches the right-half value at t
    # when a1 = b1 and a2 = -b2
    y = lambda s: s * s
    right = general_solution_right_half(MU, 0.7, 0.3, y, MESH)
    left = general_solution_left_half(MU, 0.7, -0.3, y, MESH)
    assert np.max(np.abs(right - left[::-1])) <= 1e-13


@pytest.mark.parametrize("fn", [
    lambda mesh: cf_left(lambda s: 0.0, MU, mesh),
    lambda mesh: cf_right(lambda s: 0.0, MU, mesh),
    lambda mesh: general_solution_right_half(MU, 1.0, 0.0, lambda s: 0.0, mesh),
    lambda mesh: general_solution_left_half(MU, 1.0, 0.0, lambda s: 0.0, mesh),
    lambda mesh: residual_linear(MU, np.cosh, lambda s: 0.0, mesh),
    lambda mesh: residual_linear(MU, np.cosh, lambda s: 0.0, mesh, half="left"),
], ids=["cf_left", "cf_right", "right_half", "left_half", "residual_right", "residual_left"])
@pytest.mark.parametrize("a, b", [(-1.0, 0.0), (0.0, 2.0), (0.5, 1.0)])
def test_mesh_off_the_unit_interval_rejected(fn, a, b):
    # the oracles have no domain check of their own: a mesh off [0, 1] is
    # refused where it is built, so none can reach these functions
    with pytest.raises(MeshError, match=r"mesh must cover \[0, 1\], got "):
        fn(mesh_from_breakpoints(np.linspace(a, b, 65)))


def test_bvp_square_forcing(quad_green):
    y = LocalQuartic(MESH.breakpoints, MESH.breakpoints ** 2)
    op = GreenOperator(MU, MESH)
    x = op.apply(y(op.tau))[:len(op.grid)]
    assert abs(x[-1]) <= 1e-12
    assert abs(x[0] - INT_EXP_SQUARE / math.cosh(1.0)) <= 1e-12
    # the interpolant of s^2 is s^2 (the local quartic reproduces quartics)
    want = quad_green(MU, lambda s: s * s, MESH.breakpoints)
    assert np.max(np.abs(x - want)) <= 1e-12


def _scalar_quartic(interp):
    """The pieces of a LocalQuartic evaluated one float at a time (bisect and
    Horner, the same arithmetic as its __call__): scipy's quad calls its
    integrand once per abscissa, where numpy's per-call overhead dominates."""
    x, h, coeffs = interp.x.tolist(), interp.h.tolist(), interp.coeffs.tolist()
    last = len(h) - 1

    def value(p):
        i = min(max(bisect.bisect_right(x, p) - 1, 0), last)
        u = (p - x[i]) / h[i]
        a0, a1, a2, a3, a4 = coeffs[i]
        return (((a4 * u + a3) * u + a2) * u + a1) * u + a0
    return value


def test_bvp_cross_check_random_smooth(quad_green):
    rng = np.random.default_rng(11)
    nodes = MESH.breakpoints
    op = GreenOperator(MU, MESH)
    for _ in range(3):
        a, b = rng.uniform(-2.0, 2.0, 2)
        y = LocalQuartic(nodes, a * nodes * nodes + b * np.sin(nodes) * nodes)
        x = op.apply(y(op.tau))[:len(op.grid)]
        # the oracle integrates the same interpolant piece by piece, at every
        # 32nd node to keep the scalar quadrature cheap
        want = quad_green(MU, _scalar_quartic(y), nodes[::32], knots=nodes)
        assert np.max(np.abs(x[::32] - want)) <= 1e-12


@pytest.mark.parametrize("half", ["right", "left"])
@pytest.mark.parametrize("fn", [np.cosh, np.sinh])
def test_homogeneous_residual(half, fn):
    res = residual_linear(MU, lambda t: fn(LAM * t), lambda t: 0.0, UNIFORM, half=half)
    assert np.max(np.abs(res)) <= 1e-8


def test_left_half_residual_of_odd_forcing():
    # x = t^3 on [-1, 0]: (2 - mu) D x = int_t^0 e^{-lam(s-t)} 6s ds, and the
    # left-half equation (2 - mu) D x + y = lam^2 int_t^0 e^{-lam(s-t)} x(s) ds
    # fixes y in closed form (here lam = 1); y is not even, and a residual
    # that read y(s) for y(-s) would have sup 2
    assert LAM == 1.0
    r = lambda t: -np.asarray(t, dtype=float)
    cfd = lambda t: -6.0 * (r(t) - (1.0 - np.exp(-r(t))))
    memory = lambda t: -(r(t) ** 3 - 3.0 * r(t) ** 2 + 6.0 * r(t) - 6.0 + 6.0 * np.exp(-r(t)))
    y = lambda t: memory(t) - cfd(t)
    res = residual_linear(MU, lambda t: t ** 3, y, build_mesh(256), half="left")
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("fn,half", [(np.cosh, "right"), (np.sinh, "left")],
                         ids=["right", "left"])
def test_residual_decreases_under_doubling(fn, half):
    sups = [np.max(np.abs(residual_linear(MU, lambda t: fn(LAM * t), lambda t: 0.0,
                                          build_mesh(n), half=half)))
            for n in (64, 128, 256, 512, 1024)]
    # interpolation-limited: x'' of the local quartic is O(h^3), a factor 8
    factors = [a / b for a, b in zip(sups, sups[1:])]
    assert min(factors) >= 4.0, factors


def test_residual_of_bvp_solution_refines():
    sups = []
    for cells in (64, 128):
        mesh = build_mesh(cells)
        y = LocalQuartic(mesh.breakpoints, mesh.breakpoints ** 2)
        op = GreenOperator(MU, mesh)
        x = LocalQuartic(mesh.breakpoints, op.apply(y(op.tau))[:len(op.grid)])
        sups.append(np.max(np.abs(residual_linear(MU, x, y, mesh))))
    assert sups[1] < sups[0]
    assert sups[1] <= 1e-5


def test_residual_diagnostic_not_validator():
    # x(t) = t violates symmetry and the boundary conditions; the residual
    # is large but no error is raised
    res = residual_linear(MU, lambda t: t, lambda t: 0.0, UNIFORM)
    assert np.max(np.abs(res)) > 0.1


def test_zero_forcing_compatibility_is_sharp(slope_at_zero):
    # with y = 1 (violating y(0) = 0) the one-sided derivative at 0+ of the
    # boundary-value profile tends to -y(0) = -1
    b1 = (math.e - 1.0) / math.cosh(LAM)  # fits x(1) = 0 for lam = 1
    x = general_solution_right_half(MU, b1, 0.0, lambda s: 1.0, UNIFORM)
    deriv = slope_at_zero(*x[:3], float(UNIFORM.breakpoints[1]))
    assert abs(deriv + 1.0) <= 1e-3


def test_graded_mesh_rejected():
    # x'' divides by h^2: on the graded cells near t = 1 roundoff swamped
    # the defect (cosh: 6.2e-8, 1.8e-8, 4.2e-7 at 128, 512, 2048 cells)
    mesh = build_mesh(512, 3.0)
    with pytest.raises(ValueError, match="uniform"):
        residual_linear(MU, lambda t: np.cosh(LAM * t), lambda t: 0.0, mesh)


def test_grid_too_coarse_rejected():
    mesh = build_mesh(4)
    with pytest.raises(ValueError):
        residual_linear(MU, lambda t: t, lambda t: 0.0, mesh)


# the local quartic: exact on quartics, its value error on smooth data falls like h^5

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
