import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfbvp.quadrature import (GAUSS_INTEGRATION_MATRIX, GAUSS_NODES, Mesh, MeshError,
                              NonFiniteIntegrandError, _sum_left_to_right, build_mesh,
                              integrate, mesh_from_breakpoints)


def test_uniform_breakpoints():
    m = build_mesh(4, 1.0)
    assert np.allclose(m.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_right_graded_breakpoints():
    m = build_mesh(4, 2.0)
    assert np.allclose(m.breakpoints, [0.0, 0.4375, 0.75, 0.9375, 1.0], atol=1e-15)


# (cells, gamma) -> the cells before the grading's first gap of at most
# 16 eps, on the gradings tried below that have one.  The solver's default
# grading 3 has none at any cell count tried, and 128 cells have none up to
# grading 6.85
NARROW = {(128, 20.0): 104, (512, 6.0): 510, (512, 20.0): 406, (1024, 6.0): 1020,
          (1024, 20.0): 805, (4096, 6.0): 4076, (4096, 20.0): 3154, (8192, 6.0): 8147,
          (8192, 20.0): 6239, (128, 7.0): 127, (128, 500.0): 9, (128, 1e3): 5,
          (128, 3e4): 1, (128, 4e4): 1, (128, 1e5): 1, (64, 500.0): 5}


@pytest.mark.parametrize("cells, gamma", [
    *((c, g) for c in (1, 2, 128, 512, 1024, 4096, 8192) for g in (1.0, 3.0, 6.0, 20.0)),
    *((128, g) for g in (6.85, 7.0, 500.0, 1e3, 3e4, 4e4, 1e5)), (64, 500.0)])
def test_build_mesh_keeps_every_cell_or_raises(cells, gamma):
    # the grading's breakpoints bit for bit, every cell kept; or, where a gap
    # is at most 16 eps (quadrature nodes would round onto the breakpoints
    # near t = 1), a MeshError naming the cells before the first such gap
    j = np.arange(cells + 1) / cells
    grading = j if gamma == 1.0 else 1.0 - (1.0 - j) ** gamma
    narrow = np.flatnonzero(np.diff(grading) <= 16.0 * np.finfo(float).eps)
    kept = NARROW.get((cells, gamma))
    if kept is None:
        got = build_mesh(cells, gamma).breakpoints
        assert narrow.size == 0 and len(got) == cells + 1
        assert np.array_equal(got.view(np.int64), grading.view(np.int64))
    else:
        assert narrow[0] == kept
        with pytest.raises(MeshError, match=rf"^a grading of {gamma:g} merges the {cells} "
                                            rf"mesh cells into {kept}$"):
            build_mesh(cells, gamma)


def test_invalid_interval():
    # a reversed interval is no mesh: the breakpoints must run from 0 to 1
    with pytest.raises(MeshError, match=r"got \[1.0, 0.0\]"):
        mesh_from_breakpoints(np.linspace(1.0, 0.0, 5))


def test_nonpositive_cells():
    for _ in range(2):  # an error is not cached: every call raises
        with pytest.raises(MeshError):
            build_mesh(0)


def test_gamma_below_one_rejected():
    for _ in range(2):
        with pytest.raises(MeshError):
            build_mesh(4, 0.5)


def test_equal_arguments_share_one_read_only_mesh():
    mesh = build_mesh(128, 3.0)
    assert build_mesh(128, 3.0) is mesh
    assert build_mesh(128, 6.0) is not mesh
    for values in (mesh.breakpoints, mesh.nodes, mesh.weights):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.5
    # bounded: a check or a solve builds one mesh with it
    assert 3 <= build_mesh.cache_info().maxsize <= 16


def test_weights_positive_and_breakpoints_increase():
    m = build_mesh(10, 3.0)
    assert np.all(np.diff(m.breakpoints) > 0)
    assert np.all(m.weights > 0)


def test_constant_exact():
    for m in (build_mesh(1), build_mesh(17, 3.0)):
        assert abs(integrate(1.0, m) - 1.0) <= 1e-14


def test_cubic_exact():
    m = build_mesh(4)
    assert abs(integrate(m.flat_nodes ** 3, m) - 0.25) <= 1e-12


def test_endpoint_singularity_oracle():
    # oracle: closed-form antiderivative 2(1 - (1-x)^{1/2}) gives exactly 2
    m = build_mesh(4096, 3.0)
    assert abs(integrate((1.0 - m.flat_nodes) ** -0.5, m) - 2.0) <= 1e-6


def test_refinement_convergence_monotone():
    errs = []
    for cells in (64, 128, 256, 512):
        m = build_mesh(cells, 3.0)
        errs.append(abs(integrate((1.0 - m.flat_nodes) ** -0.5, m) - 2.0))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_nonfinite_integrand_reported():
    m = build_mesh(4)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIntegrandError):
            integrate(1.0 / (m.flat_nodes - m.flat_nodes), m)
    with pytest.raises(NonFiniteIntegrandError) as info:  # a non-finite constant
        integrate(np.inf, m)
    assert info.value.node == m.flat_nodes[0]


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(alpha, beta):
    m = build_mesh(16)
    f = np.sin(3 * m.flat_nodes)
    g = np.exp(m.flat_nodes)
    lhs = integrate(alpha * f + beta * g, m)
    rhs = alpha * integrate(f, m) + beta * integrate(g, m)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_determinism():
    m = build_mesh(64, 3.0)
    v1 = integrate((1.0 - m.flat_nodes) ** -0.25, m)
    v2 = integrate((1.0 - m.flat_nodes) ** -0.25, m)
    assert v1 == v2


def test_mesh_from_breakpoints_validates():
    with pytest.raises(MeshError, match="breakpoints must strictly increase"):
        mesh_from_breakpoints([0.0, 0.5, 0.5, 1.0])
    for bps in ([0.0], [[0.0, 1.0]]):
        with pytest.raises(MeshError, match="need at least two breakpoints"):
            mesh_from_breakpoints(bps)


@pytest.mark.parametrize("a, b", [(-1.0, 0.0), (0.0, 2.0), (0.5, 1.0)])
def test_mesh_off_the_unit_interval_rejected(a, b):
    # every mesh covers the right half [0, 1], and this is the one check of it
    with pytest.raises(MeshError, match=rf"mesh must cover \[0, 1\], got \[{a}, {b}\]"):
        mesh_from_breakpoints(np.linspace(a, b, 65))


def test_mesh_fields():
    assert [f.name for f in dataclasses.fields(Mesh)] == ["breakpoints", "nodes", "weights"]
    # every mesh has GAUSS_NODES nodes per cell: no argument sets another count
    assert list(inspect.signature(build_mesh).parameters) == ["cells", "gamma"]
    assert list(inspect.signature(mesh_from_breakpoints).parameters) == ["breakpoints"]
    assert build_mesh(3).nodes.shape == (3, GAUSS_NODES) == (3, 8)


def _loop_sum(values) -> float:
    total = 0.0
    for v in values:
        total += float(v)
    return total


def _same_double(a: float, b: float) -> bool:
    return np.array(a).view(np.int64) == np.array(b).view(np.int64)


def test_sum_left_to_right_is_the_loop_bit_for_bit():
    # runs of -0.0 and +0.0, cancellations and wide magnitudes: the sum and
    # the sign of every zero are those of a loop started from 0.0
    rng = np.random.default_rng(11)
    for case in range(400):
        n = int(rng.integers(1, 8193)) if case % 4 else int(rng.integers(1, 9))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
        for _ in range(int(rng.integers(0, 4))):
            start = int(rng.integers(0, n))
            v[start:start + int(rng.integers(1, 50))] = rng.choice([-0.0, 0.0])
        if case % 5 == 0:
            v = np.concatenate([v, -v[::-1]])
        assert _same_double(_sum_left_to_right(v), _loop_sum(v)), case
    for v in ([-0.0], [-0.0] * 7, [0.0, -0.0], [-0.0, 1.0, -1.0, -0.0], [1.0, 1e-16, -1.0]):
        assert _same_double(_sum_left_to_right(np.array(v)), _loop_sum(v)), v


def test_integrate_sums_cells_left_to_right():
    rng = np.random.default_rng(5)
    for cells in (1, 2, 7, 128, 4096):
        m = build_mesh(cells, 3.0)
        v = rng.standard_normal(m.flat_nodes.shape) * 10.0 ** rng.uniform(-8, 8)
        v[: len(v) // 3] = 0.0
        cell_sums = np.einsum("ij,ij->i", m.weights, v.reshape(m.nodes.shape))
        assert _same_double(integrate(v, m), _loop_sum(cell_sums))
        # a scalar is the constant integrand filled in, bit for bit (einsum
        # sums a stride-0 view of it differently at k = 8)
        for c in (3.0, float(v[-1])):
            assert _same_double(integrate(c, m), integrate(np.full(m.flat_nodes.shape, c), m))


def test_partial_weights_integrate_polynomials_exactly():
    # entry [p, q] of the integration matrix integrates the Lagrange basis
    # polynomial of Gauss node q from -1 to node p, so its product with node
    # values integrates them from -1 to each node: exact for degree < 8
    x, _ = np.polynomial.legendre.leggauss(GAUSS_NODES)
    for j in range(GAUSS_NODES):
        want = (x ** (j + 1) - (-1.0) ** (j + 1)) / (j + 1)
        assert np.max(np.abs(GAUSS_INTEGRATION_MATRIX @ x ** j - want)) <= 1e-14


@pytest.mark.parametrize("beta", [0.5, 0.9])
def test_integrate_takes_the_last_cell_exponent(beta):
    # int_0^1 (1 - t)^(-beta) dt = 1 / (1 - beta) on one cell, which is the
    # last; the Gauss rule misses it by the same share in the last cell of
    # every mesh
    m = mesh_from_breakpoints([0.0, 1.0])
    v = (1.0 - m.flat_nodes) ** -beta
    want = 1.0 / (1.0 - beta)
    assert abs(integrate(v, m, beta) - want) <= 1e-13 * want
    assert abs(integrate(v, m) - want) > 1e-2 * want
