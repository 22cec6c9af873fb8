import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfbvp import endpoint
from cfbvp.quadrature import (GAUSS_INTEGRATION_MATRIX, GAUSS_NODES, GAUSS_W, GAUSS_X, Mesh,
                              MeshError, NonFiniteIntegrandError, _sum_left_to_right,
                              build_mesh, integrate, legendre_table, mesh_from_breakpoints)
from linear_oracles import graded_mesh


def test_uniform_breakpoints():
    # 4 uniform cells, the last one halved until it is 2^-40 wide: 38
    # halvings, every breakpoint exact in binary
    m = build_mesh(4)
    want = np.array([0.0, 0.25, 0.5, 0.75, *(1.0 - 0.5 ** np.arange(3, 41)), 1.0])
    assert np.array_equal(m.breakpoints, want)


def test_128_cells_end_in_33_halvings_exact_in_binary():
    # 128 uniform cells (lambda h <= 709/128 at every order), the last one
    # halved 33 times toward t = 1: 161 cells, 1,288 nodes
    m = build_mesh(128)
    want = mesh_from_breakpoints([*(np.arange(128) / 128), *(1.0 - 0.5 ** np.arange(8, 41)), 1.0])
    assert (m.cells, m.flat_nodes.size) == (161, 1288)
    assert np.array_equal(m.breakpoints, want.breakpoints)
    assert np.array_equal(m.nodes, want.nodes) and np.array_equal(m.weights, want.weights)


@pytest.mark.parametrize("cells, total", [(1, 41), (2, 41), (3, 42), (100, 134), (128, 161),
                                          (512, 543), (4096, 4124)])
def test_the_last_cell_is_halved_to_at_most_2_to_the_minus_40(cells, total):
    # the uniform breakpoints k/cells, then 1 - 2^-j/cells for j = 1, 2, ...
    # until the last cell is at most 2^-40 wide (and so more than 2^-41);
    # at 100 cells, 2^-33/100 = 1.2e-12 is still wider, so j runs to 34
    m = build_mesh(cells)
    bps = m.breakpoints
    assert m.cells == total
    assert np.array_equal(bps[:cells], np.arange(cells) / cells)
    halvings = total - cells
    assert np.array_equal(bps[cells:-1], 1.0 - 0.5 ** np.arange(1, halvings + 1) / cells)
    assert 2.0 ** -41 < 1.0 - bps[-2] <= 2.0 ** -40
    # quadrature nodes stay strictly inside every cell
    assert np.all(m.nodes > bps[:-1, None]) and np.all(m.nodes < bps[1:, None])


def test_invalid_interval():
    # a reversed interval is no mesh: the breakpoints must run from 0 to 1
    with pytest.raises(MeshError, match=r"got \[1.0, 0.0\]"):
        mesh_from_breakpoints(np.linspace(1.0, 0.0, 5))


def test_nonpositive_cells():
    for _ in range(2):  # an error is not cached: every call raises
        with pytest.raises(MeshError):
            build_mesh(0)


def test_equal_arguments_share_one_read_only_mesh():
    mesh = build_mesh(128)
    assert build_mesh(128) is mesh
    assert build_mesh(64) is not mesh
    for values in (mesh.breakpoints, mesh.nodes, mesh.weights):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.5
    # bounded: a check or a solve builds one mesh with it
    assert 3 <= build_mesh.cache_info().maxsize <= 16


def test_weights_positive_and_breakpoints_increase():
    m = build_mesh(10)
    assert np.all(np.diff(m.breakpoints) > 0)
    assert np.all(m.weights > 0)


def test_constant_exact():
    for m in (build_mesh(1), build_mesh(17)):
        assert abs(integrate(1.0, m) - 1.0) <= 1e-14


def test_cubic_exact():
    m = build_mesh(4)
    assert abs(integrate(m.flat_nodes ** 3, m) - 0.25) <= 1e-12


def test_endpoint_singularity_oracle():
    # oracle: closed-form antiderivative 2(1 - (1-x)^{1/2}) gives exactly 2;
    # the plain rule is 9.8e-8 off, the last cell's exponent leaves 7.3e-13
    m = build_mesh(4096)
    v = (1.0 - m.flat_nodes) ** -0.5
    assert abs(integrate(v, m) - 2.0) <= 1e-6
    assert abs(integrate(v, m, 0.5) - 2.0) <= 1e-12


def test_refinement_convergence_monotone():
    errs = []
    for cells in (64, 128, 256, 512):
        m = graded_mesh(cells, 3.0)
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
    m = build_mesh(64)
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
    assert list(inspect.signature(build_mesh).parameters) == ["cells"]
    assert list(inspect.signature(mesh_from_breakpoints).parameters) == ["breakpoints"]
    assert build_mesh(3).nodes.shape == (42, GAUSS_NODES) == (42, 8)


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
        m = build_mesh(cells)
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


def test_tables_are_numpy_polynomials_bit_for_bit():
    # the written-out Gauss rule is leggauss's, and legendre_table runs
    # legvander's recurrence, so every table built on them is the one
    # numpy.polynomial gives
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(GAUSS_NODES)
    assert GAUSS_X.tobytes() == x.tobytes() and GAUSS_W.tobytes() == w.tobytes()
    r = np.linspace(0.0, 1.0, 7)
    points = [x, 1.0 - r[:, None] * (1.0 - x), np.random.default_rng(3).uniform(-1, 1, 50), 0.3]
    for p in points:
        for degree in (0, 1, GAUSS_NODES - 1, GAUSS_NODES):
            assert legendre_table(p, degree).tobytes() == legendre.legvander(p, degree).tobytes()
    P = legendre.legvander(x, GAUSS_NODES)
    k = GAUSS_NODES
    anti = np.empty((k, k))
    anti[:, 0] = 0.5 * (x + 1.0)
    anti[:, 1:] = 0.5 * (P[:, 2:] - P[:, :k - 1])
    assert GAUSS_INTEGRATION_MATRIX.tobytes() == (anti @ (P[:, :k] * w[:, None]).T).tobytes()
    lagrange = P[:, :k] * (np.arange(k) + 0.5) * w[:, None]
    assert endpoint._LAGRANGE.tobytes() == lagrange.tobytes()
    basis = endpoint._tail_basis(tuple(r))
    want = legendre.legvander(1.0 - r[:, None] * (1.0 - x), k - 1) @ lagrange.T
    assert basis.tobytes() == want.tobytes()
