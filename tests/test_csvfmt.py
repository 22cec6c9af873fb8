"""csvfmt.render against Python's '%.17g', value by value.

The expected bytes are always Python's own rendering of each value; the
renderer's fast path must agree with it everywhere, including where it hands
a value to its Python fallback.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbvp.csvfmt import render
from cfbvp.green import green_eval


def _expected(table: np.ndarray) -> list[str]:
    return [",".join("%.17g" % v for v in row) for row in table.tolist()]


def _check(values, cols: int = 1) -> None:
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = render(table)
    assert isinstance(out, bytes)
    assert out.endswith(b"\n") or table.size == 0
    assert out.decode("ascii").split("\n")[:-1] == _expected(table)


def _powers_of_ten() -> np.ndarray:
    return np.array([float(f"1e{p}") for p in range(-323, 309)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(bits):
    _check(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_any_float(values):
    _check(values)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_columns_and_rows(cols, values):
    _check(values[:len(values) // cols * cols] or [0.0] * cols, cols)


def test_special_values():
    big = np.finfo(float).max
    _check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, big, -big,
            np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 0.1, 1e16, 1e17, 1e-5, 1e-4])


def test_powers_of_ten_and_their_neighbours():
    p = _powers_of_ten()
    _check(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]))


def test_values_whose_log10_is_an_integer():
    # within a few ulps of a power of ten, log10 often rounds to the exact
    # integer on either side of it: the decade must come from the digits
    p = _powers_of_ten()[1:]
    near = [p]
    for direction in (0.0, np.inf):
        v = p
        for _ in range(4):
            v = np.nextafter(v, direction)
            near.append(v)
    near = np.concatenate(near)
    with np.errstate(divide="ignore"):
        log = np.log10(near)
    assert np.count_nonzero((log == np.round(log)) & ~np.isin(near, p)) > 100
    _check(near)


def test_exact_ties():
    # m / 8 for m in [2^52, 2^53) has at most 16 integer digits and a binary
    # fraction: many are exact ties at 17 digits, rounded half to even.  The
    # powers of two include ties below 1e-6, such as 2^-25 =
    # 2.98023223876953125e-08, where 10^(16 - k) is not a double
    rng = np.random.default_rng(7)
    m = np.concatenate([rng.integers(2 ** 52, 2 ** 53, 20_000), [2 ** 52, 2 ** 53 - 1]])
    _check(m / 8.0)
    _check(np.ldexp(1.0, np.arange(-1074, 1024)))
    _check(np.ldexp(3.0, np.arange(-1074, 1022)))


def test_integers_and_uniform_values():
    rng = np.random.default_rng(11)
    _check(rng.integers(0, 2 ** 60, 10_000).astype(float))
    _check(rng.uniform(-1.0, 1.0, 12_000), cols=4)
    _check(np.exp(rng.uniform(-700.0, 700.0, 10_000)) * rng.choice([-1.0, 1.0], 10_000))


@pytest.mark.parametrize("mu", [1.05, 1.9987])
def test_kernel_grid(mu):
    grid = np.linspace(0.0, 1.0, 201)
    _check(green_eval(mu, grid[:, None], grid[None, :]).ravel())


def test_empty_table():
    assert render(np.empty((0, 3))) == b""
