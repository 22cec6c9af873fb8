"""Problem files: flat ``key = value`` text with dotted section prefixes.

Example::

    mu = 1.5
    R = 100
    f = abs(t)*(1-t^2)^(-0.25)*x^(-0.25)
    q = s*(1-s^2)^(-0.25)
    u = x^(-0.25)
    v = x^(0.25)
    psi = s*(1-s^2)^(-0.25)*R^(-0.25)
    mesh.cells = 128
    mesh.gamma = 3
    solver.m_schedule = 16,32,64,128
    solver.omega = 1.0
    solver.inner_tol = 1e-10
    solver.inter_m_tol = 0.05

Lines starting with '#' are comments.  The expression keys f, q, u, v, psi
and the numbers mu, R are required; everything else has defaults.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .expressions import ExprSyntaxError
from .hypotheses import NumericsConfig, ProblemSpec

__all__ = ["ProblemFileError", "load_problem", "parse_problem_text"]

REQUIRED_KEYS = ("mu", "R", "f", "q", "u", "v", "psi")


class ProblemFileError(ValueError):
    pass


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProblemFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ProblemFileError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _take_float(pairs: dict, key: str, default=None) -> float:
    if key not in pairs:
        return default
    try:
        return float(pairs.pop(key))
    except ValueError as err:
        raise ProblemFileError(f"key {key!r}: {err}") from err


def _take_int(pairs: dict, key: str, default=None) -> int:
    if key not in pairs:
        return default
    value = pairs.pop(key)
    try:
        return int(value)
    except ValueError as err:
        raise ProblemFileError(f"key {key!r}: {err}") from err


def parse_problem_text(text: str, overrides: dict | None = None) -> ProblemSpec:
    pairs = _parse_pairs(text)
    missing = [k for k in REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ProblemFileError(f"missing required key(s): {', '.join(missing)}")

    numerics = NumericsConfig()
    numerics = replace(
        numerics,
        mesh_cells=_take_int(pairs, "mesh.cells", numerics.mesh_cells),
        gamma=_take_float(pairs, "mesh.gamma", numerics.gamma),
        nodes_per_cell=_take_int(pairs, "mesh.nodes_per_cell", numerics.nodes_per_cell),
        lattice_density=_take_int(pairs, "checks.lattice_density",
                                  numerics.lattice_density),
        omega=_take_float(pairs, "solver.omega", numerics.omega),
        inner_tol=_take_float(pairs, "solver.inner_tol", numerics.inner_tol),
        max_inner=_take_int(pairs, "solver.max_inner", numerics.max_inner),
        inter_m_tol=_take_float(pairs, "solver.inter_m_tol", numerics.inter_m_tol),
    )
    if "solver.m_schedule" in pairs:
        raw = pairs.pop("solver.m_schedule")
        try:
            schedule = tuple(int(part) for part in raw.split(","))
        except ValueError as err:
            raise ProblemFileError(f"key 'solver.m_schedule': {err}") from err
        numerics = replace(numerics, m_schedule=schedule)
    if overrides:
        numerics = replace(numerics, **overrides)
    # NaN fails every comparison, so each range is written as what must hold
    for key, value, ok, want in (
            # a lattice of one point samples t = 0 alone
            ("checks.lattice_density", numerics.lattice_density,
             numerics.lattice_density >= 2, "at least 2"),
            ("mesh.gamma", numerics.gamma, 1.0 <= numerics.gamma < math.inf,
             "finite and at least 1"),
            ("solver.inner_tol", numerics.inner_tol, 0.0 < numerics.inner_tol < math.inf,
             "positive and finite"),
            ("solver.max_inner", numerics.max_inner, numerics.max_inner >= 1, "at least 1"),
            ("solver.inter_m_tol", numerics.inter_m_tol,
             0.0 < numerics.inter_m_tol < math.inf, "positive and finite")):
        if not ok:
            raise ProblemFileError(f"key {key!r}: must be {want}, got {value}")

    mu = _take_float(pairs, "mu")
    R = _take_float(pairs, "R")
    exprs = {k: pairs.pop(k) for k in ("f", "q", "u", "v", "psi")}
    if pairs:
        raise ProblemFileError(f"unknown key(s): {', '.join(sorted(pairs))}")
    try:
        return ProblemSpec.from_strings(mu=mu, R=R, numerics=numerics, **exprs)
    except (ExprSyntaxError, ValueError) as err:
        raise ProblemFileError(str(err)) from err


def load_problem(path, overrides: dict | None = None) -> ProblemSpec:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ProblemFileError(f"cannot read {p}: {err}") from err
    return parse_problem_text(text, overrides)
