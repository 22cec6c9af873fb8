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

from pathlib import Path

from .hypotheses import NUMERIC_KEYS, NumericsConfig, ProblemSpec

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


def _take(pairs: dict, key: str, convert):
    try:
        return convert(pairs.pop(key))
    except ValueError as err:
        raise ProblemFileError(f"key {key!r}: {err}") from err


def parse_problem_text(text: str, overrides: dict | None = None) -> ProblemSpec:
    pairs = _parse_pairs(text)
    missing = [k for k in REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ProblemFileError(f"missing required key(s): {', '.join(missing)}")

    values = {name: _take(pairs, key, convert)
              for key, (name, convert, _, _) in NUMERIC_KEYS.items() if key in pairs}
    # validated after the overrides, so that a flag can replace a bad file value
    values.update(overrides or {})
    try:
        numerics = NumericsConfig(**values)
    except ValueError as err:
        raise ProblemFileError(str(err)) from err

    mu = _take(pairs, "mu", float)
    R = _take(pairs, "R", float)
    exprs = {k: pairs.pop(k) for k in ("f", "q", "u", "v", "psi")}
    if pairs:
        raise ProblemFileError(f"unknown key(s): {', '.join(sorted(pairs))}")
    try:
        return ProblemSpec.from_strings(mu=mu, R=R, numerics=numerics, **exprs)
    except ValueError as err:  # ExprSyntaxError is one
        raise ProblemFileError(str(err)) from err


def load_problem(path, overrides: dict | None = None) -> ProblemSpec:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ProblemFileError(f"cannot read {p}: {err}") from err
    return parse_problem_text(text, overrides)
