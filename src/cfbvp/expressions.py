"""A small scalar expression language for problem files.

Users supply the nonlinearity and its majorant/minorant factors as text
expressions over the variables t, x, s, R.  The grammar is deliberately
tiny so an expression can be audited at a glance:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? power
    power  := atom ('^' factor)?
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

Evaluation is pure and accepts numpy arrays as bindings.  ``bind`` fixes
some variables and folds the subexpressions that read only those into
their values once, for repeated evaluations over the others.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "parse", "evaluate", "bind", "unparse", "ExprSyntaxError",
           "ExprDomainError"]

ALLOWED_VARIABLES = ("t", "x", "s", "R")

_FUNCTIONS = {
    "exp": (1, np.exp),
    "abs": (1, np.abs),
    "cosh": (1, np.cosh),
    "sinh": (1, np.sinh),
    "sqrt": (1, None),  # domain-checked
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ExprDomainError(ValueError):
    def __init__(self, message: str, subexpr: "Expr"):
        self.subexpr = subexpr
        super().__init__(f"{message} in subexpression '{unparse(subexpr)}'")


class UnboundVariableError(ValueError):
    pass


@dataclass(frozen=True)
class Expr:
    """Immutable expression tree node.

    ``kind`` is one of: const, var, neg, add, sub, mul, div, pow, call, and
    value (made by ``bind`` only).  ``value`` holds the constant, variable
    name or function name, or a value node's value; ``args`` holds the child
    nodes, for a value node the subexpression it is the value of.
    """

    kind: str
    value: float | str | None = None
    args: tuple["Expr", ...] = ()

    def variables(self) -> set[str]:
        if self.kind == "var":
            return {self.value}
        out: set[str] = set()
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        return unparse(self)


_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}", pos)
        return self.take()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.parse_term()
                node = Expr("add" if text == "+" else "sub", args=(node, rhs))
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.parse_factor()
                node = Expr("mul" if text == "*" else "div", args=(node, rhs))
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Expr("neg", args=(self.parse_power(),))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            exponent = self.parse_factor()  # right-associative, admits unary minus
            return Expr("pow", args=(base, exponent))
        return base

    def parse_atom(self) -> Expr:
        kind, text, pos = self.take()
        if kind == "num":
            value = float(text)
            if math.isinf(value):  # unparse would render it as inf, which parse rejects
                raise ExprSyntaxError("number out of range", pos)
            return Expr("const", value=value)
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", pos)
                self.take()
                args = [self.parse_expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = _FUNCTIONS[text][0]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{text} expects {arity} argument(s), got {len(args)}", pos)
                return Expr("call", value=text, args=tuple(args))
            if text not in ALLOWED_VARIABLES:
                raise ExprSyntaxError(
                    f"unknown identifier {text!r}; variables are {ALLOWED_VARIABLES}", pos)
            return Expr("var", value=text)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", pos)


def parse(text: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError with a position on failure."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(text)
    node = p.parse_expr()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing token {tok!r}", pos)
    return node


def _is_int_valued(v) -> bool:
    return bool(np.all(np.equal(np.mod(v, 1.0), 0.0)))


def evaluate(e: Expr, bindings: dict) -> float | np.ndarray:
    """Evaluate e with the given variable bindings (scalars or ndarrays)."""
    return _result(_eval(e, bindings))


def bind(e: Expr, fixed: dict):
    """env -> evaluate(e, env | fixed), for env binding the other variables.

    The evaluations walk ``_fold(e, fixed)``, in which the subexpressions
    that read only the ``fixed`` variables are evaluated once, here.  The
    fixed values must not change while the result is in use.
    """
    folded = _fold(e, fixed)
    return lambda env: _result(_eval(folded, {**env, **fixed}))


def _result(v):
    return float(v) if np.ndim(v) == 0 else v


def _fold(e: Expr, fixed: dict) -> Expr:
    """A copy of e in which each maximal subexpression that reads only fixed
    variables (or none) is a "value" node holding its value.  One that fails
    stays as it is: an evaluation that reaches it evaluates it and raises,
    in evaluate's order and text.  Leaves stay as they are."""
    if e.kind in ("const", "var"):
        return e
    if e.variables() <= fixed.keys():
        try:
            return Expr("value", _eval(e, fixed), (e,))
        except Exception:  # left to the evaluations that reach e
            return e
    return Expr(e.kind, e.value, tuple(_fold(a, fixed) for a in e.args))


_NEGATIVE_BASE = "negative base with non-integer exponent"
_ZERO_BASE = "zero base with negative exponent"


def _eval(e: Expr, env: dict):
    if e.kind in ("const", "value"):
        return e.value
    if e.kind == "var":
        if e.value not in env:
            raise UnboundVariableError(f"variable {e.value!r} is not bound")
        return env[e.value]
    if e.kind == "neg":
        return -_eval(e.args[0], env)
    if e.kind in ("add", "sub", "mul", "div"):
        a = _eval(e.args[0], env)
        b = _eval(e.args[1], env)
        if e.kind == "add":
            return np.add(a, b)
        if e.kind == "sub":
            return np.subtract(a, b)
        if e.kind == "mul":
            return np.multiply(a, b)
        if np.any(np.equal(b, 0.0)):
            raise ExprDomainError("division by zero", e)
        return np.divide(a, b)
    if e.kind == "pow":
        base = _eval(e.args[0], env)
        exponent = _eval(e.args[1], env)
        # a finite scalar exponent (a float or np.float64, e.g. a constant)
        # is settled in at most one pass over the base
        if isinstance(exponent, float) and math.isfinite(exponent):
            if exponent.is_integer():
                if exponent < 0.0 and np.any(np.equal(base, 0.0)):
                    raise ExprDomainError(_ZERO_BASE, e)
            elif exponent < 0.0:
                # one pass finds any base <= 0 (a NaN base is neither, as it
                # would not be under a min-reduction); which check fails is
                # sorted out only then, the negative base first
                if np.any(np.less_equal(base, 0.0)):
                    if np.any(np.less(base, 0.0)):
                        raise ExprDomainError(_NEGATIVE_BASE, e)
                    raise ExprDomainError(_ZERO_BASE, e)
            elif np.any(np.less(base, 0.0)):
                raise ExprDomainError(_NEGATIVE_BASE, e)
            return np.power(base, exponent)
        if not _is_int_valued(exponent) and np.any(np.less(base, 0.0)):
            raise ExprDomainError(_NEGATIVE_BASE, e)
        if np.any(np.logical_and(np.equal(base, 0.0), np.less(exponent, 0.0))):
            raise ExprDomainError(_ZERO_BASE, e)
        return np.power(base, exponent)
    if e.kind == "call":
        args = [_eval(a, env) for a in e.args]
        if e.value == "sqrt":
            if np.any(np.less(args[0], 0.0)):
                raise ExprDomainError("square root of a negative value", e)
            return np.sqrt(args[0])
        return _FUNCTIONS[e.value][1](*args)
    raise AssertionError(f"unknown node kind {e.kind!r}")


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4,
               "const": 5, "var": 5, "call": 5}


def _paren(child: Expr, parent_prec: int, tighten: bool = False) -> str:
    if child.kind == "value":  # rendered as its source
        child = child.args[0]
    text = unparse(child)
    prec = _PRECEDENCE[child.kind]
    if prec < parent_prec or (tighten and prec == parent_prec):
        return f"({text})"
    return text


def unparse(e: Expr) -> str:
    """Render e back to text; parse(unparse(e)) is structurally identical to e."""
    if e.kind == "const":
        return repr(e.value)
    if e.kind == "var":
        return e.value
    if e.kind == "value":
        return unparse(e.args[0])
    if e.kind == "neg":
        # tighten so a negated negation renders as -(-x), not the
        # unparseable --x (the grammar allows only one leading minus)
        return "-" + _paren(e.args[0], _PRECEDENCE["neg"], tighten=True)
    if e.kind == "call":
        return f"{e.value}(" + ", ".join(unparse(a) for a in e.args) + ")"
    op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.kind]
    prec = _PRECEDENCE[e.kind]
    if e.kind == "pow":
        # right-associative; parenthesize a left child of equal/lower precedence
        left = _paren(e.args[0], prec, tighten=True)
        right = _paren(e.args[1], prec)
        return left + op + right
    left = _paren(e.args[0], prec)
    right = _paren(e.args[1], prec, tighten=True)
    return left + op + right
