"""Per-layer tracing of cfbvp from outside its source tree.

The package binds its collaborators with ``from .x import y``, so a public
function is patched at every module that looks it up, and methods are
patched on their class.  Each wrapped call opens a frame on one stack;
when it returns, its self time (duration minus the time of wrapped calls
inside it) is added to its name.  Calls of the layer functions that run
per scalar or per mesh (``LEAF``) are only aggregated; every other call is
also kept as a span (name, start, end, parent span, op id) and written out
when the benchmark ends.  ``install`` and ``uninstall`` swap the patches in
and out, so untraced operations run the unmodified functions.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _apply_bytes(op, args, result):
    # computed, not measured: the apply multiplies the stored weight*kernel
    # table by the sampled integrand (two reads, one write of n doubles),
    # reduces the product (one read) and writes one value per output node
    nodes = int(np.size(getattr(op, "tau", ())))
    return {"solver.GreenOperator.apply.bytes_computed":
            8 * (4 * nodes + int(np.size(result)))}


def _build_nodes(op, args, result):
    return {"solver.GreenOperator.build.nodes": int(np.size(getattr(op, "tau", ())))}


def _picard(args, result):
    return {"solver.picard_iterations": result[1].iterations}


def _evaluate_elems(args, result):
    return {"expressions.evaluate.elems": int(np.size(result))}


def _gridfn_elems(self, args, result):
    return {"gridfn.eval.elems": int(np.size(args[0]))}


def _bytes_written(args, result):
    return {"cli.bytes_written": len(str(args[1]).encode())}


# (owner, attribute, layer name, kind, counter hook).  A method hook gets
# the instance first.  Owners or attributes a later version of the package
# no longer has are skipped, and their metrics read 0.
POINTS = [
    ("cfbvp.cli", "load_problem", "problem_io.load_problem", SPAN, None),
    ("cfbvp.expressions", "evaluate", "expressions.evaluate", LEAF, _evaluate_elems),
    ("cfbvp.cli", "check_A1", "hypotheses.check_A1", SPAN, None),
    ("cfbvp.solver", "check_A1", "hypotheses.check_A1", SPAN, None),
    ("cfbvp.cli", "check_A2", "hypotheses.check_A2", SPAN, None),
    ("cfbvp.solver", "check_A2", "hypotheses.check_A2", SPAN, None),
    ("cfbvp.hypotheses", "sigma_R", "hypotheses.sigma_R", SPAN, None),
    ("cfbvp.hypotheses", "build_mesh", "quadrature.build_mesh", LEAF, None),
    ("cfbvp.green", "build_mesh", "quadrature.build_mesh", LEAF, None),
    ("cfbvp.hypotheses", "integrate", "quadrature.integrate", SPAN, None),
    ("cfbvp.hypotheses", "half_line_solve", "green.half_line_solve", SPAN, None),
    ("cfbvp.hypotheses", "green_sup", "green.green_sup", SPAN, None),
    ("cfbvp.cli", "green_sup", "green.green_sup", SPAN, None),
    ("cfbvp.cli", "green_eval", "green.green_eval", LEAF, None),
    ("cfbvp.cli", "green_diagonal_jump", "green.green_diagonal_jump", LEAF, None),
    ("cfbvp.gridfn:SymmetricGridFunction", "__call__", "gridfn.eval", LEAF, _gridfn_elems),
    ("cfbvp.cli", "solve", "solver.solve", SPAN, None),
    ("cfbvp.solver:GreenOperator", "__init__", "solver.GreenOperator.build", SPAN, _build_nodes),
    ("cfbvp.solver:GreenOperator", "apply", "solver.GreenOperator.apply", SPAN, _apply_bytes),
    ("cfbvp.solver", "solve_fixed_m", "solver.solve_fixed_m", SPAN, _picard),
    ("cfbvp.solver", "residual_nonlinear", "solver.residual_nonlinear", SPAN, None),
    ("cfbvp.cli", "_write", "cli.write", COUNT, _bytes_written),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    def __init__(self):
        self.op = None
        self.stack = []          # frames: [child seconds, span id or None]
        self.spans = []          # (name, start, end, parent id, op id)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._patches = []
        for path, attr, name, kind, hook in POINTS:
            owner = _owner(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            method = ":" in path
            self._patches.append((owner, attr, fn, self._wrap(fn, name, kind, hook, method)))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name, kind, hook, method):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer._count(hook, args, result, method)
            return result

        def traced(*args, **kwargs):
            result = tracer.call(name, kind == SPAN, fn, *args, **kwargs)
            if hook is not None:
                tracer._count(hook, args, result, method)
            return result

        return counted if kind == COUNT else traced

    def _count(self, hook, args, result, method):
        extra = hook(args[0], args[1:], result) if method else hook(args, result)
        for key, value in extra.items():
            self.counters[key] += value

    def call(self, name, record, fn, *args, **kwargs):
        stack = self.stack
        span_id = parent = None
        if record:
            span_id = len(self.spans)
            self.spans.append(None)
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[0]
            self.incl_s[name] += duration
            if stack:
                stack[-1][0] += duration
            if record:
                self.spans[span_id] = (name, start, end, parent, self.op)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def shares(self) -> tuple[dict, dict]:
        """Self time per package module, and inclusive time per layer
        function, each as a share of the time spent in ``cli.main``."""
        total = self.incl_s.get("cli.main") or 1.0
        per_module = defaultdict(float)
        for name, seconds in self.self_s.items():
            per_module[name.split(".")[0]] += seconds / total
        inclusive = {k: v / total for k, v in self.incl_s.items() if k != "cli.main"}
        return (dict(sorted(per_module.items(), key=lambda kv: -kv[1])),
                dict(sorted(inclusive.items(), key=lambda kv: -kv[1])))
