#!/usr/bin/env python3
"""End-to-end benchmark of the cfbvp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop with one
client: one process, no threads, each operation issued through
``cfbvp.cli.main(argv)`` after the previous one returned, on inputs
generated from the seed into ``.bench_work/``.  Every operation's exit codes
and output files are checked against independent oracles (workloads.py,
reference.py); an operation that fails a check counts as failed.

Workloads (see NOTES.md for why each exists):
  pipeline_default  check, then solve if the check passed, at 128 cells
  solve_refined     solve at 512 cells, mu up to 1.9 (lambda = 9)
  kernel_tables     green dump on a 201-point grid, then a kernel audit

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
twice, traced and untraced, and prints the per-layer metrics.  The last
line of standard output is one JSON object.  NOTES.md defines the metrics.
"""

from __future__ import annotations

import os

# one client on a 2-core machine: keep BLAS and OpenMP single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); import cfbvp.cli; "
                 "from cfbvp.problem_io import load_problem\n"
                 "for p in sys.argv[2:]: load_problem(p)")

END_TO_END = {"ops_per_s": "1/s", "op_s.p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "x0_relerr": "1"}
# per traced operation unless the unit says otherwise
PER_LAYER = {
    "problem_io.load_problem.s": "s/op",
    "expressions.evaluate.calls": "calls/op",
    "expressions.evaluate.s": "s/op",
    "expressions.evaluate.elems_per_call": "elems/call",
    "hypotheses.check_A1.s": "s/op",
    "hypotheses.check_A1.calls": "calls/op",
    "hypotheses.check_A2.s": "s/op",
    "hypotheses.check_A2.calls": "calls/op",
    "hypotheses.sigma_R.s": "s/op",
    "quadrature.build_mesh.calls": "calls/op",
    "quadrature.integrate.calls": "calls/op",
    "quadrature.integrate.s": "s/op",
    "green.half_line_solve.s": "s/op",
    "green.green_sup.s": "s/op",
    "green.green_eval.calls": "calls/op",
    "green.green_eval.s": "s/op",
    "green.green_diagonal_jump.calls": "calls/op",
    "gridfn.eval.s": "s/op",
    "gridfn.eval.elems": "elems/op",
    "solver.GreenOperator.build.s": "s/op",
    "solver.GreenOperator.build.nodes": "nodes/op",
    "solver.GreenOperator.apply.calls": "calls/op",
    "solver.GreenOperator.apply.s": "s/op",
    "solver.GreenOperator.apply.bytes_computed": "B/op",
    "solver.solve_fixed_m.s": "s/op",
    "solver.picard_iterations": "iters/op",
    "solver.residual_nonlinear.s": "s/op",
    "cli.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "trace.overhead_frac": "frac",
    "probe.failed": "count",
}


@dataclass
class Op:
    """One operation: CLI calls run in order, then a check of their outputs.

    A call after one that exited non-zero is skipped (check, then solve
    only if the check passed).  ``verify`` gets the exit codes and raises
    workloads.CheckError on a wrong result; it may return x(0).
    """

    label: str
    calls: list[list[str]]
    verify: Callable[[list[int]], float | None]
    out: Path
    fixed: str | None = None  # name of the fixed member, for determinism


def run_calls(main, calls) -> tuple[list[int], float, float]:
    """Exit codes, start and end time of the calls."""
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in calls:
            codes.append(main(argv))
            if codes[-1] != 0:
                break
    return codes, start, time.perf_counter()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.n_ops = 0
        self.problem_files: list[Path] = []

    # -------------------------------------------------------------- inputs

    def write_problem(self, problem) -> str:
        path = self.inputs / f"{problem.name}.prob"
        if not path.exists():
            path.write_text(problem.text())
            self.problem_files.append(path)
        return str(path)

    def new_out(self) -> Path:
        self.n_ops += 1
        return self.work / "ops" / f"{self.n_ops:05d}"

    def pipeline_op(self, problem) -> Op:
        path = self.write_problem(problem)
        out = self.new_out()

        def verify(codes):
            if problem.expect != "pass":
                wl.require(codes == [wl.EXIT_HYPOTHESIS],
                            f"exit codes {codes}, expected [2] ({problem.expect})")
                wl.check_hypothesis_outputs(out, problem)
                return None
            wl.require(codes == [wl.EXIT_OK, wl.EXIT_OK], f"exit codes {codes}, expected [0, 0]")
            wl.check_hypothesis_outputs(out, problem)
            return wl.check_solve_outputs(out, problem)

        return Op(problem.name, [["check", path, "--out", str(out)],
                                 ["solve", path, "--out", str(out)]],
                  verify, out, problem.name if problem in wl.FIXED else None)

    def solve_op(self, problem, cells: int) -> Op:
        path = self.write_problem(problem)
        out = self.new_out()

        def verify(codes):
            wl.require(codes == [wl.EXIT_OK], f"exit codes {codes}, expected [0]")
            return wl.check_solve_outputs(out, problem)

        return Op(problem.name, [["solve", path, "--out", str(out), "--mesh-cells", str(cells)]],
                  verify, out, problem.name if problem in wl.FIXED else None)

    def kernel_op(self, i: int) -> Op:
        mu, mus = wl.kernel_orders(self.rng, i)
        out = self.new_out()
        check_rng = random.Random(self.rng.random())
        mu_list = ",".join(f"{m:g}" for m in mus)

        def verify(codes):
            wl.require(codes == [wl.EXIT_OK, wl.EXIT_OK], f"exit codes {codes}")
            wl.check_green_table(out / "green.csv", mu, 201, check_rng)
            wl.check_audit_table(out / "audit.csv", mus)

        return Op(f"green {mu:g} + audit {mu_list}",
                  [["green", f"{mu:g}", "--grid", "201", "--out", str(out / "green.csv")],
                   ["audit", mu_list, "--out", str(out / "audit.csv")]], verify, out)

    def schedule(self, i: int) -> Op:
        """The i-th operation of the workload's closed loop."""
        if self.workload == "pipeline_default":
            # fixed members recur every 8 ops (determinism); 2 of 8 ops
            # take the exit-2 witness path, so the median is a passing op
            slot = i % 8
            if slot in (0, 4):
                return self.pipeline_op(wl.FIXED[slot // 4])
            if slot == 3:
                return self.pipeline_op(wl.draw_majorant_violation(self.rng, f"major_{i}"))
            if slot == 7:
                return self.pipeline_op(wl.draw_ratio_violation(self.rng, f"ratio_{i}"))
            return self.pipeline_op(wl.draw_pass(self.rng, f"pass_{i}"))
        if self.workload == "solve_refined":
            # ~4 ops per run: the fixed pair first, so both are measured and
            # the worked family repeats at op 4
            if i % 3 < 2:
                return self.solve_op(wl.FIXED[i % 3], 512)
            return self.solve_op(wl.draw_pass(self.rng, f"pass_{i}"), 512)
        return self.kernel_op(i)

    def accuracy_op(self, problem) -> Op:
        """Untimed solve of a fixed member for x0_relerr, where the loop had none."""
        return self.solve_op(problem, 512 if self.workload == "solve_refined" else 128)


# Op times are reported at a fixed reference speed.  The host is shared and
# its speed changes by up to 2x within a minute (steal time 0, CPU time =
# wall time), and an 8 s op spans several such changes.  So while ops run, a
# SIGALRM handler times calibrate() every SAMPLE_EVERY_S, between bytecodes of
# whatever is running; an op's time is its wall time minus the samples taken
# inside it, times CAL_NOMINAL_S over the mean sample near it.  Raw wall
# times are printed alongside.
SAMPLE_EVERY_S = 0.1
CAL_NOMINAL_S = 0.001
# preallocated so that sampling, which interrupts the program at random
# points, makes no allocation large enough to reach the program's heap
_CAL_X = np.linspace(0.0, 1.0, 10_000)
_CAL_Y = np.empty_like(_CAL_X)


def calibrate() -> float:
    """Wall time of a fixed ~1-2 ms mix of the kinds of work cfbvp does:
    scalar numpy calls, bulk elementwise numpy, an interpreted loop and
    float formatting."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(60):
        v = np.power(0.5 + i * 1e-3, -0.25)
        acc += float(v) if np.any(np.less(v, 10.0)) else 0.0
    for _ in range(2):
        np.multiply(_CAL_X, -3.0, out=_CAL_Y)
        np.exp(_CAL_Y, out=_CAL_Y)
        np.multiply(_CAL_Y, _CAL_X, out=_CAL_Y)
        acc += float(_CAL_Y.sum())
    acc += sum(i * i % 7 for i in range(4000))
    acc += len(",".join(f"{v:.17g}" for v in _CAL_X[:300]))
    return time.perf_counter() - start


class SpeedSampler:
    """Samples of calibrate() taken on a timer while the context is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, calibrate()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Scaled duration of [start, end], less the samples taken inside it."""
        inside = [d for t, d in self.samples if start <= t <= end]
        near = [d for t, d in self.samples if start - 0.5 <= t <= end + 0.5]
        own = end - start - sum(inside)
        return own * CAL_NOMINAL_S / statistics.mean(near or [d for _, d in self.samples])


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    x0: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


def execute(bench: Bench, op: Op, result: Result, main) -> tuple[float, float] | None:
    """Run, time and check one operation; return its start and end (None if it crashed)."""
    result.attempted += 1
    try:
        codes, start, end = run_calls(main, op.calls)
    except Exception:  # a crash inside the program is a failed operation
        print(f"op {op.label}: exception\n{traceback.format_exc()}", file=sys.stderr)
        result.failed += 1
        shutil.rmtree(op.out, ignore_errors=True)
        return None
    try:
        x0 = op.verify(codes)
        if op.fixed is not None:
            d = wl.digest(op.out)
            wl.require(result.digests.setdefault(op.fixed, d) == d,
                        "outputs differ from an earlier run of the same command")
            result.x0.setdefault(op.fixed, x0)
    except (wl.CheckError, OSError, ValueError, KeyError, IndexError) as err:
        # a missing or malformed output file is a wrong output too
        print(f"op {op.label}: FAILED (exit codes {codes}): {err}", file=sys.stderr)
        result.failed += 1
    shutil.rmtree(op.out, ignore_errors=True)
    # each CLI command is a fresh process in real use: free the previous
    # op's cyclic garbage so it neither inflates peak RSS nor is collected
    # inside the next timed op
    gc.collect()
    return start, end


def measure_setup(files: list[Path]) -> float:
    """Median scaled time for a fresh interpreter to import and parse the inputs.

    The child runs on the other core, so speed is sampled around it: ten
    calibrate() calls before and after each child.
    """
    raw, scaled = [], []
    speed = [calibrate() for _ in range(10)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), *map(str, files)],
                       check=True, timeout=120)
        raw.append(time.perf_counter() - start)
        after = [calibrate() for _ in range(10)]
        scaled.append(raw[-1] * CAL_NOMINAL_S / statistics.mean(speed + after))
        speed = after
    print("setup raw wall s: " + " ".join(f"{v:.4f}" for v in raw))
    return statistics.median(scaled)


def run_probes(bench: Bench, main) -> int:
    """Known-defect probes: untimed; returns how many the program gets wrong."""
    result = Result()
    for problem in wl.PROBES:
        execute(bench, bench.pipeline_op(problem), result, main)
    return result.failed


def main_loop(args) -> dict:
    from cfbvp.cli import main as cli_main

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    ops = [bench.schedule(i) for i in range(3)]  # first ops fix the setup inputs
    setup_s = measure_setup(bench.problem_files)

    result = Result()
    tracer = None
    traced_s, untraced_s = [], []
    if args.trace:
        tracer = Tracer()

        def traced_main(argv):
            return tracer.call("cli.main", True, cli_main, argv)

    spans = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    with SpeedSampler() if tracer is None else contextlib.nullcontext() as sampler:
        while True:
            op = ops[i] if i < len(ops) else bench.schedule(i)
            if tracer is None:
                spans.append(execute(bench, op, result, cli_main))
            else:
                # the same op traced and untraced, alternating which runs first
                for traced in ((True, False) if i % 2 == 0 else (False, True)):
                    if traced:
                        tracer.op = i
                        tracer.install()
                        try:
                            span = execute(bench, op, result, traced_main)
                        finally:
                            tracer.uninstall()
                    else:
                        span = execute(bench, op, result, cli_main)
                    spans.append(span)
                    (traced_s if traced else untraced_s).append(
                        span[1] - span[0] if span else float("nan"))
            i += 1
            if time.perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed_ok = result.attempted - result.failed

    for problem in wl.FIXED:
        if problem.name not in result.x0:
            execute(bench, bench.accuracy_op(problem), result, cli_main)  # untimed
    probe_failed = run_probes(bench, cli_main) if args.workload == "pipeline_default" else 0

    spans = [span for span in spans if span is not None]
    raw = [end - start for start, end in spans]
    done = [sampler.scaled(*span) for span in spans] if tracer is None else raw
    x0_relerr = max((abs(result.x0[p.name] - p.x0_ref()) / abs(p.x0_ref())
                     if result.x0.get(p.name) is not None else float("nan"))
                    for p in wl.FIXED)

    print("op raw wall s: " + " ".join(f"{v:.4f}" for v in raw))
    if tracer is None:
        cal = [d for _, d in sampler.samples]
        print(f"speed samples: {len(cal)}, calibrate() median {statistics.median(cal) * 1e3:.3f} ms "
              f"(nominal {CAL_NOMINAL_S * 1e3:g} ms)")
        print("op scaled s: " + " ".join(f"{v:.4f}" for v in done))
        metrics = {"ops_per_s": timed_ok / sum(done), "op_s.p50": statistics.median(done),
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "x0_relerr": x0_relerr}
        units = END_TO_END
        n = len(done)
        print(f"samples: {n} ops; median only, no higher percentile has 10 samples "
              f"beyond it" if n < 20 else f"samples: {n} ops; p{_tail_pct(n)} = "
              f"{_quantile(done, _tail_pct(n) / 100):.6g} s")
    else:
        metrics = layer_metrics(tracer, len(traced_s), traced_s, untraced_s, probe_failed)
        units = PER_LAYER
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        by_module, inclusive = tracer.shares()
        print("self time by module: " + ", ".join(f"{k} {v:.1%}" for k, v in by_module.items()))
        print("inclusive time: " + ", ".join(f"{k} {v:.1%}" for k, v in inclusive.items()))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    shutil.rmtree(work, ignore_errors=True)
    correct = result.failed == 0 and all(v == v for v in metrics.values())
    return {"correct": correct, "attempted": result.attempted, "failed": result.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _tail_pct(n: int) -> int:
    """Highest of p50/p75/p90/p99 that has at least 10 samples beyond it."""
    return max(p for p in (50, 75, 90, 99) if n * (100 - p) / 100 >= 10)


def _quantile(values, q: float) -> float:
    return float(sorted(values)[min(len(values) - 1, int(q * len(values)))])


def layer_metrics(tracer, n_traced: int, traced_s, untraced_s, probe_failed) -> dict:
    n = max(n_traced, 1)
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    metrics = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "s":
            metrics[name] = self_s.get(base, 0.0) / n
        elif stat == "calls":
            metrics[name] = calls.get(base, 0) / n
        else:
            metrics[name] = counters.get(name, 0.0) / n
    ev_calls = calls.get("expressions.evaluate", 0)
    metrics["expressions.evaluate.elems_per_call"] = \
        counters.get("expressions.evaluate.elems", 0.0) / ev_calls if ev_calls else 0.0
    metrics["cli.self_s"] = self_s.get("cli.main", 0.0) / n
    metrics["trace.overhead_frac"] = sum(traced_s) / sum(untraced_s) - 1.0
    metrics["probe.failed"] = float(probe_failed)
    return metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["pipeline_default", "solve_refined", "kernel_tables"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cfbvp" / "cli.py").is_file():
        print(f"error: no cfbvp sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = main_loop(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
