"""One benchmark workload, run in-process through the einselect CLI.

Started by run.py in a fresh interpreter with PYTHONPATH=src and one BLAS
thread. Runs whole rounds of CLI calls until --seconds have passed, times
each call, checks each output outside the timed region, and prints one JSON
object with the measurements on its last line of stdout.

With --trace 1 it runs one round untraced and then the same round under the
tracer, and reports per-layer calls and self times instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import inputs
from tracer import LAYERS, Tracer

OUT_DIR = os.path.join("einbench", "out")

SUITE_TRIALS = {"theorem1": 800, "lemma1": 60, "theorem2": 4}
ANALYZE_GRID = 41
ANALYZE_SAMPLES = 6

# Timings are scaled to a nominal machine speed. Around each CLI call the
# workload times a fixed mix of work shaped like einselect's: batched complex
# einsum with log2, small-matrix LAPACK and kron calls, and a pure-Python
# loop. On a shared host both slow down and speed up together by up to 20%
# over minutes. In a 200 s test on ~10 s windows, the spread of wall times was
# 17% and that of their ratio to the mix 6%. REF_NOMINAL_S is about the mix's
# median time on the 2-core Xeon the benchmark was tuned on.
REF_NOMINAL_S = 0.25
_REF = np.random.default_rng(0)
_REF_KETS = _REF.normal(size=(4096, 2)) + 1j * _REF.normal(size=(4096, 2))
_REF_R4 = _REF.normal(size=(2, 2, 2, 2)) + 1j * _REF.normal(size=(2, 2, 2, 2))
_REF_SMALL = _REF.normal(size=(4, 4)) + 0j
_REF_SMALL = _REF_SMALL + _REF_SMALL.T


def reference_seconds() -> float:
    start = time.perf_counter()
    for _ in range(72):
        m = np.einsum("gj,mjnk,gk->gmn", _REF_KETS.conj(), _REF_R4, _REF_KETS)
        t = np.clip(np.abs(m[:, 0, 0]), 1e-300, None)
        float(np.sum(t * np.log2(t)))
    for _ in range(1200):
        np.linalg.eigvalsh(_REF_SMALL)
        np.kron(_REF_SMALL[:2, :2], _REF_SMALL[2:, 2:]) @ _REF_SMALL
    total = 0
    for i in range(180000):
        total += i * i % 7
    return time.perf_counter() - start


class Operation:
    """One CLI call: its argv, where it writes, and how to check what it wrote."""

    def __init__(self, kind: str, argv: list, out: str, check, units: int):
        self.kind = kind
        self.argv = argv + ["--format", "json", "--out", out]
        self.out = out
        self.check = check
        self.units = units


def sweep_round(seed: int, tag: str) -> list:
    ops = []
    for name, params in inputs.x_states(seed):
        out = os.path.join(OUT_DIR, f"{tag}-sweep-{name}.json")
        argv = ["sweep", "--state", inputs.state_flag(params)]
        ops.append(Operation("sweep", argv, out, lambda p, x=params: checks.check_sweep(p, x), 1))
    return ops


def suites_round(seed: int, tag: str) -> list:
    ops = []
    for suite, trials in SUITE_TRIALS.items():
        out = os.path.join(OUT_DIR, f"{tag}-verify-{suite}.json")
        argv = ["verify", "--suite", suite, "--trials", str(trials)]
        check = lambda p, s=suite, n=trials: checks.check_suite(p, s, n)
        ops.append(Operation(suite, argv, out, check, trials))
    return ops


def analyze_round(seed: int, tag: str) -> list:
    raw, std = inputs.tomography_matrix(seed)
    matrix = os.path.join(OUT_DIR, f"{tag}-tomography.mat")
    with open(matrix, "w", encoding="utf-8") as fh:
        fh.write(inputs.matrix_file_text(raw, std, f"analyze-mc input, seed {seed}"))
    out = os.path.join(OUT_DIR, f"{tag}-analyze-ad.json")
    argv = [
        "analyze", "--matrix-file", matrix, "--channel", "ad",
        "--samples", str(ANALYZE_SAMPLES), "--grid", str(ANALYZE_GRID), "--seed", str(seed),
    ]
    check = lambda p: checks.check_analyze(p, raw, "ad", ANALYZE_GRID, ANALYZE_SAMPLES, seed)
    return [Operation("analyze", argv, out, check, 1)]


WORKLOADS = {"sweep-xstate": sweep_round, "suites": suites_round, "analyze-mc": analyze_round}


class Runner:
    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, op: Operation, call=None) -> float:
        """Time one CLI call, then check its output; returns the call's seconds."""
        self.attempted += 1
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = (call or self.main)(op.argv)
        except Exception:
            seconds = time.perf_counter() - start
            self._fail(op, "raised:\n" + traceback.format_exc())
            return seconds
        seconds = time.perf_counter() - start
        if code != 0:
            self._fail(op, f"exit code {code}: {err.getvalue().strip()}")
            return seconds
        try:
            with open(op.out, encoding="utf-8") as fh:
                problems = op.check(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.wrong += 1
            self._fail(op, "; ".join(problems[:5]))
        return seconds

    def _fail(self, op: Operation, why: str) -> None:
        self.failed += 1
        print(f"FAILED {' '.join(op.argv)}: {why}", file=sys.stderr)

def summary(ops: list, rounds: list) -> dict:
    """Per-call-kind medians of scaled call times, under the names the README uses."""
    times = {}
    for timed in rounds:
        for op, (seconds, ref) in zip(ops, timed):
            times.setdefault(op.kind, []).append((seconds * REF_NOMINAL_S / ref, op.units))
    out = {}
    for kind, rows in times.items():
        if kind in ("sweep", "analyze"):
            out[f"{kind}_s"] = statistics.median(s for s, _ in rows)
        else:
            out[f"{kind}_trials_per_s"] = statistics.median(n / s for s, n in rows)
    return out


def measure(runner: Runner, ops: list, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed.

    Each round yields (call seconds, reference seconds) per call, where the
    reference time is the mean of the reference runs just before and just
    after the call. A call's scaled time is its wall time times
    REF_NOMINAL_S over that reference time; a round's is their sum.
    """
    def timed_round():
        before = reference_seconds()
        timed = []
        for op in ops:
            seconds = runner.run(op)
            after = reference_seconds()
            timed.append((seconds, (before + after) / 2.0))
            before = after
        return timed

    start = time.perf_counter()
    rounds = [timed_round()]
    while time.perf_counter() - start < seconds:
        rounds.append(timed_round())
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = [sum(t for t, _ in r) for r in rounds]
    scaled = [sum(t * REF_NOMINAL_S / ref for t, ref in r) for r in rounds]
    detail = summary(ops, rounds)
    detail.update(wall_round_s=statistics.median(wall))
    return {
        "round_s": statistics.median(scaled),
        "rounds": len(rounds),
        "peak_rss_mib": rss_kib / 1024.0,
        "detail": detail,
    }


def trace(runner: Runner, ops: list, spans_path: str) -> dict:
    """One untraced round, then the same round traced; per-layer totals."""
    untraced = sum(runner.run(op) for op in ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(
            runner.run(op, lambda argv, i=i: tracer.call(i, runner.main, argv))
            for i, op in enumerate(ops)
        )
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    totals = tracer.layer_totals()
    metrics = {}
    for layer in ("cli", *LAYERS):
        calls_n, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls_n
        metrics[f"{layer}.self_s"] = self_s
    metrics["montecarlo.samples"] = tracer.count_children("montecarlo.bands", "dynamics.sweep")
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    # Spans nest on one thread, so self times tile the root spans exactly;
    # only the timing call around each root span lies outside them.
    consistent = 0.0 <= traced - self_sum <= max(traced - untraced, 0.0) + 0.01
    if not consistent:
        print(f"trace: self times sum to {self_sum:.6f} s of {traced:.6f} s traced", file=sys.stderr)
    return {"per_layer": metrics, "trace_consistent": consistent}


def main() -> int:
    parser = argparse.ArgumentParser(description="run one einselect benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import einselect.cli

    src = os.path.realpath("src")
    if not os.path.realpath(einselect.cli.__file__).startswith(src + os.sep):
        print(f"einselect was imported from {einselect.cli.__file__}, not from src/", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = WORKLOADS[args.workload](args.seed, tag)
    runner = Runner(einselect.cli.main)
    if args.trace:
        result = trace(runner, ops, os.path.join(OUT_DIR, f"{tag}-spans.csv"))
    else:
        result = measure(runner, ops, args.seconds)
    result.update(attempted=runner.attempted, failed=runner.failed, wrong=runner.wrong)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
