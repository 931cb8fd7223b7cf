"""einselect benchmark: one workload per invocation, result as JSON on the last line.

    python3 einbench/run.py --workload sweep-xstate --seed 1 --seconds 40 --trace 0

Run from the repository root. The workload runs in a child interpreter
(PYTHONPATH=src, one BLAS/OpenMP thread) that calls the einselect CLI
in-process; see einbench/README.md for the workloads, metrics and checks.
With --trace 0 this process first times fresh interpreters through
`import einselect.cli` and `build_parser()` (setup_s).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-xstate", "suites", "analyze-mc")
SETUP_PROBES = 11
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mib": "MiB"}
# The probe prints the monotonic clock (system-wide on Linux) when it is done,
# so the measurement does not include subprocess's polling for its exit.
SETUP_CODE = "import time, einselect.cli; einselect.cli.build_parser(); print(time.perf_counter())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def setup_seconds(env: dict) -> float:
    """Median wall time of fresh interpreters importing the CLI and building its parser.

    One unmeasured probe first, so bytecode compiled on a fresh checkout is
    not counted.
    """
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60,
            stdout=subprocess.PIPE, text=True,
        )
        if probe:
            times.append(float(done.stdout) - start)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description="einselect benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "einselect", "cli.py")):
        print("einbench: run from the repository root; src/einselect is missing", file=sys.stderr)
        return 2
    began = time.perf_counter()
    env = child_env()
    try:
        setup = None if args.trace else setup_seconds(env)
        argv = [
            sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        budget = DEADLINE_S - (time.perf_counter() - began)
        child = subprocess.run(argv, env=env, stdout=subprocess.PIPE, timeout=budget, check=True, text=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"einbench: {exc}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith((".calls", ".samples")) else "s"}
            for name, value in result["per_layer"].items()
        }
        correct = result["wrong"] == 0 and result["trace_consistent"]
    else:
        values = {"setup_s": setup, "round_s": result["round_s"], "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        correct = result["wrong"] == 0
        detail = ", ".join(f"{k} {v:.6g}" for k, v in result["detail"].items())
        print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds; {detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
