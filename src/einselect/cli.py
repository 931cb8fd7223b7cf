"""Command-line surface.

Subcommands:
  sweep      drive a state through a channel family and emit the trajectory
  emergence  closed-form emergence time and strength for an X state
  maximize   maximal classical correlation and argmax basis of one state
  verify     run the randomized property suites
  analyze    ingest a matrix file, sweep it, optionally add Monte Carlo bands

Exit codes: 0 success, 1 invalid input (including --grid above
MAX_GRID_POINTS, or --samples x --grid above MAX_SAMPLE_POINTS), 2
data-quality failure (ingested matrix too unphysical), 3 verification suite
reported failures.

All outputs are deterministic for a fixed command line (and seed, where one
applies): no timestamps, no machine identifiers, stable float formatting.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

import numpy as np

from .correlations import ProjectiveBasis, correlation_record
from .dynamics import CHANNEL_FAMILIES, DEFAULT_GRID_POINTS, emergence_time, sweep
from .errors import (
    DataQualityError,
    InvalidInputError,
    OptimizationError,
)
from .matrixio import FORMATS, emit_analysis, emit_emergence, emit_report, parse_matrix_file
from .montecarlo import _analysis
from .qstate import DensityMatrix, XStateParams, make_x_state, x_state_params
from .verify import SUITES, verify_lemma1, verify_remark, verify_theorem1, verify_theorem2

SUITE_CHOICES = (*SUITES, "all")

# Caps that keep a typo in --grid or --samples from exhausting memory; both
# are checked before any grid or seed array is allocated.
MAX_GRID_POINTS = 100_001
MAX_SAMPLE_POINTS = 10**7


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this surface uses 1."""

    def error(self, message):
        raise InvalidInputError(message)


def _parse_state_flag(text: str) -> DensityMatrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidInputError(
            f"--state needs four comma-separated numbers c,b,z,w; got {text!r}"
        )
    try:
        c, b, z, w = (float(tok) for tok in parts)
    except ValueError as exc:
        raise InvalidInputError(f"--state contains a non-number: {text!r}") from exc
    if not all(math.isfinite(v) for v in (c, b, z, w)):
        raise InvalidInputError(f"--state needs finite numbers; got {text!r}")
    return make_x_state(XStateParams(c=c, b=b, z=z, w=w))


def _two_qubit_file(path: str):
    """parse_matrix_file, refusing a matrix that is not a two-qubit state."""
    matrix = parse_matrix_file(path)
    if matrix.state.dim != 4:
        raise InvalidInputError(
            f"--matrix-file needs a two-qubit state (dim 4), got dim {matrix.state.dim}"
        )
    return matrix


def _load_state(args) -> DensityMatrix:
    if args.state and args.matrix_file:
        raise InvalidInputError("give either --state or --matrix-file, not both")
    if args.state:
        return _parse_state_flag(args.state)
    if args.matrix_file:
        return _two_qubit_file(args.matrix_file).state
    raise InvalidInputError("one of --state or --matrix-file is required")


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_state_flags(sub) -> None:
    sub.add_argument("--state", help="X-state parameters as c,b,z,w (e.g. 0.4,0.1,0.1,0.4)")
    sub.add_argument("--matrix-file", help="structured-text density matrix file")


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--format", choices=FORMATS, default="csv")


def _add_channel_flags(sub) -> None:
    sub.add_argument("--channel", choices=CHANNEL_FAMILIES, default="pd")
    sub.add_argument(
        "--theta", type=float, default=None,
        help="pointer-basis polar angle, only with --channel pointer (default 0: sigma_z)",
    )
    sub.add_argument(
        "--phi", type=float, default=None,
        help="pointer-basis azimuthal angle, only with --channel pointer (default 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="einselect",
        description=(
            "Classical correlations, quantum discord, and pointer-basis "
            "emergence for a decohering two-qubit system-apparatus pair."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sw = subs.add_parser("sweep", help="trajectory over channel strength")
    _add_state_flags(sw)
    _add_channel_flags(sw)
    sw.add_argument("--gamma", type=float, default=1.0)
    sw.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS, help="number of strength points")
    _add_output_flags(sw)
    sw.set_defaults(func=_cmd_sweep)

    em = subs.add_parser("emergence", help="closed-form emergence time of an X state")
    _add_state_flags(em)
    em.add_argument("--gamma", type=float, default=1.0)
    _add_output_flags(em)
    em.set_defaults(func=_cmd_emergence)

    mx = subs.add_parser("maximize", help="maximal classical correlation of one state")
    _add_state_flags(mx)
    _add_output_flags(mx)
    mx.set_defaults(func=_cmd_maximize)

    vf = subs.add_parser("verify", help="randomized property suites")
    vf.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    vf.add_argument(
        "--trials", type=int, default=None,
        help="override the default trial count of theorem1, theorem2 and lemma1 "
        "(remark is deterministic and takes --grid)",
    )
    vf.add_argument(
        "--seed", type=int, default=None,
        help="override the default seed of theorem1, theorem2 and lemma1",
    )
    vf.add_argument(
        "--grid", type=int, default=None,
        help=f"strength points for the remark suite (default {DEFAULT_GRID_POINTS}); "
        "theorem1, theorem2 and lemma1 take --trials and --seed instead",
    )
    _add_output_flags(vf)
    vf.set_defaults(func=_cmd_verify)

    an = subs.add_parser("analyze", help="full report for an ingested matrix file")
    an.add_argument("--matrix-file", required=True)
    _add_channel_flags(an)
    an.add_argument("--gamma", type=float, default=1.0)
    an.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS)
    an.add_argument(
        "--samples", type=int, default=0,
        help="Monte Carlo samples for uncertainty bands (0 = point estimate only; "
        "needs a std block in the matrix file)",
    )
    an.add_argument("--seed", type=int, default=0)
    _add_output_flags(an)
    an.set_defaults(func=_cmd_analyze)

    return parser


def _grid_from_count(count: int, samples: int = 0) -> np.ndarray:
    if count < 2:
        raise InvalidInputError(f"--grid needs at least 2 points, got {count}")
    if count > MAX_GRID_POINTS:
        raise InvalidInputError(f"--grid allows at most {MAX_GRID_POINTS} points, got {count}")
    if samples * count > MAX_SAMPLE_POINTS:
        raise InvalidInputError(
            f"--samples x --grid allows at most {MAX_SAMPLE_POINTS} sweep points, "
            f"got {samples} x {count}"
        )
    return np.linspace(0.0, 1.0, count)


def _pointer_basis(args) -> Optional[ProjectiveBasis]:
    """The --channel pointer basis (sigma_z without angles); None for another channel."""
    angles = (args.theta, args.phi)
    if args.channel == "pointer":
        return ProjectiveBasis(*(0.0 if angle is None else angle for angle in angles))
    if angles != (None, None):
        raise InvalidInputError(
            f"--theta and --phi need --channel pointer, not --channel {args.channel}"
        )
    return None


def _cmd_sweep(args) -> int:
    rho = _load_state(args)
    report = sweep(
        rho,
        args.channel,
        _grid_from_count(args.grid),
        gamma=args.gamma,
        pointer_basis=_pointer_basis(args),
    )
    _write_or_print(emit_report(report, args.format), args.out)
    return 0


def _cmd_emergence(args) -> int:
    rho = _load_state(args)
    params = x_state_params(rho)
    if params is None:
        raise InvalidInputError(
            "emergence needs an X-form state (diagonal plus anti-diagonal entries)"
        )
    text = emit_emergence(emergence_time(params, args.gamma), args.gamma, args.format)
    _write_or_print(text, args.out)
    return 0


def _cmd_maximize(args) -> int:
    record = correlation_record(_load_state(args))
    _write_or_print(emit_report(record, args.format), args.out)
    return 0


def _run_suite(name: str, args, remark_grid: Optional[np.ndarray]):
    if name == "remark":
        return verify_remark(remark_grid)
    # Built per call, so a suite whose module attribute was rebound (einbench's
    # tracer) is called as rebound.
    drawn = {"theorem1": verify_theorem1, "theorem2": verify_theorem2, "lemma1": verify_lemma1}
    flags = {"trials": args.trials, "seed": args.seed}
    return drawn[name](**{flag: value for flag, value in flags.items() if value is not None})


def _cmd_verify(args) -> int:
    if args.suite == "remark" and (args.trials is not None or args.seed is not None):
        raise InvalidInputError(
            "--suite remark is deterministic: it takes --grid, not --trials or --seed"
        )
    if args.suite not in ("remark", "all") and args.grid is not None:
        raise InvalidInputError(
            f"--suite {args.suite} draws random trials: it takes --trials and --seed, not --grid"
        )
    names = SUITES if args.suite == "all" else (args.suite,)
    grid = DEFAULT_GRID_POINTS if args.grid is None else args.grid
    remark_grid = _grid_from_count(grid) if "remark" in names else None
    outcomes = [_run_suite(name, args, remark_grid) for name in names]
    _write_or_print(emit_report(outcomes, args.format), args.out)
    return 0 if all(o.passed for o in outcomes) else 3


def _cmd_analyze(args) -> int:
    matrix = _two_qubit_file(args.matrix_file)
    grid = _grid_from_count(args.grid, args.samples)
    pointer = _pointer_basis(args)
    report, bands = _analysis(
        matrix, args.channel, grid,
        gamma=args.gamma, samples=args.samples, seed=args.seed, pointer_basis=pointer,
    )
    _write_or_print(emit_analysis(matrix, report, bands, args.format), args.out)
    return 0


# One parser per process, reused by every main() call; parsing leaves no state
# in it. It is built on the first call, not at import, so importing the CLI
# (which the benchmark's setup_s times, with one build_parser() call of its
# own) builds no parser.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except DataQualityError as exc:
        print(f"einselect: data quality: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OptimizationError) as exc:
        print(f"einselect: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
