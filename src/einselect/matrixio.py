"""Matrix-file ingestion, physicality projection, and report serialization.

Matrix files carry externally reconstructed density matrices (typically from
state tomography) as structured text, so they stay inspectable by eye:

    # free-form comments
    dim 4
    real
    0.4  0    0    0.4
    0    0.1  0.1  0
    0    0.1  0.1  0
    0.4  0    0    0.4
    imag
    ... four rows ...
    std
    ... four rows, optional per-entry standard deviations ...

Reconstructed matrices are rarely exactly physical. Ingestion measures the
Hermiticity, trace, and positivity deviations of the raw matrix, then projects:
symmetrize, renormalize the trace, clip negative eigenvalues to zero, and
renormalize again. If the projected state differs from the raw matrix by more
than 0.05 in max-norm the data is too unphysical to trust and ingestion aborts.

This module is also the only one that knows the output format. Every CLI
table (trajectories, verification outcomes, emergence, maximization, and
analysis reports with their Monte Carlo bands) is built as payload dicts and
written by one CSV table writer, with one cell formatter (12 significant
digits), or by one JSON writer. Matrix files are written at 17 significant
digits so a write/parse round trip is exact well beyond the 12-digit
requirement. Nothing time- or machine-dependent is ever emitted, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .correlations import CorrelationRecord
from .dynamics import P_AT_TAU_D, TrajectoryReport, check_gamma, decoherence_time
from .errors import DataQualityError, InvalidInputError
from .qstate import DensityMatrix
from .verify import VerificationOutcome

MAX_PROJECTION_DISTANCE = 0.05

FORMATS = ("csv", "json")

# Output columns. A trajectory row is one CorrelationRecord, fields in
# declaration order; `maximize` prints one record without its strength p.
CSV_COLUMNS = tuple(f.name for f in fields(CorrelationRecord))
MAXIMUM_COLUMNS = CSV_COLUMNS[1:]
OUTCOME_COLUMNS = ("theorem_id", "trials", "failures", "worst_violation", "seed")
EMERGENCE_COLUMNS = ("gamma", "tau_d", "tau_e", "p_e", "p_at_tau_d", "transition")


@dataclass(frozen=True)
class PhysicalityReport:
    """How far a raw matrix was from a valid state, and how far projection moved it."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    projection_distance: float


@dataclass(frozen=True)
class MatrixFile:
    """A parsed matrix file: raw complex matrix, optional uncertainties, projected state."""

    raw: np.ndarray
    std: Optional[np.ndarray]
    state: DensityMatrix
    deviations: PhysicalityReport


def _check_matrix(m: np.ndarray) -> None:
    """Reject anything but a finite 2x2 or 4x4 matrix, before any arithmetic on it."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise InvalidInputError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix entries must be finite numbers")


def _too_large(kind: str, flag: int = 0) -> None:
    raise DataQualityError(f"matrix entries are too large to analyze ({kind})")


def float_range_guard() -> np.errstate:
    """An errstate in which float overflow, or the NaN it makes, raises DataQualityError.

    Finite entries near 1e308 pass _check_matrix, yet sums or noise on them overflow.
    """
    return np.errstate(over="call", invalid="call", call=_too_large)


def project_to_physical(
    raw: np.ndarray, max_distance: Optional[float] = MAX_PROJECTION_DISTANCE
) -> tuple[DensityMatrix, PhysicalityReport]:
    """Project an approximately physical matrix onto a valid density matrix.

    Symmetrizes, renormalizes the trace, clips negative eigenvalues, and
    renormalizes once more. Reports the raw deviations and the max-norm
    distance moved; a move beyond max_distance raises DataQualityError
    (pass max_distance=None to project unconditionally, as the Monte Carlo
    resampler does). A non-finite entry raises InvalidInputError, and
    entries so large that the projection overflows raise DataQualityError.
    """
    m = np.asarray(raw, dtype=complex)
    _check_matrix(m)
    with float_range_guard():
        hermiticity = float(np.max(np.abs(m - m.conj().T)))
        sym = 0.5 * (m + m.conj().T)
        trace = float(sym.trace().real)
        trace_dev = abs(trace - 1.0)
        if trace < 0.1:
            raise DataQualityError(f"trace {trace:.6g} is too small to renormalize into a state")
        sym = sym / trace
        vals, vecs = np.linalg.eigh(sym)
        if not np.all(np.isfinite(vals)):  # LAPACK's silent NaN for a spectrum past 1e308
            _too_large("eigenvalues beyond float range")
        min_eig = float(vals[0])
        clipped = np.clip(vals, 0.0, None)
        total = float(clipped.sum())
        if total <= 0.0:
            raise DataQualityError("matrix has no positive spectral weight")
        clipped /= total
        physical = (vecs * clipped) @ vecs.conj().T
        distance = float(np.max(np.abs(m - physical)))
    report = PhysicalityReport(
        hermiticity_deviation=hermiticity,
        trace_deviation=trace_dev,
        min_eigenvalue=min_eig,
        projection_distance=distance,
    )
    if max_distance is not None and distance > max_distance:
        raise DataQualityError(
            f"projected state is {distance:.4g} away from the input in max-norm "
            f"(limit {max_distance}); data too unphysical to analyze"
        )
    return DensityMatrix(physical), report


def _parse_block(lines: list, start: int, dim: int, label: str) -> tuple[np.ndarray, int]:
    rows = []
    idx = start
    while len(rows) < dim:
        if idx >= len(lines):
            raise InvalidInputError(
                f"matrix file ended inside the {label!r} block "
                f"(needs {dim} rows, found {len(rows)})"
            )
        text = lines[idx]
        idx += 1
        parts = text.split()
        try:
            row = [float(tok) for tok in parts]
        except ValueError as exc:
            raise InvalidInputError(
                f"bad number in {label!r} block: {text!r}"
            ) from exc
        if not all(math.isfinite(v) for v in row):
            raise InvalidInputError(f"non-finite number in {label!r} block: {text!r}")
        if len(row) != dim:
            raise InvalidInputError(
                f"{label!r} block row has {len(row)} entries, expected {dim}: {text!r}"
            )
        rows.append(row)
    return np.array(rows, dtype=float), idx


def parse_matrix_file(path) -> MatrixFile:
    """Parse, validate, and physically project a matrix file.

    Raises InvalidInputError for malformed structure and DataQualityError when
    the contents are too far from a physical state (see project_to_physical).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise InvalidInputError(f"cannot read matrix file {path}: {exc}") from exc
    lines = [
        stripped
        for stripped in (line.strip() for line in raw_lines)
        if stripped and not stripped.startswith("#")
    ]
    parts = lines[0].split() if lines else []
    if not parts or parts[0] != "dim":
        raise InvalidInputError("matrix file must start with a 'dim N' line")
    if len(parts) != 2 or not parts[1].isdecimal():
        raise InvalidInputError(f"bad dim line: {lines[0]!r}")
    dim = int(parts[1])
    if dim not in (2, 4):
        raise InvalidInputError(f"dim must be 2 or 4, got {dim}")

    idx = 1
    blocks = {}
    while idx < len(lines):
        label = lines[idx]
        if label not in ("real", "imag", "std"):
            raise InvalidInputError(f"unexpected line in matrix file: {label!r}")
        if label in blocks:
            raise InvalidInputError(f"duplicate {label!r} block")
        block, idx = _parse_block(lines, idx + 1, dim, label)
        blocks[label] = block
    for required in ("real", "imag"):
        if required not in blocks:
            raise InvalidInputError(f"matrix file is missing the {required!r} block")

    std = blocks.get("std")
    if std is not None and np.any(std < 0.0):
        raise InvalidInputError("uncertainty entries must be nonnegative")

    raw = blocks["real"] + 1j * blocks["imag"]
    state, deviations = project_to_physical(raw)
    return MatrixFile(raw=raw, std=std, state=state, deviations=deviations)


def write_matrix_file(path, matrix, std: Optional[np.ndarray] = None, comment: str = "") -> None:
    """Write a matrix (DensityMatrix or complex array) in the structured format.

    Non-finite matrix or std entries raise InvalidInputError: the parser
    would refuse the file.
    """
    m = np.asarray(getattr(matrix, "entries", matrix), dtype=complex)
    _check_matrix(m)
    dim = m.shape[0]
    if std is not None:
        std = np.asarray(std, dtype=float)
        if std.shape != m.shape:
            raise InvalidInputError(
                f"uncertainty block shape {std.shape} does not match matrix {m.shape}"
            )
        if not np.all(np.isfinite(std)):
            raise InvalidInputError("uncertainty entries must be finite numbers")
        if np.any(std < 0.0):
            raise InvalidInputError("uncertainty entries must be nonnegative")

    def rows(block: np.ndarray) -> list:
        return [" ".join(f"{v:.17g}" for v in row) for row in block]

    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"dim {dim}")
    lines.append("real")
    lines.extend(rows(m.real))
    lines.append("imag")
    lines.extend(rows(m.imag))
    if std is not None:
        lines.append("std")
        lines.extend(rows(std))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def format_cell(value) -> str:
    """One CSV cell: empty for None, true/false for bools, 12 digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_table(columns, rows) -> str:
    """A header line of column names, then one line per payload dict."""
    lines = [",".join(columns)]
    lines.extend(",".join(format_cell(row[name]) for name in columns) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """Indented JSON. NaN and infinities raise ValueError: JSON cannot carry them."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _render(fmt: str, columns, rows, payload) -> str:
    if fmt not in FORMATS:
        raise InvalidInputError(f"format must be 'csv' or 'json', got {fmt!r}")
    return json_text(payload) if fmt == "json" else csv_table(columns, rows)


def _record_payload(record: CorrelationRecord) -> dict:
    """JSON-ready dict of one record's fields, in CSV column order."""
    return {name: getattr(record, name) for name in CSV_COLUMNS}


def trajectory_payload(report: TrajectoryReport) -> dict:
    """JSON-ready dict mirroring a trajectory's records and metadata."""
    return {
        "regime": report.regime,
        "transition_p": report.transition_p,
        "emergence_time": report.emergence_time,
        "p_e": report.p_e,
        "tau_d": report.tau_d,
        "gamma": report.gamma,
        "records": [_record_payload(r) for r in report.records],
    }


def outcome_payload(outcome: VerificationOutcome) -> dict:
    """JSON-ready dict for a verification outcome."""
    payload = {name: getattr(outcome, name) for name in OUTCOME_COLUMNS}
    payload["passed"] = outcome.passed
    return payload


def emergence_payload(result, gamma: float) -> dict:
    """JSON-ready summary of a closed-form emergence computation.

    result may be None (no transition: the pointer-basis value dominates from
    the start); the payload then carries nulls and transition = false.
    """
    gamma = check_gamma(gamma)
    return {
        "gamma": gamma,
        "tau_d": decoherence_time(gamma),
        "tau_e": None if result is None else result.tau_e,
        "p_e": None if result is None else result.p_e,
        "p_at_tau_d": P_AT_TAU_D,
        "transition": result is not None,
    }


def bands_payload(bands) -> dict:
    """JSON-ready dict of Monte Carlo bands (a montecarlo.MonteCarloBands)."""
    return {
        "samples": bands.samples,
        "seed": bands.seed,
        "transition_mean": bands.transition_mean,
        "transition_std": bands.transition_std,
        "transition_count": bands.transition_count,
        "p": [float(v) for v in bands.p],
        "means": {k: [float(v) for v in vs] for k, vs in bands.means.items()},
        "stds": {k: [float(v) for v in vs] for k, vs in bands.stds.items()},
    }


def emit_report(report, fmt: str = "csv") -> str:
    """Serialize a trajectory, one or more verification outcomes, or one record.

    A trajectory's CSV has the CSV_COLUMNS of every record at 12 significant
    digits; its JSON mirrors the records and adds the regime, transition, and
    emergence metadata. Outcomes give one CSV row each; in JSON a single
    outcome is an object and several are a list. A lone CorrelationRecord
    describes one state, so it is written without its strength p.
    """
    if isinstance(report, TrajectoryReport):
        payload = trajectory_payload(report)
        return _render(fmt, CSV_COLUMNS, payload["records"], payload)
    if isinstance(report, CorrelationRecord):
        row = _record_payload(report)
        del row["p"]
        return _render(fmt, MAXIMUM_COLUMNS, [row], row)
    outcomes = [report] if isinstance(report, VerificationOutcome) else report
    if isinstance(outcomes, (list, tuple)) and outcomes and all(
        isinstance(o, VerificationOutcome) for o in outcomes
    ):
        rows = [outcome_payload(o) for o in outcomes]
        return _render(fmt, OUTCOME_COLUMNS, rows, rows if len(rows) > 1 else rows[0])
    raise InvalidInputError(f"cannot emit a report of type {type(report).__name__}")


def emit_emergence(result, gamma: float, fmt: str = "csv") -> str:
    """Serialize a closed-form emergence result (None: no transition)."""
    payload = emergence_payload(result, gamma)
    return _render(fmt, EMERGENCE_COLUMNS, [payload], payload)


def emit_analysis(matrix: MatrixFile, report: TrajectoryReport, bands, fmt: str = "csv") -> str:
    """Serialize an ingested matrix's analysis.

    JSON carries the ingestion deviations, the trajectory, and the Monte Carlo
    bands (null without them); CSV is the trajectory table alone.
    """
    deviations = matrix.deviations
    payload = {
        "deviations": {
            "hermiticity": deviations.hermiticity_deviation,
            "trace": deviations.trace_deviation,
            "min_eigenvalue": deviations.min_eigenvalue,
            "projection_distance": deviations.projection_distance,
        },
        "report": trajectory_payload(report),
        "bands": None if bands is None else bands_payload(bands),
    }
    return _render(fmt, CSV_COLUMNS, payload["report"]["records"], payload)
