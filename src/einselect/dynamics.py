"""Channel-strength sweeps, sudden-change detection, regime classification.

A sweep drives a two-qubit state through a channel family over p in [0, 1],
records every correlation quantity per grid point, locates the first jump of
the optimal measurement basis (the sudden change), refines it by bisecting
the crossing of the two competing bases' correlation values, classifies the
trajectory into one of four regimes, and evaluates the closed-form emergence
time for X states under pointer-preserving dephasing:

    tau_E = (1/gamma) ln ((|z| + |w|) / |c - b|),   p_E = 1 - |c - b| / (|z| + |w|).

The transverse correlation that competes with the pointer value is carried by
sigma_x or sigma_y, whichever is larger: max(|z + w|, |z - w|) = |z| + |w|.
For same-sign coherences (z w >= 0) this is the |z + w| of the source paper.
After t = tau_E (p >= p_E) the maximal correlation is constant and attained
by the pointer basis; tau_D = 1/gamma is the conventional decoherence time,
and tau_E may fall on either side of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channels import (
    DecayRate,
    KrausChannel,
    amplitude_damping,
    apply_to_apparatus,
    check_gamma,
    phase_damping,
    pointer_decoherence,
)
from .correlations import (
    CorrelationRecord,
    OptimizerSettings,
    ProjectiveBasis,
    basis_distance,
    classical_correlation,
    correlation_record,
)
from .errors import InvalidInputError, InvalidStateError
from .qstate import DensityMatrix, XStateParams, x_state_params

REGIME_CONSTANT = "constant"
REGIME_DECAY_THEN_CONSTANT = "decay-then-constant"
REGIME_MONOTONIC_DECAY = "monotonic-decay"
REGIME_SUDDEN_CHANGE = "sudden-change-no-plateau"

REGIMES = (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    REGIME_MONOTONIC_DECAY,
    REGIME_SUDDEN_CHANGE,
)

DEFAULT_GRID_POINTS = 201

# j_max variation below this is a plateau; consecutive-point increases beyond
# MONOTONE_SLACK are genuine non-monotonicity rather than optimizer jitter.
PLATEAU_TOL = 1e-6
MONOTONE_SLACK = 1e-9

# Argmax-basis jumps larger than this (antipodal-identified, radians) between
# consecutive grid points signal a sudden change.
JUMP_THRESHOLD = 0.1

# Below this many bits of j_max the state has no basis preference at all and
# the reported argmax angles are tie-break artifacts, so such records cannot
# anchor a jump (e.g. the exactly-product endpoint p = 1 under full damping).
BASIS_FLOOR = 1e-9

_BISECT_WIDTH = 1e-12

CHANNEL_FAMILIES = ("pd", "ad", "pointer")


@dataclass(frozen=True)
class EmergenceResult:
    """Closed-form emergence point: time, strength, and the decoherence scale."""

    tau_e: float
    p_e: float
    tau_d: float
    gamma: float


@dataclass(frozen=True)
class TrajectoryReport:
    """Outcome of one sweep: per-point records plus trajectory-level structure.

    emergence_time is the closed-form value (in units of 1/gamma via the gamma
    used for the sweep) when the initial state has X form and the channel
    preserves the sigma_z pointer basis; it is None otherwise, and it agrees
    with the numerically detected transition_p through p = 1 - exp(-gamma tau_E).
    """

    records: tuple
    transition_p: Optional[float]
    regime: str
    emergence_time: Optional[float]
    tau_d: float
    gamma: float = 1.0

    def __post_init__(self):
        if not self.records:
            raise InvalidInputError("a trajectory needs at least one record")
        ps = [r.p for r in self.records]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise InvalidInputError("records must be sorted by strictly increasing p")
        if self.regime not in REGIMES:
            raise InvalidInputError(f"unknown regime {self.regime!r}")
        if self.regime == REGIME_DECAY_THEN_CONSTANT:
            if self.transition_p is None:
                raise InvalidInputError(
                    "decay-then-constant requires a detected transition"
                )
            tail = [r.j_max for r in self.records if r.p >= self.transition_p - 1e-12]
            if tail and max(tail) - min(tail) >= PLATEAU_TOL:
                raise InvalidInputError(
                    "decay-then-constant requires a plateau after the transition"
                )

    @property
    def p_e(self) -> Optional[float]:
        """Channel strength at the emergence time, 1 - exp(-gamma tau_E)."""
        if self.emergence_time is None:
            return None
        return 1.0 - math.exp(-self.gamma * self.emergence_time)


def _channel_maker(
    family: str, pointer_basis: Optional[ProjectiveBasis]
) -> Callable[[float], KrausChannel]:
    if family == "pd":
        return phase_damping
    if family == "ad":
        return amplitude_damping
    if family == "pointer":
        basis = pointer_basis or ProjectiveBasis.sigma_z()
        return lambda p: pointer_decoherence(basis, p)
    raise InvalidInputError(
        f"unknown channel family {family!r}; expected one of {CHANNEL_FAMILIES}"
    )


def _validate_grid(grid) -> np.ndarray:
    if grid is None:
        return np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("grid must be a nonempty 1-d sequence")
    if arr[0] < 0.0 or arr[-1] > 1.0:
        raise InvalidInputError("grid must lie within [0, 1]")
    if arr.size > 1 and np.any(np.diff(arr) <= 0.0):
        raise InvalidInputError("grid must be strictly increasing")
    return arr


def _record_basis(record: CorrelationRecord) -> Optional[ProjectiveBasis]:
    if record.j_max <= BASIS_FLOOR:
        return None
    return ProjectiveBasis(record.opt_theta, record.opt_phi)


def detect_transition(
    rho0: DensityMatrix,
    channel_family: str,
    records: Sequence[CorrelationRecord],
    *,
    pointer_basis: Optional[ProjectiveBasis] = None,
) -> Optional[float]:
    """Locate the sudden change of the optimal measurement basis, if any.

    Scans consecutive records for the first argmax-basis jump larger than
    JUMP_THRESHOLD (antipodal-identified), then refines the crossing point of
    the two competing bases' correlation values by bisection down to an
    interval of 1e-12 in p. Records whose j_max is below BASIS_FLOOR carry no
    basis information and never anchor a jump. Returns None when the argmax
    basis never jumps.
    """
    make = _channel_maker(channel_family, pointer_basis)
    for before, after in zip(records, records[1:]):
        b0 = _record_basis(before)
        b1 = _record_basis(after)
        if b0 is None or b1 is None:
            continue
        if basis_distance(b0, b1) <= JUMP_THRESHOLD:
            continue

        def crossing(p: float) -> float:
            evolved = apply_to_apparatus(make(p), rho0)
            return classical_correlation(evolved, b1) - classical_correlation(
                evolved, b0
            )

        lo, hi = before.p, after.p
        f_lo, f_hi = crossing(lo), crossing(hi)
        # The outgoing basis dominates at lo and the incoming one at hi; on a
        # degenerate tie at a grid point the crossing sits at that edge.
        if f_lo >= 0.0:
            return float(lo)
        if f_hi <= 0.0:
            return float(hi)
        while hi - lo > _BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            f_mid = crossing(mid)
            if f_mid < 0.0:
                lo = mid
            elif f_mid > 0.0:
                hi = mid
            else:
                return float(mid)
        return float(0.5 * (lo + hi))
    return None


def classify_regime(
    records: Sequence[CorrelationRecord], transition_p: Optional[float]
) -> str:
    """Assign one of the four trajectory regimes.

    The plateau test checks whether max - min of j_max stays below PLATEAU_TOL,
    over the whole range when no transition was detected and over
    p >= transition_p otherwise. Monotonicity of j_max is a theorem-level
    property verified by the property suites, not part of the label choice.
    """
    if not records:
        raise InvalidInputError("cannot classify an empty record list")
    if transition_p is None:
        j = [r.j_max for r in records]
        return REGIME_CONSTANT if max(j) - min(j) < PLATEAU_TOL else REGIME_MONOTONIC_DECAY
    tail = [r.j_max for r in records if r.p >= transition_p - 1e-12]
    if not tail:
        return REGIME_SUDDEN_CHANGE
    plateau = max(tail) - min(tail) < PLATEAU_TOL
    return REGIME_DECAY_THEN_CONSTANT if plateau else REGIME_SUDDEN_CHANGE


def max_increase(records: Sequence[CorrelationRecord]) -> float:
    """Largest consecutive increase of j_max along the sweep (0 when none)."""
    worst = 0.0
    for before, after in zip(records, records[1:]):
        worst = max(worst, after.j_max - before.j_max)
    return worst


def emergence_time(
    params: XStateParams, gamma: DecayRate | float = 1.0
) -> Optional[EmergenceResult]:
    """Closed-form emergence point for an X state under sigma_z dephasing.

    The transverse competitor is |z| + |w|, the larger of the sigma_x and
    sigma_y coherences |z + w| and |z - w|. Returns None when
    |z| + |w| <= |c - b|: the pointer-basis value dominates from the start,
    so there is no transition (the trajectory is constant). Raises for c = b,
    where the formula diverges (zero pointer correlation, no finite
    emergence; the decay is asymptotic).
    """
    rate = gamma if isinstance(gamma, DecayRate) else DecayRate(float(gamma))
    gap = abs(params.c - params.b)
    transverse = abs(params.z) + abs(params.w)
    if gap < 1e-15:
        raise InvalidStateError(
            "emergence time diverges for c = b (no pointer-basis correlation)"
        )
    if transverse <= gap:
        return None
    return EmergenceResult(
        tau_e=math.log(transverse / gap) / rate.gamma,
        p_e=1.0 - gap / transverse,
        tau_d=rate.tau_d,
        gamma=rate.gamma,
    )


def sweep(
    rho0: DensityMatrix,
    channel_family: str,
    grid=None,
    *,
    gamma: float = 1.0,
    pointer_basis: Optional[ProjectiveBasis] = None,
    settings: Optional[OptimizerSettings] = None,
) -> TrajectoryReport:
    """Drive a state through a channel family and report the full trajectory.

    For every grid strength p the initial state is evolved with the channel at
    that strength (not iteratively), and the record carries J in the sigma_z
    and sigma_x bases, the full maximization with its argmax angles, mutual
    information, and discord. Transition detection, regime classification, and
    (for X states under "pd", or "pointer" on the sigma_z basis) the
    closed-form emergence time complete the report.
    """
    ps = _validate_grid(grid)
    check_gamma(gamma, InvalidInputError)
    make = _channel_maker(channel_family, pointer_basis)
    records = [
        correlation_record(apply_to_apparatus(make(float(p)), rho0), float(p), settings)
        for p in ps
    ]

    transition = detect_transition(
        rho0, channel_family, records, pointer_basis=pointer_basis
    )
    regime = classify_regime(records, transition)

    tau_e = None
    dephasing = channel_family == "pd" or (
        channel_family == "pointer"
        and basis_distance(
            pointer_basis or ProjectiveBasis.sigma_z(), ProjectiveBasis.sigma_z()
        )
        < 1e-12
    )
    if dephasing:
        params = x_state_params(rho0)
        if params is not None:
            try:
                result = emergence_time(params, DecayRate(gamma))
            except InvalidStateError:
                result = None
            if result is not None:
                tau_e = result.tau_e

    return TrajectoryReport(
        records=tuple(records),
        transition_p=transition,
        regime=regime,
        emergence_time=tau_e,
        tau_d=1.0 / gamma,
        gamma=gamma,
    )
