"""Channel-strength sweeps, sudden-change detection, regime classification.

Channel strength becomes time through the exponential clock p(t) = 1 - exp(-gamma t);
decoherence_time gives tau_D = 1/gamma, where p = P_AT_TAU_D, and check_gamma is
the one check that gamma and 1/gamma are finite and positive.

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

Many initial states are swept as one stack (_sweeps), their transitions
bisected in lockstep; each state's records and transition are bit for bit
those of its own sweep.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import evolve, kraus_stack
from .correlations import (
    CorrelationRecord,
    ProjectiveBasis,
    basis_distance,
    classical_correlations,
    correlation_records,
)
from .errors import InvalidInputError, InvalidStateError
from .qstate import DensityMatrix, XStateParams, x_state_params

REGIME_CONSTANT = "constant"
REGIME_DECAY_THEN_CONSTANT = "decay-then-constant"
REGIME_MONOTONIC_DECAY = "monotonic-decay"
REGIME_SUDDEN_CHANGE = "sudden-change-no-plateau"

DEFAULT_GRID_POINTS = 201

# j_max variation below this is a plateau.
PLATEAU_TOL = 1e-6

# Argmax-basis jumps larger than this (antipodal-identified, radians) between
# consecutive grid points signal a sudden change.
JUMP_THRESHOLD = 0.1

# Below this many bits of j_max the state has no basis preference at all and
# the reported argmax angles are tie-break artifacts, so such records cannot
# anchor a jump (e.g. the exactly-product endpoint p = 1 under full damping).
BASIS_FLOOR = 1e-9

_BISECT_WIDTH = 1e-12

CHANNEL_FAMILIES = ("pd", "ad", "pointer")

# Channel strength reached at the decoherence time tau_D = 1/gamma.
P_AT_TAU_D = 1.0 - math.exp(-1.0)


@dataclass(frozen=True)
class EmergenceResult:
    """Closed-form emergence point: time and channel strength."""

    tau_e: float
    p_e: float


def check_gamma(gamma: float) -> None:
    """Raise unless gamma and the decoherence time 1/gamma are finite and positive."""
    if not (gamma > 0 and math.isfinite(gamma) and math.isfinite(1.0 / gamma)):
        raise InvalidInputError(
            f"gamma must be positive and finite, with finite 1/gamma; got {gamma}"
        )


def _is_count(value, least: int) -> bool:
    """Whether value is an integer (a numpy one too, a bool not) of at least least."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def _check_seed(seed) -> None:
    """Raise unless seed, the suites' or the Monte Carlo bands', is a non-negative integer."""
    if not _is_count(seed, 0):
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")


def decoherence_time(gamma: float) -> float:
    """tau_D = 1/gamma, for a gamma that check_gamma accepts."""
    check_gamma(gamma)
    return 1.0 / gamma


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
    emergence_time: Optional[float]
    gamma: float = 1.0

    def __post_init__(self):
        if not self.records:
            raise InvalidInputError("a trajectory needs at least one record")
        ps = [r.p for r in self.records]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise InvalidInputError("records must be sorted by strictly increasing p")
        check_gamma(self.gamma)

    @property
    def regime(self) -> str:
        """The trajectory's regime, classify_regime(records, transition_p)."""
        return classify_regime(self.records, self.transition_p)

    @property
    def tau_d(self) -> float:
        """Decoherence time 1/gamma."""
        return decoherence_time(self.gamma)

    @property
    def p_e(self) -> Optional[float]:
        """Channel strength at the emergence time, 1 - exp(-gamma tau_E)."""
        if self.emergence_time is None:
            return None
        return 1.0 - math.exp(-self.gamma * self.emergence_time)


def _dephasing_basis(
    family: str, pointer_basis: Optional[ProjectiveBasis]
) -> Optional[ProjectiveBasis]:
    """The pointer basis a dephasing family decoheres onto; None for "ad".

    "pd" is the sigma_z case of "pointer", whose basis defaults to sigma_z.
    """
    if family == "pd":
        return ProjectiveBasis.sigma_z()
    if family == "pointer":
        return pointer_basis or ProjectiveBasis.sigma_z()
    if family == "ad":
        return None
    raise InvalidInputError(
        f"unknown channel family {family!r}; expected one of {CHANNEL_FAMILIES}"
    )


def _validate_grid(grid) -> np.ndarray:
    if grid is None:
        return np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("grid points must be finite numbers")
    if arr[0] < 0.0 or arr[-1] > 1.0:
        raise InvalidInputError("grid must lie within [0, 1]")
    if arr.size > 1 and np.any(np.diff(arr) <= 0.0):
        raise InvalidInputError("grid must be strictly increasing")
    return arr


def _record_basis(record: CorrelationRecord) -> Optional[ProjectiveBasis]:
    if record.j_max <= BASIS_FLOOR:
        return None
    return ProjectiveBasis(record.opt_theta, record.opt_phi)


def _jump(records: Sequence[CorrelationRecord]) -> Optional[tuple]:
    """A trajectory's first argmax-basis jump: (lo, hi, kets), or None.

    lo and hi are the strengths of the two records, and kets holds the
    incoming (hi) then the outgoing (lo) basis as a (2, 2, 2) stack.
    """
    for before, after in zip(records, records[1:]):
        b0 = _record_basis(before)
        b1 = _record_basis(after)
        if b0 is None or b1 is None:
            continue
        if basis_distance(b0, b1) > JUMP_THRESHOLD:
            return before.p, after.p, np.array([b1.kets(), b0.kets()])
    return None


def _transitions(
    states: np.ndarray, basis: Optional[ProjectiveBasis], trajectories: Sequence
) -> list:
    """transition_p of each trajectory, from one lockstep bisection over the stack.

    states holds the (S, 4, 4) entries of the valid initial states, basis is
    the channel family's (_dephasing_basis), and trajectories holds each
    state's records. A trajectory without a jump gets None. The crossing
    J(incoming) - J(outgoing) is read at both ends of every bracket in one
    call, then at one midpoint of every open bracket per call; each bracket
    keeps its own ends and stops on its own, so each transition_p is bit for
    bit what its trajectory gives alone.
    """
    found = [(s, jump) for s, records in enumerate(trajectories) if (jump := _jump(records))]
    result = [None] * len(trajectories)
    if not found:
        return result
    owners, jumps = zip(*found)
    m = states[list(owners)]
    lo, hi, kets = (np.array(column) for column in zip(*jumps))

    def crossing(rows: np.ndarray, ps: np.ndarray) -> np.ndarray:
        j = classical_correlations(evolve(kraus_stack(basis, ps), m[rows]), kets[rows])
        return j[:, 0] - j[:, 1]

    rows = np.arange(len(owners))
    f_lo, f_hi = crossing(np.concatenate([rows, rows]), np.concatenate([lo, hi])).reshape(2, -1)
    # The outgoing basis dominates at lo and the incoming one at hi; on a
    # degenerate tie at a grid point the crossing sits at that edge.
    out = np.where(f_lo >= 0.0, lo, hi)
    live = rows[(f_lo < 0.0) & (f_hi > 0.0)]
    while live.size:
        narrow = ~(hi[live] - lo[live] > _BISECT_WIDTH)
        out[live[narrow]] = 0.5 * (lo[live[narrow]] + hi[live[narrow]])
        live = live[~narrow]
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = crossing(live, mid)
        below, above = f_mid < 0.0, f_mid > 0.0
        lo[live[below]] = mid[below]
        hi[live[above]] = mid[above]
        hit = ~(below | above)
        out[live[hit]] = mid[hit]
        live = live[~hit]
    for s, p in zip(owners, out.tolist()):
        result[s] = p
    return result


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
    basis never jumps. This is the one-trajectory case of the stacked
    bisection that sweeps run.
    """
    basis = _dephasing_basis(channel_family, pointer_basis)
    return _transitions(rho0.entries[None], basis, [records])[0]


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


def emergence_time(params: XStateParams, gamma: float = 1.0) -> Optional[EmergenceResult]:
    """Closed-form emergence point for an X state under sigma_z dephasing.

    The transverse competitor is |z| + |w|, the larger of the sigma_x and
    sigma_y coherences |z + w| and |z - w|. Returns None when
    |z| + |w| <= |c - b|: the pointer-basis value dominates from the start,
    so there is no transition (the trajectory is constant). Raises for c = b,
    where the formula diverges (zero pointer correlation, no finite
    emergence; the decay is asymptotic). Raises InvalidInputError for a
    gamma that check_gamma rejects.
    """
    check_gamma(gamma)
    gap = abs(params.c - params.b)
    transverse = abs(params.z) + abs(params.w)
    if gap < 1e-15:
        raise InvalidStateError(
            "emergence time diverges for c = b (no pointer-basis correlation)"
        )
    if transverse <= gap:
        return None
    return EmergenceResult(
        tau_e=math.log(transverse / gap) / gamma, p_e=1.0 - gap / transverse
    )


# Trajectories are swept this many states (trajectories times grid points) at
# a time, at least one trajectory per chunk, so the memory of a many-trajectory
# sweep does not grow with its trajectory count. A chunk's maximizer and
# entropy intermediates take about 2.5 KB per state: at 1024 states a
# 1000-sample, 201-point analyze peaks about 3 MiB above a one-sample-at-a-time
# loop, and larger chunks run no faster there.
_SWEEP_STATES = 1024


def _sweeps(
    states,
    channel_family: str,
    grid,
    *,
    pointer_basis: Optional[ProjectiveBasis],
):
    """Sweep each initial state in an iterable over one grid; yield (records, transition_p) each.

    states is any iterable (an array, a list, a generator) of the (4, 4)
    entries of valid two-qubit states, and the trajectories come out in its
    order. The grid and the channel family are checked before the first
    state is read; then _SWEEP_STATES states are read at a time, so a
    generator's states are made only as each chunk needs them. Each chunk is
    one (S N, 4, 4) stack of channel outputs, read by one correlation_records
    call, and its transitions come from one lockstep bisection
    (_transitions). Each trajectory's records and transition_p are bit for
    bit what it gives alone; sweep is the S = 1 case.
    """
    ps = _validate_grid(grid)
    basis = _dephasing_basis(channel_family, pointer_basis)
    ops = kraus_stack(basis, ps)
    labels = [float(p) for p in ps]
    per_chunk = max(1, _SWEEP_STATES // ps.size)
    states = iter(states)
    while chunk := list(itertools.islice(states, per_chunk)):
        m = np.array(chunk)
        evolved = np.concatenate([evolve(ops, rho) for rho in m])
        records = correlation_records(evolved, labels * len(m))
        trajectories = [
            tuple(records[k : k + ps.size]) for k in range(0, len(records), ps.size)
        ]
        yield from zip(trajectories, _transitions(m, basis, trajectories))


def sweep(
    rho0: DensityMatrix,
    channel_family: str,
    grid=None,
    *,
    gamma: float = 1.0,
    pointer_basis: Optional[ProjectiveBasis] = None,
) -> TrajectoryReport:
    """Drive a state through a channel family and report the full trajectory.

    For every grid strength p the initial state is evolved with the channel at
    that strength (not iteratively; all strengths as one stack), and the
    record carries J in the sigma_z and sigma_x bases, the full maximization
    with its argmax angles, mutual information, and discord. Transition
    detection and (for X states under "pd", or "pointer" on the sigma_z
    basis) the closed-form emergence time complete the report, whose regime
    follows from the records and transition.
    """
    check_gamma(gamma)
    ((records, transition),) = _sweeps(
        rho0.entries[None], channel_family, grid, pointer_basis=pointer_basis
    )

    basis = _dephasing_basis(channel_family, pointer_basis)
    tau_e = None
    if basis is not None and basis_distance(basis, ProjectiveBasis.sigma_z()) < 1e-12:
        params = x_state_params(rho0)
        if params is not None:
            try:
                result = emergence_time(params, gamma)
            except InvalidStateError:
                result = None
            if result is not None:
                tau_e = result.tau_e

    return TrajectoryReport(
        records=records,
        transition_p=transition,
        emergence_time=tau_e,
        gamma=gamma,
    )
