"""Channel-strength sweeps, sudden-change detection, regime classification.

Channel strength becomes time through the clock p(t) = 1 - exp(-gamma t) (_clock,
which gives every p_E); decoherence_time gives tau_D = 1/gamma, where p = P_AT_TAU_D,
and check_gamma is the one check of gamma: a real number, not a bool, with gamma
and 1/gamma finite and positive, which it returns as a float for every caller to keep.

A sweep drives a two-qubit state through a channel family over p in [0, 1],
records every correlation quantity per grid point, locates the first jump of
the optimal measurement basis (the sudden change), refines it to the root of
the crossing of the two competing bases' correlation values (_crossings, a
safeguarded Illinois iteration), classifies the trajectory into one of four
regimes, and evaluates the closed-form emergence time for X states under
pointer-preserving dephasing:

    tau_E = (1/gamma) ln ((|z| + |w|) / |c - b|),   p_E = 1 - |c - b| / (|z| + |w|).

The transverse correlation that competes with the pointer value is carried by
sigma_x or sigma_y, whichever is larger: max(|z + w|, |z - w|) = |z| + |w|.
For same-sign coherences (z w >= 0) this is the |z + w| of the source paper.
After t = tau_E (p >= p_E) the maximal correlation is constant and attained
by the pointer basis; tau_D = 1/gamma is the conventional decoherence time,
and tau_E may fall on either side of it.

A sweep's grid and channel family are checked once (_sweep_plan); then its
states stream as one stack through the one stacked sweep (_sweeps), each
state's records and transition bit for bit those of its own sweep. A chunk's
records and its jump scan (_jump, one vector pass over neighbouring argmax
axes) read the same maximizer arrays; detect_transition, which is handed
records, rebuilds those axes from their stored angles.
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
    _SIGMA_ZX,
    CorrelationRecord,
    ProjectiveBasis,
    _measure,
    _records,
    _two_qubit_stack,
    basis_distance,
    classical_correlations,
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

# A sudden-change bracket closes once it is at most this wide in p.
_BRACKET_WIDTH = 1e-12

CHANNEL_FAMILIES = ("pd", "ad", "pointer")


def _clock(gamma: float, t: float) -> float:
    """Channel strength at time t, p(t) = 1 - exp(-gamma t): the one formula for it."""
    return 1.0 - math.exp(-gamma * t)


# Channel strength reached at the decoherence time tau_D = 1/gamma.
P_AT_TAU_D = _clock(1.0, 1.0)


@dataclass(frozen=True)
class EmergenceResult:
    """Closed-form emergence point: time and channel strength."""

    tau_e: float
    p_e: float


def check_gamma(gamma: float) -> float:
    """gamma as a float, the one check of gamma.

    Raises unless gamma is a real number (a numpy one too, a bool not) whose
    value and decoherence time 1/gamma are finite and positive.
    """
    real = isinstance(gamma, numbers.Real) and not isinstance(gamma, bool)
    if not (real and gamma > 0 and math.isfinite(gamma) and math.isfinite(1.0 / float(gamma))):
        raise InvalidInputError(
            f"gamma must be positive and finite, with finite 1/gamma; got {gamma}"
        )
    return float(gamma)


def _count(value, least: int, message: str) -> int:
    """value as an int, the one rule for a seed, trial or sample count.

    Raises InvalidInputError(message) unless value is an integer (a numpy one
    too, a bool not) of at least least.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise InvalidInputError(message)
    return int(value)


def _seed(seed) -> int:
    """The suites' or the Monte Carlo bands' seed, a non-negative integer, as an int."""
    return _count(seed, 0, f"seed must be a non-negative integer, got {seed}")


def decoherence_time(gamma: float) -> float:
    """tau_D = 1/gamma, for a gamma that check_gamma accepts."""
    return 1.0 / check_gamma(gamma)


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
        # A frozen dataclass: store the float that check_gamma returns.
        object.__setattr__(self, "gamma", check_gamma(self.gamma))

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
        return _clock(self.gamma, self.emergence_time)


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


def _jump(j_max: np.ndarray, axes: np.ndarray) -> tuple:
    """Each trajectory's first argmax-basis jump, from one vector pass: (owners, pairs).

    j_max (S, N) and axes (S, N, 3) hold the maxima and argmax axes of S
    trajectories. Records k and k + 1 jump where |a_k . a_{k+1}| is below
    cos(JUMP_THRESHOLD), that is where the antipodal-identified angle between
    their axes exceeds JUMP_THRESHOLD. A record at or below BASIS_FLOOR has
    no basis, so neither pair it belongs to can jump. owners are the
    trajectories with a jump, in order, and pairs holds the k of each one's
    first jump.
    """
    a, b = axes[:, :-1], axes[:, 1:]
    dots = np.abs(a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2])
    based = j_max > BASIS_FLOOR
    jumps = based[:, :-1] & based[:, 1:] & (dots < math.cos(JUMP_THRESHOLD))
    owners = np.flatnonzero(jumps.any(axis=1))
    # argmax gives each row's first True; a one-point grid has no pair to give.
    return owners, jumps.argmax(axis=1)[owners] if owners.size else owners


def _crossings(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of f in each bracket [lo, hi], from one lockstep Illinois iteration.

    f(rows, ps) reads the crossing of brackets rows at strengths ps, each
    row on its own; it is negative at a bracket's lo and positive at its hi
    when the bracket has a root inside. Both ends of every bracket are read
    in one call. A bracket whose f is >= 0 at lo ends at lo, one whose f is
    <= 0 at hi ends at hi, with no iteration. Each other bracket then takes
    one step per call: the secant point of its two ends, or the midpoint
    where the secant point is not strictly inside or where the bracket is
    more than 4 times as wide as halving would have left it. The new point
    replaces the end of its sign, so f < 0 at lo and f > 0 at hi throughout,
    and an end kept twice in a row has its stored f halved (the Illinois
    rule: Dowell and Jarratt, BIT 11, 168, 1971). A bracket stops at an
    exact zero, which it returns, or once it is at most _BRACKET_WIDTH wide,
    when it returns its midpoint. The midpoint guard bounds each bracket at
    three steps more than bisection takes. Each bracket keeps its own ends,
    values and allowed width, so its root is bit for bit what it gives alone.
    """
    lo, hi = lo.astype(float), hi.astype(float)
    rows = np.arange(lo.size)
    f_lo, f_hi = f(np.concatenate([rows, rows]), np.concatenate([lo, hi])).reshape(2, -1)
    out = np.where(f_lo >= 0.0, lo, hi)
    live = rows[(f_lo < 0.0) & (f_hi > 0.0)]
    # The widest each bracket may be before its next step, and which end
    # its last step kept.
    allowed = 4.0 * (hi - lo)
    kept_lo = np.zeros(lo.size, dtype=bool)
    kept_hi = np.zeros(lo.size, dtype=bool)
    while live.size:
        a, b = lo[live], hi[live]
        narrow = ~(b - a > _BRACKET_WIDTH)
        out[live[narrow]] = 0.5 * (a[narrow] + b[narrow])
        live, a, b = live[~narrow], a[~narrow], b[~narrow]
        if not live.size:
            break
        fa, fb = f_lo[live], f_hi[live]
        secant = a - fa * ((b - a) / (fb - fa))
        inside = (a < secant) & (secant < b) & (b - a <= allowed[live])
        x = np.where(inside, secant, 0.5 * (a + b))
        allowed[live] *= 0.5
        fx = f(live, x)
        below, above = fx < 0.0, fx > 0.0
        # An end kept again has its value halved, so the next secant point
        # moves towards it.
        f_hi[live[below & kept_hi[live]]] *= 0.5
        f_lo[live[above & kept_lo[live]]] *= 0.5
        lo[live[below]], f_lo[live[below]] = x[below], fx[below]
        hi[live[above]], f_hi[live[above]] = x[above], fx[above]
        kept_hi[live], kept_lo[live] = below, above
        hit = ~(below | above)
        out[live[hit]] = x[hit]
        live = live[~hit]
    return out


def _transitions(
    states: np.ndarray, basis: Optional[ProjectiveBasis], trajectories: Sequence, j_max, axes
) -> list:
    """transition_p of each trajectory, from one lockstep root search over the stack.

    states holds the (S, 4, 4) entries of the valid initial states, basis is
    the channel family's (_dephasing_basis), trajectories holds each state's
    records, and j_max (S, N) and axes (S, N, 3) their maxima and argmax
    axes, which _jump scans in one pass. A trajectory without a jump gets
    None. A jump's bracket is the p of its two records, and its bases are
    the ProjectiveBasis of each record's stored angles, the incoming (hi)
    then the outgoing (lo). The crossing J(incoming) - J(outgoing), read on
    the evolved states by classical_correlations, is negative where the
    outgoing basis dominates (at the jump's lo) and positive where the
    incoming one does (at its hi). _crossings finds its root in every bracket
    at once, so each transition_p is bit for bit what its trajectory gives
    alone; on a degenerate tie at a grid point the crossing sits at that edge.
    """
    owners, pairs = _jump(j_max, axes)
    result = [None] * len(trajectories)
    if not owners.size:
        return result
    brackets = [trajectories[s][k : k + 2] for s, k in zip(owners.tolist(), pairs.tolist())]
    lo, hi = (np.array([bracket[end].p for bracket in brackets]) for end in (0, 1))
    kets = np.array(
        [[ProjectiveBasis(r.opt_theta, r.opt_phi).kets() for r in b[::-1]] for b in brackets]
    )
    m = states[owners]

    def crossing(rows: np.ndarray, ps: np.ndarray) -> np.ndarray:
        j = classical_correlations(evolve(kraus_stack(basis, ps), m[rows]), kets[rows])
        return j[:, 0] - j[:, 1]

    for s, p in zip(owners.tolist(), _crossings(crossing, lo, hi).tolist()):
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
    the two competing bases' correlation values down to an interval of 1e-12
    in p (_crossings). Records whose j_max is at or below BASIS_FLOOR carry
    no basis information and never anchor a jump. Returns None when the
    argmax basis never jumps. The axes are rebuilt from the records' stored
    angles, the one place that does so, and then the stacked root search that
    sweeps run (_transitions) takes this one trajectory.
    """
    basis = _dephasing_basis(channel_family, pointer_basis)
    j_max = np.array([[r.j_max for r in records]])
    axes = np.reshape([ProjectiveBasis(r.opt_theta, r.opt_phi).axis for r in records], (1, -1, 3))
    return _transitions(rho0.entries[None], basis, [records], j_max, axes)[0]


def _after_transition(records: Sequence[CorrelationRecord], transition_p: float) -> list:
    """The records at or after transition_p (to _BRACKET_WIDTH in p), where the plateau is read."""
    # transition_p is a closed bracket's midpoint: a record on the crossing's grid point stays.
    return [r for r in records if r.p >= transition_p - _BRACKET_WIDTH]


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
    tail = [r.j_max for r in _after_transition(records, transition_p)]
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
    gamma that check_gamma rejects. p_e is the clock at tau_e (_clock).
    """
    gamma = check_gamma(gamma)
    gap = abs(params.c - params.b)
    transverse = abs(params.z) + abs(params.w)
    if gap < 1e-15:
        raise InvalidStateError(
            "emergence time diverges for c = b (no pointer-basis correlation)"
        )
    if transverse <= gap:
        return None
    tau_e = math.log(transverse / gap) / gamma
    return EmergenceResult(tau_e=tau_e, p_e=_clock(gamma, tau_e))


# Trajectories are swept this many states (trajectories times grid points) at
# a time, at least one trajectory per chunk, so the memory of a many-trajectory
# sweep does not grow with its trajectory count. A chunk's maximizer and
# entropy intermediates take about 2.5 KB per state: at 1024 states a
# 1000-sample, 201-point analyze peaks about 3 MiB above a one-sample-at-a-time
# loop, and larger chunks run no faster there.
_SWEEP_STATES = 1024


def _sweep_plan(channel_family: str, grid, pointer_basis: Optional[ProjectiveBasis]):
    """A sweep's checked grid and dephasing basis: (ps, basis), the one check of both.

    ps is the grid's own float copy (None: DEFAULT_GRID_POINTS strengths on
    [0, 1]); the grid is checked before the channel family.
    """
    ps = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS) if grid is None else np.array(grid, dtype=float)
    if ps.ndim != 1 or ps.size == 0:
        raise InvalidInputError("grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(ps)):
        raise InvalidInputError("grid points must be finite numbers")
    if ps[0] < 0.0 or ps[-1] > 1.0:
        raise InvalidInputError("grid must lie within [0, 1]")
    if np.any(np.diff(ps) <= 0.0):
        raise InvalidInputError("grid must be strictly increasing")
    return ps, _dephasing_basis(channel_family, pointer_basis)


def _sweeps(states, ps: np.ndarray, basis: Optional[ProjectiveBasis]):
    """Sweep each initial state in an iterable over one grid; yield (records, transition_p) each.

    states is any iterable (an array, a list, a generator) of the (4, 4)
    entries of valid two-qubit states, and the trajectories come out in its
    order. ps and basis are a checked grid and dephasing basis (_sweep_plan).
    _SWEEP_STATES states are read at a time, so a generator's states are
    made only as each chunk needs them. Each chunk is one (S N, 4, 4) stack
    of channel outputs, checked once and read by one _measure pass. Its
    records come from those arrays (_records), and its j_max and argmax
    axes, as (S, N) and (S, N, 3), go to one jump scan and one lockstep root
    search (_transitions). Each trajectory's records and transition_p are
    bit for bit what it gives alone; sweep is the S = 1 case.
    """
    ops = kraus_stack(basis, ps)
    labels = [float(p) for p in ps]
    per_chunk = max(1, _SWEEP_STATES // ps.size)
    states = iter(states)
    while chunk := list(itertools.islice(states, per_chunk)):
        m = np.array(chunk)
        evolved = np.concatenate([evolve(ops, rho) for rho in m])
        j_max, axes, mutual, j = _measure(*_two_qubit_stack(evolved), _SIGMA_ZX)
        records = _records(labels * len(m), j_max, axes, mutual, j)
        trajectories = [
            tuple(records[k : k + ps.size]) for k in range(0, len(records), ps.size)
        ]
        scanned = j_max.reshape(len(m), -1), axes.reshape(len(m), -1, 3)
        yield from zip(trajectories, _transitions(m, basis, trajectories, *scanned))


def _report(
    rho0: DensityMatrix,
    basis: Optional[ProjectiveBasis],
    gamma: float,
    records: tuple,
    transition_p: Optional[float],
) -> TrajectoryReport:
    """sweep's report from rho0's trajectory, its dephasing basis and its checked gamma.

    The closed-form emergence time is added for an X state whose dephasing
    basis is sigma_z, where emergence_time gives one.
    """
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
        records=records, transition_p=transition_p, emergence_time=tau_e, gamma=gamma
    )


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
    follows from the records and transition. gamma is checked first, then
    the grid and the channel family.
    """
    gamma = check_gamma(gamma)
    ps, basis = _sweep_plan(channel_family, grid, pointer_basis)
    ((records, transition),) = _sweeps(rho0.entries[None], ps, basis)
    return _report(rho0, basis, gamma, records, transition)
