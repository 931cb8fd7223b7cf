"""Randomized property suites for the pointer-basis theorems.

Each suite draws reproducible random states (and bases) from a seeded
generator, checks the claimed property numerically, and reports the trial
count, the number of failing trials, and the worst raw violation seen. All
suites are deterministic given the seed; trials are independent and the
aggregation (max of violations, count of failures) is order-insensitive.
One builder (_outcome) makes every VerificationOutcome from the suite's
(ok, violation) results, the remark's five checks included.

A suite runs in two steps (_trials). It draws each trial's inputs from the
generator, one trial after another, then judges the drawn trials a chunk of
_CHUNK at a time, each chunk in one stacked pass. theorem1 draws unchecked
entries, evolves every trial's state at every strength in one Kraus stack,
reads J of all the chunk's states (each drawn rho among them) in their own
pointer bases with one check, and forms every block Pi_i rho Pi_i in one
broadcast product. lemma1 draws unchecked entries too, checks the chunk's
states with one stacked check, then maximizes them and reads their mutual
information and J in each trial's pointer and tilted bases in one pass.
theorem2 streams the chunk's X states through the one stacked sweep
(dynamics._sweeps) on a constant grid: one _measure pass per chunk, whose
arrays give the records and the jump scan, and one lockstep root search for
the transitions. Judging draws nothing, so every trial sees the draws and
gives the result it would in a one-trial-at-a-time loop, bit for bit.

The four properties:
  - theorem1: the classical correlation read in the pointer basis is
    invariant under partial projective decoherence onto that basis, because
    the conditioned blocks Pi_i rho Pi_i themselves are untouched.
  - theorem2: for X states under dephasing with positive pointer correlation,
    the maximal classical correlation is either constant from the start or
    decays monotonically until a finite strength and is constant at the
    pointer-basis value after it.
  - lemma1: for classical-quantum states sum_i p_i rho_s^i x Pi_i, the
    maximum of the classical correlation is attained at the pointer basis
    {Pi_i}, only there, and equals the mutual information (zero discord).
  - remark: the equal mixture of |++><++| and |--><--| has zero pointer-basis
    correlation yet positive maximal correlation decaying only asymptotically,
    so the positive-pointer-correlation hypothesis of theorem2 is necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import evolve, kraus_stack
from .correlations import (
    ProjectiveBasis,
    _angles,
    _measure,
    _projectors,
    _two_qubit_stack,
    basis_distance,
    classical_correlation,
    classical_correlations,
)
from .dynamics import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    REGIME_MONOTONIC_DECAY,
    _after_transition,
    _count,
    _seed,
    _sweeps,
    classify_regime,
    max_increase,
    sweep,
)
from .qstate import DensityMatrix, XStateParams, make_x_state, remark_state

_I2 = np.eye(2, dtype=complex)

THEOREM1_TOL = 1e-10
THEOREM1_STRENGTHS = (0.0, 0.25, 0.5, 0.75, 1.0)
THEOREM2_PLATEAU_TOL = 1e-8
THEOREM2_MONOTONE_SLACK = 1e-9
LEMMA1_ANGLE_TOL = 1e-3
LEMMA1_VALUE_TOL = 1e-6
REMARK_POINTER_TOL = 1e-12
THEOREM2_GRID_POINTS = 41
# Every theorem2 chunk sweeps this grid, so it is read-only.
_THEOREM2_GRID = np.linspace(0.0, 1.0, THEOREM2_GRID_POINTS)
_THEOREM2_GRID.flags.writeable = False
LEMMA1_PERTURBATIONS = 20
# lemma1's tilted bases lie between this angle and pi/2 from the pointer axis.
LEMMA1_MIN_TILT = 0.05
# Classical-quantum draws: branch weights come from this range, and branch
# states closer than CQ_MIN_BRANCH_DISTANCE in trace distance are redrawn.
CQ_WEIGHT_RANGE = (0.1, 0.9)
CQ_MIN_BRANCH_DISTANCE = 0.1

@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one property suite run."""

    theorem_id: str
    trials: int
    failures: int
    worst_violation: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_state_entries(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """The unchecked entries of random_density_matrix's draw: A A^dag over its trace."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / m.trace().real


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> DensityMatrix:
    """A Haar-ish random full-rank state: normalized A A^dag with Gaussian A."""
    return DensityMatrix(_random_state_entries(rng, dim))


def random_basis(rng: np.random.Generator) -> ProjectiveBasis:
    """A measurement axis uniform on the Bloch sphere."""
    theta = math.acos(float(rng.uniform(-1.0, 1.0)))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return ProjectiveBasis(theta, phi)


def random_x_state_params(rng: np.random.Generator) -> XStateParams:
    """X-state parameters drawn constructively so every invariant holds exactly."""
    c = float(rng.uniform(0.0, 0.5))
    b = 0.5 - c
    w = float(rng.uniform(-c, c))
    z = float(rng.uniform(-b, b))
    return XStateParams(c=c, b=b, z=z, w=w)


def trace_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of the difference of two states or their entries."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b)))))


def _cq_entries(rng: np.random.Generator) -> tuple[np.ndarray, ProjectiveBasis]:
    """random_cq_state's draw: the unchecked entries of the mixture, and its pointer basis."""
    basis = random_basis(rng)
    branch0 = _random_state_entries(rng, 2)
    branch1 = _random_state_entries(rng, 2)
    while trace_distance(branch0, branch1) < CQ_MIN_BRANCH_DISTANCE:
        branch0 = _random_state_entries(rng, 2)
        branch1 = _random_state_entries(rng, 2)
    weight = float(rng.uniform(*CQ_WEIGHT_RANGE))
    p0, p1 = basis.projectors
    return weight * np.kron(branch0, p0) + (1.0 - weight) * np.kron(branch1, p1), basis


def random_cq_state(rng: np.random.Generator) -> tuple[DensityMatrix, ProjectiveBasis]:
    """A classical-quantum state sum_i p_i rho_s^i x Pi_i and its pointer basis.

    Branch states closer than CQ_MIN_BRANCH_DISTANCE in trace distance are
    resampled: coinciding branches make the state a product state whose
    correlation is zero in every basis, so no basis is singled out and the
    uniqueness half of the lemma is vacuous there.
    """
    m, basis = _cq_entries(rng)
    return DensityMatrix(m), basis


def _tilted_bases(rng: np.random.Generator, basis: ProjectiveBasis) -> list:
    """LEMMA1_PERTURBATIONS bases whose axes are tilted from basis's by [LEMMA1_MIN_TILT, pi/2].

    Each tilt draws its offset from the axis, then its azimuth around it, in
    one tangent frame (e1, e2) of the axis.
    """
    n = basis.axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    offset, azimuth = rng.uniform(
        [LEMMA1_MIN_TILT, 0.0], [math.pi / 2.0, 2.0 * math.pi], (LEMMA1_PERTURBATIONS, 2)
    ).T.tolist()
    # The cosines and sines come from math, as for one tilt at a time.
    cos_o, sin_o, cos_a, sin_a = (
        np.array([f(x) for x in angles])[:, None]
        for angles in (offset, azimuth)
        for f in (math.cos, math.sin)
    )
    axes = cos_o * n + sin_o * (cos_a * e1 + sin_a * e2)
    return [
        ProjectiveBasis(math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x))
        for x, y, z in axes.tolist()
    ]


# Trials are judged this many at a time, so a suite's memory does not grow
# with its trial count.
_CHUNK = 64


def _trials(trials: int, seed: int, draw, judge):
    """Yield judge's per-trial results for `trials` trials on one generator seeded with seed.

    trials and seed are the ints that _run_trials has checked. draw(rng) takes
    one trial's inputs from the generator, and the trials are drawn one after
    another in order. Every _CHUNK trials, judge(chunk) takes the list of
    drawn inputs and returns one result per trial, in order. The judge
    consumes no randomness, so the draws do not depend on the chunking.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _CHUNK):
        chunk = [draw(rng) for _ in range(min(_CHUNK, trials - start))]
        yield from judge(chunk)


def _outcome(theorem_id: str, trials: int, seed: int, results) -> VerificationOutcome:
    """A suite's outcome from its (ok, violation) results.

    It counts the results that were not ok and keeps the largest violation,
    0.0 when there is none.
    """
    results = list(results)
    worst = max([0.0] + [violation for _, violation in results])
    return VerificationOutcome(theorem_id, trials, sum(not ok for ok, _ in results), worst, seed)


def _run_trials(theorem_id: str, trials: int, seed: int, draw, judge) -> VerificationOutcome:
    """Run a suite whose judge returns (ok, violation) per trial (see _trials).

    trials and seed are checked here, once, and the outcome (_outcome) keeps
    the ints the checks return.
    """
    trials = _count(trials, 1, "trials must be >= 1")
    seed = _seed(seed)
    return _outcome(theorem_id, trials, seed, _trials(trials, seed, draw, judge))


def _theorem1_draw(rng):
    """One trial's rho, as entries that _theorem1_judge checks with its chunk, and pointer basis."""
    rho = _random_state_entries(rng, 4)
    return rho, random_basis(rng)


def _theorem1_judge(chunk) -> list:
    """(ok, violation) per trial, from one pass over every trial's rho and decohered states."""
    strengths = len(THEOREM1_STRENGTHS)
    kets = np.array([basis.kets() for _, basis in chunk])
    ops = kraus_stack(np.repeat(kets, strengths, axis=0), THEOREM1_STRENGTHS * len(chunk))
    # states[t] is trial t's rho, then its evolved states in strength order.
    states = np.empty((len(chunk), 1 + strengths, 4, 4), dtype=complex)
    states[:, 0] = [rho for rho, _ in chunk]
    states[:, 1:] = evolve(ops, np.repeat(states[:, 0], strengths, axis=0)).reshape(
        len(chunk), strengths, 4, 4
    )
    j = classical_correlations(
        states.reshape(-1, 4, 4), np.repeat(kets, strengths + 1, axis=0)[:, None]
    ).reshape(len(chunk), -1)
    violation = np.abs(j[:, 1:] - j[:, :1]).max(axis=1)
    # lifted[t, i] = I x Pi_i, the products np.kron(_I2, basis.projectors[i]) makes.
    lifted = _I2[:, None, :, None] * _projectors(kets)[:, :, None, :, None, :]
    lifted = lifted.reshape(-1, 1, 2, 4, 4)
    blocks = lifted @ states[:, :, None] @ lifted
    blocks[:, 1:] -= blocks[:, :1]
    violation = np.maximum(violation, np.abs(blocks[:, 1:]).max(axis=(1, 2, 3, 4)))
    return [(v <= THEOREM1_TOL, v) for v in violation.tolist()]


def verify_theorem1(trials: int = 1000, seed: int = 42) -> VerificationOutcome:
    """Pointer-basis correlation is invariant under pointer decoherence.

    For random states and random pointer bases, checks across
    q in THEOREM1_STRENGTHS that (a) J read in the pointer basis does not
    move, and (b) the proof's stronger sub-claim: every conditioned block
    Pi_i rho Pi_i (hence every outcome probability) is exactly q-invariant.
    """
    return _run_trials("theorem1", trials, seed, _theorem1_draw, _theorem1_judge)


def _theorem2_draw(rng) -> DensityMatrix:
    """An X state with positive pointer correlation, J_z > 1e-3 (redrawn until so)."""
    sigma_z = ProjectiveBasis.sigma_z()
    rho = make_x_state(random_x_state_params(rng))
    while classical_correlation(rho, sigma_z) <= 1e-3:
        rho = make_x_state(random_x_state_params(rng))
    return rho


def _theorem2_sweeps(chunk) -> list:
    """Per trial: (records, transition_p) of its dephasing sweep, the chunk swept as one stack."""
    return list(_sweeps((rho.entries for rho in chunk), _THEOREM2_GRID, ProjectiveBasis.sigma_z()))


def _theorem2_judge(chunk) -> list:
    results = []
    for records, transition_p in _theorem2_sweeps(chunk):
        regime = classify_regime(records, transition_p)
        ok = regime in (REGIME_CONSTANT, REGIME_DECAY_THEN_CONSTANT)
        increase = max_increase(records)
        violation = max(0.0, increase - THEOREM2_MONOTONE_SLACK)
        if increase > THEOREM2_MONOTONE_SLACK:
            ok = False
        if regime == REGIME_DECAY_THEN_CONSTANT:
            # classify_regime gives this regime only with a transition.
            if not transition_p < 1.0:
                ok = False
            tail = _after_transition(records, transition_p)
            level_dev = max(abs(r.j_max - r.j_z) for r in tail)
            violation = max(violation, max(0.0, level_dev - THEOREM2_PLATEAU_TOL))
            if level_dev > THEOREM2_PLATEAU_TOL:
                ok = False
        results.append((ok, violation))
    return results


def verify_theorem2(trials: int = 200, seed: int = 7) -> VerificationOutcome:
    """Maximal correlation of dephased X states is constant or decays to a plateau.

    Random X states restricted to positive pointer correlation (J_z > 1e-3,
    the theorem's hypothesis) are swept through dephasing. Each trajectory
    must classify as constant or decay-then-constant, never increase beyond
    1e-9, and in the decaying case reach a plateau equal to the pointer-basis
    value within 1e-8 strictly before p = 1.
    """
    return _run_trials("theorem2", trials, seed, _theorem2_draw, _theorem2_judge)


def _lemma1_draw(rng):
    """One trial's classical-quantum state, as entries that _lemma1_measure checks, and bases."""
    rho, basis = _cq_entries(rng)
    return rho, basis, _tilted_bases(rng, basis)


def _lemma1_measure(chunk):
    """The chunk's j_max, argmax axes, mutual information and J in each trial's bases, as arrays.

    One stacked check covers the chunk's states, and one pass (_measure)
    gives the maximizer, the mutual information and J in each trial's own
    pointer basis, then its LEMMA1_PERTURBATIONS tilted bases.
    """
    return _measure(
        *_two_qubit_stack([rho for rho, _, _ in chunk]),
        np.array([[b.kets() for b in (basis, *tilted)] for _, basis, tilted in chunk]),
    )


def _lemma1_judge(chunk) -> list:
    j_max, axes, mutual, j = _lemma1_measure(chunk)
    results = []
    for (_, basis, _), value, angles, mi, (j_pointer, *j_tilted) in zip(
        chunk, j_max.tolist(), _angles(axes), mutual.tolist(), j.tolist()
    ):
        angle = basis_distance(ProjectiveBasis(*angles), basis)
        value_dev = abs(value - mi)
        violation = max(
            max(0.0, angle - LEMMA1_ANGLE_TOL),
            max(0.0, value_dev - LEMMA1_VALUE_TOL),
        )
        ok = angle <= LEMMA1_ANGLE_TOL and value_dev <= LEMMA1_VALUE_TOL
        for j_other in j_tilted:
            margin = j_pointer - j_other
            if margin <= 0.0:
                ok = False
                violation = max(violation, -margin)
        results.append((ok, violation))
    return results


def verify_lemma1(trials: int = 500, seed: int = 3) -> VerificationOutcome:
    """The pointer basis of a classical-quantum state is the unique maximizer.

    For each random classical-quantum state: the optimizer's argmax must land
    within 1e-3 rad (antipodal-identified) of the construction basis, the
    maximum must equal the mutual information within 1e-6 (zero discord), and
    the correlation at each of LEMMA1_PERTURBATIONS tilted bases must be strictly
    below the pointer-basis value.
    """
    return _run_trials("lemma1", trials, seed, _lemma1_draw, _lemma1_judge)


def verify_remark(grid=None) -> VerificationOutcome:
    """The zero-pointer-correlation counterexample behaves as claimed.

    Sweeps (I + sigma_x x sigma_x)/4 through sigma_z dephasing on grid
    (sweep's default grid when None) and checks: J in the pointer basis
    vanishes (< 1e-12) at every strength, the maximal correlation is positive
    before p = 1, strictly decreasing, and gone at p = 1, and the trajectory
    classifies as monotonic decay with no plateau and no finite transition -
    so theorem2's positive-pointer-correlation hypothesis is necessary.
    """
    report = sweep(remark_state(), "pd", grid)
    records = report.records

    worst_jz = max(abs(r.j_z) for r in records)
    interior = [r.j_max for r in records if r.p < 1.0]
    min_interior = min(interior) if interior else 1.0
    strictly_decreasing = all(
        after.j_max < before.j_max for before, after in zip(records, records[1:])
    )
    final = records[-1].j_max if records[-1].p == 1.0 else 0.0
    regime_ok = report.regime == REGIME_MONOTONIC_DECAY and report.transition_p is None

    checks = [
        (not worst_jz > REMARK_POINTER_TOL, worst_jz if worst_jz > REMARK_POINTER_TOL else 0.0),
        (not min_interior <= 0.0, max(0.0, -min_interior)),
        (strictly_decreasing, max_increase(records)),
        (not final > 1e-9, final if final > 1e-9 else 0.0),
        (regime_ok, 0.0),
    ]
    return _outcome("remark", len(records), 0, checks)


SUITES = ("theorem1", "theorem2", "lemma1", "remark")
