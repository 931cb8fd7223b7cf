"""Randomized property suites for the pointer-basis theorems.

Each suite draws reproducible random states (and bases) from a seeded
generator, checks the claimed property numerically, and reports the trial
count, the number of failing trials, and the worst raw violation seen. All
suites are deterministic given the seed; trials are independent and the
aggregation (max of violations, count of failures) is order-insensitive.
One builder (_outcome) makes every VerificationOutcome from the suite's
(ok, violation) results, the remark's five checks included.

A suite runs in two steps (_trials). It draws each trial's inputs from the
generator, one trial after another, as plain numbers: Gaussian blocks,
uniforms and weights, never a state or basis object. Then it judges the
drawn trials a chunk of _CHUNK at a time, each chunk in one stacked pass
that builds the chunk's inputs as arrays first: its states A A^dag / tr
(_states), its bases' kets from their angles (correlations._kets), lemma1's
classical-quantum mixtures (_cq_states) and its tilted bases, from one
tangent frame per pointer axis (_tilt_angles). random_density_matrix,
random_basis and random_cq_state are the one-trial case of the same draws
and builders. theorem1 evolves every trial's state at every strength in one
Kraus stack, reads J of all the chunk's states (each drawn rho among them)
in their own pointer bases with one check, and forms every block
Pi_i rho Pi_i in one broadcast product. lemma1 checks the chunk's states
with one stacked check, then maximizes them and reads their mutual
information and J in each trial's pointer and tilted bases in one pass.
theorem2 draws its X states as entries (qstate._x_entries) and streams the
chunk's through the one stacked sweep (dynamics._sweeps) on a constant grid:
one _measure pass per chunk, whose arrays give the jump scan and the
judge's verdicts (dynamics._regime, _tail and _rise, the rules a record's
trajectory is judged by too), and one lockstep root search for the
transitions. The remark reads the same arrays of its one sweep, so no suite
builds a CorrelationRecord. Judging draws nothing, so
every trial sees the draws and gives the result it would in a
one-trial-at-a-time loop, bit for bit.

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
    _SIGMA_ZX,
    ProjectiveBasis,
    _angles,
    _axes,
    _axis_distances,
    _kets,
    _mapped,
    _measure,
    _phi,
    _projectors,
    _two_qubit_stack,
    classical_correlations,
)
from .dynamics import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    REGIME_MONOTONIC_DECAY,
    _count,
    _regime,
    _rise,
    _seed,
    _sweep_plan,
    _sweeps,
    _tail,
)
from .qstate import DensityMatrix, XStateParams, _x_entries, remark_state

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


def _states(gaussians: np.ndarray) -> np.ndarray:
    """The unchecked states A A^dag / tr(A A^dag) of (N, 2, d, d) Gaussian pairs, as (N, d, d).

    Each A is G_0 + i G_1 of its pair. random_density_matrix is the N = 1 case.
    """
    a = gaussians[:, 0] + 1j * gaussians[:, 1]
    m = a @ a.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None]


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> DensityMatrix:
    """A Haar-ish random full-rank state: normalized A A^dag with Gaussian A (_states)."""
    return DensityMatrix(_states(rng.normal(size=(1, 2, dim, dim)))[0])


def _basis_uniforms(rng: np.random.Generator) -> list:
    """random_basis's draw: cos(theta) uniform in [-1, 1], then phi uniform in [0, 2 pi)."""
    return [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi))]


def _basis_angles(uniforms) -> tuple[np.ndarray, np.ndarray]:
    """The stored theta and phi, as (N,) arrays, of the bases that N _basis_uniforms give."""
    u, v = zip(*uniforms)
    return _mapped(math.acos, u), _mapped(_phi, v)


def random_basis(rng: np.random.Generator) -> ProjectiveBasis:
    """A measurement axis uniform on the Bloch sphere (_basis_angles)."""
    theta, phi = _basis_angles([_basis_uniforms(rng)])
    return ProjectiveBasis(theta.item(), phi.item())


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


def _cq_draw(rng: np.random.Generator):
    """random_cq_state's draw: its basis's uniforms, two branch states (2, 2, 2) and a weight.

    The redraw of close branches is part of the draw, since it decides how
    much of the generator one draw reads.
    """
    uniforms = _basis_uniforms(rng)
    branches = _states(rng.normal(size=(2, 2, 2, 2)))
    while trace_distance(*branches) < CQ_MIN_BRANCH_DISTANCE:
        branches = _states(rng.normal(size=(2, 2, 2, 2)))
    return uniforms, branches, float(rng.uniform(*CQ_WEIGHT_RANGE))


def _cq_states(kets: np.ndarray, branches: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The unchecked states w rho_0 x Pi_0 + (1 - w) rho_1 x Pi_1, as (N, 4, 4).

    kets are the (N, 2, 2) pointer kets, branches the (N, 2, 2, 2) states
    rho_i and weights the (N,) w. Each rho_i x Pi_i is the product np.kron
    makes. random_cq_state is the N = 1 case.
    """
    kron = branches[:, :, :, None, :, None] * _projectors(kets)[:, :, None, :, None, :]
    kron = kron.reshape(-1, 2, 4, 4)
    w = weights[:, None, None]
    return w * kron[:, 0] + (1.0 - w) * kron[:, 1]


def random_cq_state(rng: np.random.Generator) -> tuple[DensityMatrix, ProjectiveBasis]:
    """A classical-quantum state sum_i p_i rho_s^i x Pi_i and its pointer basis.

    Branch states closer than CQ_MIN_BRANCH_DISTANCE in trace distance are
    resampled: coinciding branches make the state a product state whose
    correlation is zero in every basis, so no basis is singled out and the
    uniqueness half of the lemma is vacuous there.
    """
    uniforms, branches, weight = _cq_draw(rng)
    theta, phi = _basis_angles([uniforms])
    m = _cq_states(_kets(theta, phi), branches[None], np.array([weight]))[0]
    return DensityMatrix(m), ProjectiveBasis(theta.item(), phi.item())


def _tilt_angles(axes: np.ndarray, tilts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored theta and phi, as (N, K) arrays, of each trial's tilted bases.

    axes are the (N, 3) pointer axes and tilts the (N, K, 2) uniforms of
    _lemma1_draw. Each tilt turns its axis by its offset, in [LEMMA1_MIN_TILT,
    pi/2], then around it by its azimuth, in one tangent frame (e1, e2) of
    the axis.
    """
    helper = np.where(np.abs(axes[:, 2:]) < 0.9, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    e1 = np.cross(axes, helper)
    # The norm of each e1 as np.linalg.norm takes it of one vector, a dot product.
    e1 /= np.sqrt(e1[:, None, :] @ e1[:, :, None])[:, 0]
    e2 = np.cross(axes, e1)
    # The cosines and sines come from math, as for one tilt at a time.
    offset, azimuth = tilts.reshape(-1, 2).T.tolist()
    cos_o, sin_o, cos_a, sin_a = (
        _mapped(f, angles).reshape(tilts.shape[:2] + (1,))
        for angles in (offset, azimuth)
        for f in (math.cos, math.sin)
    )
    x, y, z = np.moveaxis(
        cos_o * axes[:, None] + sin_o * (cos_a * e1[:, None] + sin_a * e2[:, None]), -1, 0
    )
    theta = _mapped(math.acos, np.clip(z, -1.0, 1.0).ravel().tolist())
    phi = np.fromiter(map(_phi, map(math.atan2, y.ravel().tolist(), x.ravel().tolist())), float)
    return theta.reshape(z.shape), phi.reshape(z.shape)


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
    """One trial's draw: the (2, 4, 4) Gaussians of its rho (_states), then its basis's uniforms."""
    return rng.normal(size=(2, 4, 4)), _basis_uniforms(rng)


def _theorem1_judge(chunk) -> list:
    """(ok, violation) per trial, from one pass over every trial's rho and decohered states."""
    strengths = len(THEOREM1_STRENGTHS)
    gaussians, uniforms = zip(*chunk)
    kets = _kets(*_basis_angles(uniforms))
    ops = kraus_stack(np.repeat(kets, strengths, axis=0), THEOREM1_STRENGTHS * len(chunk))
    # states[t] is trial t's rho, then its evolved states in strength order.
    states = np.empty((len(chunk), 1 + strengths, 4, 4), dtype=complex)
    states[:, 0] = _states(np.array(gaussians))
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


def _theorem2_draw(rng) -> np.ndarray:
    """The (4, 4) entries of an X state with positive pointer correlation, J_z > 1e-3.

    The state is redrawn until J_z, read in the sigma_z kets of _SIGMA_ZX, is so.
    """
    m = _x_entries(random_x_state_params(rng))
    while classical_correlations(m[None], _SIGMA_ZX[:1])[0, 0] <= 1e-3:
        m = _x_entries(random_x_state_params(rng))
    return m


def _theorem2_judge(chunk) -> list:
    """(ok, violation) per trial, from the arrays of the chunk's dephasing sweeps (one stack)."""
    results = []
    for (j_max, _, _, j, _), transition_p in _sweeps(
        chunk, _THEOREM2_GRID, ProjectiveBasis.sigma_z()
    ):
        regime = _regime(_THEOREM2_GRID, j_max, transition_p)
        ok = regime in (REGIME_CONSTANT, REGIME_DECAY_THEN_CONSTANT)
        increase = _rise(j_max)
        violation = max(0.0, increase - THEOREM2_MONOTONE_SLACK)
        if increase > THEOREM2_MONOTONE_SLACK:
            ok = False
        if regime == REGIME_DECAY_THEN_CONSTANT:
            # _regime gives this regime only with a transition.
            if not transition_p < 1.0:
                ok = False
            tail = _tail(_THEOREM2_GRID, transition_p)
            level_dev = max(np.abs(j_max[tail] - j[tail, 0]).tolist())
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
    """One trial's draw: random_cq_state's (_cq_draw), then (LEMMA1_PERTURBATIONS, 2) tilt uniforms.

    Each tilt's uniforms are its offset from the pointer axis, then its
    azimuth around it (_tilt_angles).
    """
    return *_cq_draw(rng), rng.uniform(
        (LEMMA1_MIN_TILT, 0.0), (math.pi / 2.0, 2.0 * math.pi), (LEMMA1_PERTURBATIONS, 2)
    )


def _lemma1_measure(chunk):
    """The chunk's j_max, argmax axes, mutual information and J in each trial's bases, as arrays.

    The chunk's states are built in one pass (_cq_states) and checked with
    one stacked check, and one pass (_measure) gives the maximizer, the
    mutual information and J in each trial's own pointer basis, then its
    LEMMA1_PERTURBATIONS tilted bases.
    """
    uniforms, branches, weights, tilts = zip(*chunk)
    theta, phi = _basis_angles(uniforms)
    # Each trial's kets: its pointer basis, then its tilted bases.
    tilted_theta, tilted_phi = _tilt_angles(_axes(theta, phi), np.array(tilts))
    kets = _kets(
        np.column_stack([theta, tilted_theta]).ravel(), np.column_stack([phi, tilted_phi]).ravel()
    ).reshape(len(chunk), -1, 2, 2)
    return _measure(
        *_two_qubit_stack(_cq_states(kets[:, 0], np.array(branches), np.array(weights))), kets
    )


def _lemma1_judge(chunk) -> list:
    j_max, axes, mutual, j = _lemma1_measure(chunk)
    # basis_distance of the argmax and pointer bases, from their stored angles.
    pointers = _axes(*_basis_angles([uniforms for uniforms, _, _, _ in chunk]))
    angles = _axis_distances(_axes(*zip(*_angles(axes))), pointers)
    results = []
    for angle, value, mi, (j_pointer, *j_tilted) in zip(
        angles.tolist(), j_max.tolist(), mutual.tolist(), j.tolist()
    ):
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
    (sweep's default grid when None) and checks, on the sweep's arrays: J in
    the pointer basis vanishes (< 1e-12) at every strength, the maximal
    correlation is positive before p = 1, strictly decreasing, and gone at
    p = 1, and the trajectory classifies as monotonic decay (_regime) with no
    plateau and no finite transition - so theorem2's
    positive-pointer-correlation hypothesis is necessary.
    """
    ps, basis = _sweep_plan("pd", grid, None)
    ((arrays, transition_p),) = _sweeps(remark_state().entries[None], ps, basis)
    j_max, _, _, j, _ = arrays

    worst_jz = max(np.abs(j[:, 0]).tolist())
    interior = j_max[ps < 1.0].tolist()
    min_interior = min(interior) if interior else 1.0
    strictly_decreasing = bool(np.all(j_max[1:] < j_max[:-1]))
    final = j_max[-1].item() if ps[-1] == 1.0 else 0.0
    regime_ok = _regime(ps, j_max, transition_p) == REGIME_MONOTONIC_DECAY and transition_p is None

    checks = [
        (not worst_jz > REMARK_POINTER_TOL, worst_jz if worst_jz > REMARK_POINTER_TOL else 0.0),
        (not min_interior <= 0.0, max(0.0, -min_interior)),
        (strictly_decreasing, _rise(j_max)),
        (not final > 1e-9, final if final > 1e-9 else 0.0),
        (regime_ok, 0.0),
    ]
    return _outcome("remark", ps.size, 0, checks)


SUITES = ("theorem1", "theorem2", "lemma1", "remark")
