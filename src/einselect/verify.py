"""Randomized property suites for the pointer-basis theorems.

Each suite draws reproducible random states (and bases) from a seeded
generator, checks the claimed property numerically, and reports the trial
count, the number of failing trials, and the worst raw violation seen. All
suites are deterministic given the seed; trials are independent and the
aggregation (max of violations, count of failures) is order-insensitive.

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

from .channels import apply_to_apparatus, pointer_decoherence
from .correlations import (
    OptimizerSettings,
    ProjectiveBasis,
    basis_distance,
    classical_correlation,
    maximize_classical_correlation,
    mutual_information,
)
from .dynamics import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    REGIME_MONOTONIC_DECAY,
    max_increase,
    sweep,
)
from .errors import InvalidInputError
from .qstate import DensityMatrix, XStateParams, make_x_state, remark_state

_I2 = np.eye(2, dtype=complex)

THEOREM1_TOL = 1e-10
THEOREM2_PLATEAU_TOL = 1e-8
THEOREM2_MONOTONE_SLACK = 1e-9
LEMMA1_ANGLE_TOL = 1e-3
LEMMA1_VALUE_TOL = 1e-6
REMARK_POINTER_TOL = 1e-12
DEFAULT_REMARK_GRID = 201
THEOREM2_GRID_POINTS = 41
LEMMA1_PERTURBATIONS = 20
# Classical-quantum draws: branch weights come from this range, and branch
# states closer than CQ_MIN_BRANCH_DISTANCE in trace distance are redrawn.
CQ_WEIGHT_RANGE = (0.1, 0.9)
CQ_MIN_BRANCH_DISTANCE = 0.1

# Optimizer sizing for the sweep-heavy suites: accuracy ~1e-12 in value is
# plenty against the 1e-8 plateau tolerance, at a fraction of the default cost.
_SUITE_SETTINGS = OptimizerSettings(n_theta=32, n_phi=64, min_step=1e-7)


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


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> DensityMatrix:
    """A Haar-ish random full-rank state: normalized A A^dag with Gaussian A."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace().real)


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


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries))))


def random_cq_state(rng: np.random.Generator) -> tuple[DensityMatrix, ProjectiveBasis]:
    """A classical-quantum state sum_i p_i rho_s^i x Pi_i and its pointer basis.

    Branch states closer than CQ_MIN_BRANCH_DISTANCE in trace distance are
    resampled: coinciding branches make the state a product state whose
    correlation is zero in every basis, so no basis is singled out and the
    uniqueness half of the lemma is vacuous there.
    """
    basis = random_basis(rng)
    branch0 = random_density_matrix(rng, 2)
    branch1 = random_density_matrix(rng, 2)
    while trace_distance(branch0, branch1) < CQ_MIN_BRANCH_DISTANCE:
        branch0 = random_density_matrix(rng, 2)
        branch1 = random_density_matrix(rng, 2)
    weight = float(rng.uniform(*CQ_WEIGHT_RANGE))
    p0, p1 = basis.projectors
    m = weight * np.kron(branch0.entries, p0) + (1.0 - weight) * np.kron(
        branch1.entries, p1
    )
    return DensityMatrix(m), basis


def _perturbed_basis(
    rng: np.random.Generator, basis: ProjectiveBasis, min_offset: float = 0.05
) -> ProjectiveBasis:
    """A basis whose axis is tilted away from the given one by [min_offset, pi/2]."""
    n = basis.axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    offset = float(rng.uniform(min_offset, math.pi / 2.0))
    azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
    axis = (
        math.cos(offset) * n
        + math.sin(offset) * (math.cos(azimuth) * e1 + math.sin(azimuth) * e2)
    )
    theta = math.acos(max(-1.0, min(1.0, float(axis[2]))))
    phi = math.atan2(float(axis[1]), float(axis[0])) % (2.0 * math.pi)
    return ProjectiveBasis(theta, phi)


def verify_theorem1(trials: int = 1000, seed: int = 42) -> VerificationOutcome:
    """Pointer-basis correlation is invariant under pointer decoherence.

    For random states and random pointer bases, checks across
    q in {0, 0.25, 0.5, 0.75, 1} that (a) J read in the pointer basis does not
    move, and (b) the proof's stronger sub-claim: every conditioned block
    Pi_i rho Pi_i (hence every outcome probability) is exactly q-invariant.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    strengths = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(trials):
        rho = random_density_matrix(rng, 4)
        basis = random_basis(rng)
        lifted = [np.kron(_I2, proj) for proj in basis.projectors]
        j_ref = classical_correlation(rho, basis)
        blocks_ref = [p_i @ rho.entries @ p_i for p_i in lifted]
        trial_worst = 0.0
        for q in strengths:
            evolved = apply_to_apparatus(pointer_decoherence(basis, q), rho)
            trial_worst = max(
                trial_worst, abs(classical_correlation(evolved, basis) - j_ref)
            )
            for p_i, ref in zip(lifted, blocks_ref):
                dev = np.max(np.abs(p_i @ evolved.entries @ p_i - ref))
                trial_worst = max(trial_worst, float(dev))
        worst = max(worst, trial_worst)
        if trial_worst > THEOREM1_TOL:
            failures += 1
    return VerificationOutcome("theorem1", trials, failures, worst, seed)


def verify_theorem2(
    trials: int = 200, seed: int = 7, *, settings: OptimizerSettings | None = None
) -> VerificationOutcome:
    """Maximal correlation of dephased X states is constant or decays to a plateau.

    Random X states restricted to positive pointer correlation (J_z > 1e-3,
    the theorem's hypothesis) are swept through dephasing. Each trajectory
    must classify as constant or decay-then-constant, never increase beyond
    1e-9, and in the decaying case reach a plateau equal to the pointer-basis
    value within 1e-8 strictly before p = 1.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    cfg = settings or _SUITE_SETTINGS
    grid = np.linspace(0.0, 1.0, THEOREM2_GRID_POINTS)
    sigma_z = ProjectiveBasis.sigma_z()
    worst = 0.0
    failures = 0
    for _ in range(trials):
        params = random_x_state_params(rng)
        rho = make_x_state(params)
        while classical_correlation(rho, sigma_z) <= 1e-3:
            params = random_x_state_params(rng)
            rho = make_x_state(params)
        report = sweep(rho, "pd", grid, settings=cfg)
        trial_worst = 0.0
        ok = report.regime in (REGIME_CONSTANT, REGIME_DECAY_THEN_CONSTANT)
        increase = max_increase(report.records)
        trial_worst = max(trial_worst, max(0.0, increase - THEOREM2_MONOTONE_SLACK))
        if increase > THEOREM2_MONOTONE_SLACK:
            ok = False
        if report.regime == REGIME_DECAY_THEN_CONSTANT:
            if not (report.transition_p is not None and report.transition_p < 1.0):
                ok = False
            tail = [
                r for r in report.records if r.p >= (report.transition_p or 0.0) - 1e-12
            ]
            level_dev = max(abs(r.j_max - r.j_z) for r in tail)
            trial_worst = max(trial_worst, max(0.0, level_dev - THEOREM2_PLATEAU_TOL))
            if level_dev > THEOREM2_PLATEAU_TOL:
                ok = False
        worst = max(worst, trial_worst)
        if not ok:
            failures += 1
    return VerificationOutcome("theorem2", trials, failures, worst, seed)


def verify_lemma1(
    trials: int = 500, seed: int = 3, *, settings: OptimizerSettings | None = None
) -> VerificationOutcome:
    """The pointer basis of a classical-quantum state is the unique maximizer.

    For each random classical-quantum state: the optimizer's argmax must land
    within 1e-3 rad (antipodal-identified) of the construction basis, the
    maximum must equal the mutual information within 1e-6 (zero discord), and
    the correlation at each of LEMMA1_PERTURBATIONS tilted bases must be strictly
    below the pointer-basis value.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(trials):
        rho, basis = random_cq_state(rng)
        j_max, argmax = maximize_classical_correlation(rho, settings)
        angle = basis_distance(argmax, basis)
        value_dev = abs(j_max - mutual_information(rho))
        trial_worst = max(
            max(0.0, angle - LEMMA1_ANGLE_TOL),
            max(0.0, value_dev - LEMMA1_VALUE_TOL),
        )
        ok = angle <= LEMMA1_ANGLE_TOL and value_dev <= LEMMA1_VALUE_TOL
        j_pointer = classical_correlation(rho, basis)
        for _ in range(LEMMA1_PERTURBATIONS):
            tilted = _perturbed_basis(rng, basis)
            margin = j_pointer - classical_correlation(rho, tilted)
            if margin <= 0.0:
                ok = False
                trial_worst = max(trial_worst, -margin)
        worst = max(worst, trial_worst)
        if not ok:
            failures += 1
    return VerificationOutcome("lemma1", trials, failures, worst, seed)


def verify_remark(
    grid=None, *, settings: OptimizerSettings | None = None
) -> VerificationOutcome:
    """The zero-pointer-correlation counterexample behaves as claimed.

    Sweeps (I + sigma_x x sigma_x)/4 through sigma_z dephasing and checks:
    J in the pointer basis vanishes (< 1e-12) at every strength, the maximal
    correlation is positive before p = 1, strictly decreasing, and gone at
    p = 1, and the trajectory classifies as monotonic decay with no plateau
    and no finite transition - so theorem2's positive-pointer-correlation
    hypothesis is necessary.
    """
    ps = (
        np.linspace(0.0, 1.0, DEFAULT_REMARK_GRID)
        if grid is None
        else np.asarray(grid, dtype=float)
    )
    report = sweep(remark_state(), "pd", ps, settings=settings)
    records = report.records

    worst_jz = max(abs(r.j_z) for r in records)
    interior = [r.j_max for r in records if r.p < 1.0]
    min_interior = min(interior) if interior else 1.0
    strictly_decreasing = all(
        after.j_max < before.j_max for before, after in zip(records, records[1:])
    )
    final = records[-1].j_max if records[-1].p == 1.0 else 0.0
    regime_ok = report.regime == REGIME_MONOTONIC_DECAY and report.transition_p is None

    violations = [
        worst_jz if worst_jz > REMARK_POINTER_TOL else 0.0,
        max(0.0, -min_interior),
        max_increase(records),
        final if final > 1e-9 else 0.0,
    ]
    failures = sum(
        [
            worst_jz > REMARK_POINTER_TOL,
            min_interior <= 0.0,
            not strictly_decreasing,
            final > 1e-9,
            not regime_ok,
        ]
    )
    return VerificationOutcome("remark", len(records), failures, max(violations), seed=0)


SUITES = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "lemma1": verify_lemma1,
    "remark": verify_remark,
}
