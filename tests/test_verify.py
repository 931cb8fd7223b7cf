import math

import numpy as np
import pytest

from einselect import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    InvalidInputError,
    ProjectiveBasis,
    VerificationOutcome,
    apply_to_apparatus,
    basis_distance,
    classical_correlation,
    make_x_state,
    maximize_classical_correlation,
    mutual_information,
    pointer_decoherence,
    quantum_discord,
    random_basis,
    random_cq_state,
    random_density_matrix,
    random_x_state_params,
    sweep,
    verify_lemma1,
    verify_remark,
    verify_theorem1,
    verify_theorem2,
)
from einselect import verify
from einselect.dynamics import max_increase
from einselect.verify import trace_distance


def test_random_density_matrix_is_valid_and_full_rank():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(rng, 4)
    assert rho.dim == 4
    assert float(np.linalg.eigvalsh(rho.entries)[0]) > 0.0


def test_random_basis_ranges():
    rng = np.random.default_rng(1)
    for _ in range(50):
        basis = random_basis(rng)
        assert 0.0 <= basis.theta <= np.pi
        assert 0.0 <= basis.phi < 2.0 * np.pi


def test_random_x_state_params_always_physical():
    rng = np.random.default_rng(2)
    for _ in range(200):
        make_x_state(random_x_state_params(rng))


def test_random_cq_state_is_classically_correlated():
    rng = np.random.default_rng(3)
    rho, basis = random_cq_state(rng)
    assert quantum_discord(rho) <= 1e-6
    assert classical_correlation(rho, basis) == pytest.approx(
        mutual_information(rho), abs=1e-10
    )


def test_random_cq_state_never_degenerates_to_a_product():
    # branch resampling keeps the pointer-basis correlation strictly positive
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho, basis = random_cq_state(rng)
        assert classical_correlation(rho, basis) > 1e-4


def test_trace_distance_basics():
    rng = np.random.default_rng(5)
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    assert trace_distance(a, a) == 0.0
    d = trace_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(trace_distance(b, a), abs=1e-15)


def test_theorem1_suite_passes_on_reduced_trials():
    outcome = verify_theorem1(trials=50, seed=42)
    assert outcome.passed
    assert outcome.failures == 0
    assert outcome.worst_violation < 1e-10
    assert outcome.trials == 50


def test_theorem2_suite_passes_on_reduced_trials():
    outcome = verify_theorem2(trials=10, seed=7)
    assert outcome.passed
    assert outcome.worst_violation == 0.0


def test_lemma1_suite_passes_on_reduced_trials():
    outcome = verify_lemma1(trials=25, seed=3)
    assert outcome.passed
    assert outcome.worst_violation == 0.0


def test_remark_suite_passes():
    outcome = verify_remark(np.linspace(0.0, 1.0, 41))
    assert outcome.passed
    assert outcome.trials == 41


def test_suites_reject_zero_trials():
    # a bool or a float is no trial count either
    for suite in (verify_theorem1, verify_theorem2, verify_lemma1):
        for trials in (0, True, 2.5):
            with pytest.raises(InvalidInputError, match="^trials must be >= 1$"):
                suite(trials=trials)


@pytest.mark.parametrize("suite", [verify_theorem1, verify_theorem2, verify_lemma1])
def test_suites_reject_a_negative_seed(suite, monkeypatch):
    # the seed is refused before the generator or any draw is made, and a
    # bool or a float is no seed either
    monkeypatch.setattr(verify.np.random, "default_rng", None)
    for seed in (-1, True, 2.5):
        message = f"^seed must be a non-negative integer, got {seed}$"
        with pytest.raises(InvalidInputError, match=message):
            suite(trials=3, seed=seed)


def test_suites_take_numpy_integer_counts():
    expected = verify_theorem1(trials=5, seed=9)
    assert verify_theorem1(trials=np.int64(5), seed=np.uint8(9)) == expected


def test_suites_are_deterministic():
    first = verify_theorem1(trials=20, seed=9)
    second = verify_theorem1(trials=20, seed=9)
    assert first == second


def test_outcome_passed_property():
    assert VerificationOutcome("x", 10, 0, 0.0, 1).passed
    assert not VerificationOutcome("x", 10, 2, 0.5, 1).passed


# The per-trial loops the suites ran before they were stacked, built from the
# one-state public functions only. Each takes one trial's draws from rng and
# returns ((ok, violation), details).


def _theorem1_reference(rng):
    rho = random_density_matrix(rng, 4)
    basis = random_basis(rng)
    lifted = [np.kron(np.eye(2, dtype=complex), proj) for proj in basis.projectors]
    j_ref = classical_correlation(rho, basis)
    blocks_ref = [p_i @ rho.entries @ p_i for p_i in lifted]
    violation = 0.0
    for q in verify.THEOREM1_STRENGTHS:
        evolved = apply_to_apparatus(pointer_decoherence(basis, q), rho)
        violation = max(violation, abs(classical_correlation(evolved, basis) - j_ref))
        for p_i, ref in zip(lifted, blocks_ref):
            dev = np.max(np.abs(p_i @ evolved.entries @ p_i - ref))
            violation = max(violation, float(dev))
    return (violation <= verify.THEOREM1_TOL, violation), None


def _perturbed_basis(rng, basis):
    # The one-tilt-at-a-time draw lemma1 made before its tilts shared one frame.
    n = basis.axis
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    offset = float(rng.uniform(verify.LEMMA1_MIN_TILT, math.pi / 2.0))
    azimuth = float(rng.uniform(0.0, 2.0 * math.pi))
    axis = (
        math.cos(offset) * n
        + math.sin(offset) * (math.cos(azimuth) * e1 + math.sin(azimuth) * e2)
    )
    theta = math.acos(max(-1.0, min(1.0, float(axis[2]))))
    phi = math.atan2(float(axis[1]), float(axis[0])) % (2.0 * math.pi)
    return ProjectiveBasis(theta, phi)


def _lemma1_reference(rng):
    rho, basis = random_cq_state(rng)
    j_max, argmax = maximize_classical_correlation(rho)
    angle = basis_distance(argmax, basis)
    value_dev = abs(j_max - mutual_information(rho))
    violation = max(
        max(0.0, angle - verify.LEMMA1_ANGLE_TOL),
        max(0.0, value_dev - verify.LEMMA1_VALUE_TOL),
    )
    ok = angle <= verify.LEMMA1_ANGLE_TOL and value_dev <= verify.LEMMA1_VALUE_TOL
    j_pointer = classical_correlation(rho, basis)
    margins = []
    for _ in range(verify.LEMMA1_PERTURBATIONS):
        tilted = _perturbed_basis(rng, basis)
        margin = j_pointer - classical_correlation(rho, tilted)
        margins.append(margin)
        if margin <= 0.0:
            ok = False
            violation = max(violation, -margin)
    return (ok, violation), (j_max, argmax, margins)


def _theorem2_reference(rng):
    # The draw, one-trajectory sweep and verdict of each theorem2 trial.
    sigma_z = ProjectiveBasis.sigma_z()
    rho = make_x_state(random_x_state_params(rng))
    while classical_correlation(rho, sigma_z) <= 1e-3:
        rho = make_x_state(random_x_state_params(rng))
    report = sweep(rho, "pd", np.linspace(0.0, 1.0, verify.THEOREM2_GRID_POINTS))
    ok = report.regime in (REGIME_CONSTANT, REGIME_DECAY_THEN_CONSTANT)
    increase = max_increase(report.records)
    violation = max(0.0, increase - verify.THEOREM2_MONOTONE_SLACK)
    if increase > verify.THEOREM2_MONOTONE_SLACK:
        ok = False
    if report.regime == REGIME_DECAY_THEN_CONSTANT:
        if not report.transition_p < 1.0:
            ok = False
        tail = [r for r in report.records if r.p >= report.transition_p - 1e-12]
        level_dev = max(abs(r.j_max - r.j_z) for r in tail)
        violation = max(violation, max(0.0, level_dev - verify.THEOREM2_PLATEAU_TOL))
        if level_dev > verify.THEOREM2_PLATEAU_TOL:
            ok = False
    return (ok, violation), (report.records, report.transition_p)


REFERENCES = {
    "theorem1": _theorem1_reference,
    "theorem2": _theorem2_reference,
    "lemma1": _lemma1_reference,
}


@pytest.mark.parametrize("trials", [1, 7, 130])
@pytest.mark.parametrize("seed", [3, 5, 42])
@pytest.mark.parametrize("suite", sorted(REFERENCES))
def test_stacked_suites_equal_the_per_trial_reference(suite, seed, trials):
    # 130 trials span more than one judged chunk.
    reference = REFERENCES[suite]
    rng = np.random.default_rng(seed)
    expected = [reference(rng) for _ in range(trials)]
    results = [result for result, _ in expected]
    draw, judge = getattr(verify, f"_{suite}_draw"), getattr(verify, f"_{suite}_judge")
    assert list(verify._trials(trials, seed, draw, judge)) == results
    outcome = VerificationOutcome(
        suite,
        trials,
        sum(not ok for ok, _ in results),
        max([0.0] + [violation for _, violation in results]),
        seed,
    )
    assert getattr(verify, f"verify_{suite}")(trials=trials, seed=seed) == outcome
    if suite == "lemma1":
        # every lemma1 violation is 0.0, so compare what the verdicts read
        measured = [
            (j_max, argmax, [j[0] - other for other in j[1:]])
            for j_max, argmax, _, j in verify._trials(
                trials, seed, verify._lemma1_draw, verify._lemma1_measure
            )
        ]
        assert measured == [details for _, details in expected]
    if suite == "theorem2":
        # every theorem2 violation is 0.0 too: compare the stacked sweeps
        swept = list(verify._trials(trials, seed, verify._theorem2_draw, verify._theorem2_sweeps))
        assert swept == [details for _, details in expected]


@pytest.mark.parametrize("seed", [3, 11])
def test_tilts_from_one_frame_equal_the_one_at_a_time_draws(seed):
    # Pointer axes near and away from the poles, the exact Pauli axes among
    # them, take both branches of the frame's helper axis.
    rng = np.random.default_rng(seed)
    bases = [random_basis(rng) for _ in range(40)]
    bases += [ProjectiveBasis.sigma_z(), ProjectiveBasis.sigma_x(), ProjectiveBasis(math.pi, 0.0)]
    old, new = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    for basis in bases:
        expected = [_perturbed_basis(old, basis) for _ in range(verify.LEMMA1_PERTURBATIONS)]
        assert verify._tilted_bases(new, basis) == expected
    assert new.uniform() == old.uniform()
