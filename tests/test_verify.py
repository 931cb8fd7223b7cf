import numpy as np
import pytest

from einselect import (
    InvalidInputError,
    VerificationOutcome,
    classical_correlation,
    make_x_state,
    mutual_information,
    quantum_discord,
    random_basis,
    random_cq_state,
    random_density_matrix,
    random_x_state_params,
    verify_lemma1,
    verify_remark,
    verify_theorem1,
    verify_theorem2,
)
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
    for suite in (verify_theorem1, verify_theorem2, verify_lemma1):
        with pytest.raises(InvalidInputError, match="trials"):
            suite(trials=0)


def test_suites_are_deterministic():
    first = verify_theorem1(trials=20, seed=9)
    second = verify_theorem1(trials=20, seed=9)
    assert first == second


def test_outcome_passed_property():
    assert VerificationOutcome("x", 10, 0, 0.0, 1).passed
    assert not VerificationOutcome("x", 10, 2, 0.5, 1).passed
