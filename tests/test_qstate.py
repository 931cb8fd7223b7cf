import numpy as np
import pytest

from einselect import (
    STATE_1,
    STATE_2,
    DensityMatrix,
    InvalidStateError,
    XStateParams,
    make_x_state,
    partial_trace,
    remark_state,
    von_neumann_entropy,
    x_state_params,
)
from einselect.qstate import check_states


def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert rho.dim == 2
    assert rho.entries[0, 0] == 0.5


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(InvalidStateError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(InvalidStateError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.5]).astype(complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        DensityMatrix(np.diag([1.001, -0.001]).astype(complex))


def test_density_matrix_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidStateError, match="finite"):
            DensityMatrix(np.diag([bad, 1.0, 0.0, 0.0]).astype(complex))


def test_stacked_check_fails_the_first_bad_state_as_density_matrix_does():
    # Each kind of invalid state, put at position k > 0 of a stack with a
    # different invalid state after it: the stacked check must report state k
    # with exactly the text DensityMatrix gives that state alone.
    quarter = np.eye(4, dtype=complex) / 4
    non_hermitian = quarter.copy()
    non_hermitian[0, 1] = 1e-3
    non_finite = quarter.copy()
    non_finite[2, 2] = np.nan
    infinite = quarter.copy()
    infinite[0, 3] = infinite[3, 0] = np.inf
    invalid = [
        non_hermitian,
        np.diag([0.3, 0.25, 0.25, 0.25]).astype(complex),
        np.diag([0.5, 0.3, 0.201, -0.001]).astype(complex),
        non_finite,
        infinite,
    ]
    valid = [make_x_state(STATE_1).entries, remark_state().entries, quarter]
    for i, bad in enumerate(invalid):
        with pytest.raises(InvalidStateError) as alone:
            DensityMatrix(bad)
        for k in (1, 2):
            stack = np.array(valid[:k] + [bad, invalid[(i + 1) % len(invalid)]])
            with pytest.raises(InvalidStateError) as stacked:
                check_states(stack)
            assert str(stacked.value) == str(alone.value)


def test_stacked_check_returns_each_states_eigenvalues():
    states = [make_x_state(STATE_1), make_x_state(STATE_2), remark_state()]
    vals = check_states(np.array([rho.entries for rho in states]))
    for row, rho in zip(vals, states):
        assert np.array_equal(row, rho.eigenvalues)


def test_density_matrix_tolerates_rounding_dust():
    # eigenvalue -5e-11 is inside the clip floor and must be accepted
    rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
    assert rho.dim == 2


def test_density_matrix_rejects_odd_dimensions():
    with pytest.raises(InvalidStateError, match="dim"):
        DensityMatrix(np.eye(3, dtype=complex) / 3)


def test_density_matrix_entries_are_read_only():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0


def test_x_state_params_invariants():
    XStateParams(c=0.4, b=0.1, z=0.1, w=0.4)
    with pytest.raises(InvalidStateError, match="trace"):
        XStateParams(c=0.4, b=0.2, z=0.0, w=0.0)
    with pytest.raises(InvalidStateError, match="positivity"):
        XStateParams(c=0.4, b=0.1, z=0.0, w=0.5)
    with pytest.raises(InvalidStateError, match="positivity"):
        XStateParams(c=0.4, b=0.1, z=0.2, w=0.0)


def test_x_state_params_rejects_non_finite():
    with pytest.raises(InvalidStateError, match="finite"):
        make_x_state(XStateParams(c=float("nan"), b=0.1, z=0.1, w=0.1))
    with pytest.raises(InvalidStateError, match="finite"):
        XStateParams(c=0.4, b=0.1, z=float("inf"), w=0.1)


def test_make_x_state_layout():
    rho = make_x_state(STATE_1)
    expected = np.array(
        [
            [0.4, 0.0, 0.0, 0.4],
            [0.0, 0.1, 0.1, 0.0],
            [0.0, 0.1, 0.1, 0.0],
            [0.4, 0.0, 0.0, 0.4],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(rho.entries, expected)


def test_x_state_params_round_trip():
    back = x_state_params(make_x_state(STATE_2))
    assert back == STATE_2


def test_x_state_params_of_remark_state():
    assert x_state_params(remark_state()) == XStateParams(c=0.25, b=0.25, z=0.25, w=0.25)


def test_x_state_params_rejects_generic_state():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    rho = DensityMatrix(m / m.trace().real)
    assert x_state_params(rho) is None


def test_remark_state_matches_direct_construction():
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    expected = (np.eye(4, dtype=complex) + np.kron(sigma_x, sigma_x)) / 4.0
    np.testing.assert_allclose(remark_state().entries, expected, atol=1e-15)


def test_partial_trace_marginals_of_reference_state():
    rho = make_x_state(STATE_1)
    np.testing.assert_allclose(
        partial_trace(rho, "system").entries, np.eye(2) / 2, atol=1e-15
    )
    np.testing.assert_allclose(
        partial_trace(rho, "apparatus").entries, np.eye(2) / 2, atol=1e-15
    )


def test_partial_trace_recovers_product_factors():
    rho_s = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    rho_a = np.array([[0.6, -0.3j], [0.3j, 0.4]], dtype=complex)
    joint = DensityMatrix(np.kron(rho_s, rho_a))
    np.testing.assert_allclose(partial_trace(joint, "system").entries, rho_s, atol=1e-14)
    np.testing.assert_allclose(partial_trace(joint, "apparatus").entries, rho_a, atol=1e-14)


def test_partial_trace_rejects_bad_arguments():
    rho = make_x_state(STATE_1)
    with pytest.raises(InvalidStateError, match="keep"):
        partial_trace(rho, "environment")
    single = DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(InvalidStateError, match="two-qubit"):
        partial_trace(single, "system")


def test_von_neumann_entropy_values():
    pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    assert von_neumann_entropy(pure) == 0.0
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert von_neumann_entropy(mixed) == pytest.approx(1.0, abs=1e-15)
    biased = DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
    assert von_neumann_entropy(biased) == pytest.approx(0.7219280948873623, abs=1e-13)
    # the joint reference state has spectrum {0.8, 0.2, 0, 0}
    assert von_neumann_entropy(make_x_state(STATE_1)) == pytest.approx(
        0.7219280948873623, abs=1e-12
    )
