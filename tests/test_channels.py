import numpy as np
import pytest

from einselect import (
    STATE_1,
    DensityMatrix,
    InvalidStateError,
    ProjectiveBasis,
    amplitude_damping,
    apply_to_apparatus,
    make_x_state,
    partial_trace,
    phase_damping,
    pointer_decoherence,
    remark_state,
)
from einselect.channels import _TP_TOL, _check_trace_preserving, evolve

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_state(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace().real)


def manual_apply(channel, rho):
    out = np.zeros((4, 4), dtype=complex)
    for k in channel:
        lifted = np.kron(np.eye(2), k)
        out += lifted @ rho.entries @ lifted.conj().T
    return out


def test_apply_to_apparatus_checks_the_kraus_operators():
    rho = make_x_state(STATE_1)
    with pytest.raises(InvalidStateError, match="trace preserving"):
        apply_to_apparatus([0.9 * np.eye(2)], rho)
    with pytest.raises(InvalidStateError, match="2x2"):
        apply_to_apparatus([np.eye(3)], rho)
    with pytest.raises(InvalidStateError, match="2x2"):
        apply_to_apparatus(np.eye(2), rho)
    for empty in ((), np.empty((0, 2, 2))):
        with pytest.raises(InvalidStateError, match="at least one"):
            apply_to_apparatus(empty, rho)
    # NaN passes a tolerance comparison and inf makes the matmul warn, so both
    # are refused before either, naming the operators and not the state.
    for bad in (np.full((1, 2, 2), np.nan), [[[np.inf, 0.0], [0.0, 1.0]]]):
        with pytest.raises(InvalidStateError, match="Kraus operators must be finite"):
            apply_to_apparatus(bad, rho)


def test_strength_zero_channels_are_the_identity():
    rho = make_x_state(STATE_1)
    for channel in (phase_damping(0.0), amplitude_damping(0.0)):
        assert channel.shape == (2, 2, 2) and not channel[1].any()
        np.testing.assert_allclose(
            apply_to_apparatus(channel, rho).entries, rho.entries, atol=1e-15
        )


def test_strength_out_of_range_rejected():
    for build in (phase_damping, amplitude_damping):
        with pytest.raises(InvalidStateError, match="strength"):
            build(-0.1)
        with pytest.raises(InvalidStateError, match="strength"):
            build(1.1)


def test_phase_damping_shrinks_coherences_linearly():
    evolved = apply_to_apparatus(phase_damping(0.4), make_x_state(STATE_1))
    m = evolved.entries
    # populations fixed, both anti-diagonal coherences scaled by 1 - p = 0.6
    np.testing.assert_allclose(np.diag(m).real, [0.4, 0.1, 0.1, 0.4], atol=1e-15)
    assert m[0, 3] == pytest.approx(0.24, abs=1e-15)
    assert m[1, 2] == pytest.approx(0.06, abs=1e-15)


def test_phase_damping_matches_manual_kraus_sum():
    rho = random_state(1)
    channel = phase_damping(0.37)
    np.testing.assert_allclose(
        apply_to_apparatus(channel, rho).entries, manual_apply(channel, rho), atol=1e-15
    )


def test_phase_damping_composition_law():
    # coherences scale multiplicatively: p1 then p2 equals 1 - (1-p1)(1-p2)
    rho = random_state(2)
    p1, p2 = 0.3, 0.45
    stepwise = apply_to_apparatus(phase_damping(p2), apply_to_apparatus(phase_damping(p1), rho))
    direct = apply_to_apparatus(phase_damping(1.0 - (1.0 - p1) * (1.0 - p2)), rho)
    np.testing.assert_allclose(stepwise.entries, direct.entries, atol=1e-10)


def test_amplitude_damping_operators():
    channel = amplitude_damping(0.36)
    np.testing.assert_allclose(channel[0], np.diag([1.0, 0.8]), atol=1e-15)
    np.testing.assert_allclose(channel[1], [[0.0, 0.6], [0.0, 0.0]], atol=1e-15)


def test_amplitude_damping_populations():
    p = 0.3
    evolved = apply_to_apparatus(amplitude_damping(p), make_x_state(STATE_1))
    c, b = 0.4, 0.1
    expected = [c + p * b, b * (1 - p), b + p * c, c * (1 - p)]
    np.testing.assert_allclose(np.diag(evolved.entries).real, expected, atol=1e-15)


def test_amplitude_damping_full_strength_resets_apparatus():
    evolved = apply_to_apparatus(amplitude_damping(1.0), random_state(3))
    marginal = partial_trace(evolved, "apparatus")
    np.testing.assert_allclose(marginal.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_pointer_decoherence_on_sigma_z_equals_phase_damping():
    rho = random_state(4)
    q = 0.62
    via_pointer = apply_to_apparatus(pointer_decoherence(ProjectiveBasis.sigma_z(), q), rho)
    via_pd = apply_to_apparatus(phase_damping(q), rho)
    np.testing.assert_allclose(via_pointer.entries, via_pd.entries, atol=1e-12)


def test_pointer_decoherence_realizes_projective_mixture():
    rho = random_state(5)
    basis = ProjectiveBasis(1.1, 2.3)
    q = 0.41
    evolved = apply_to_apparatus(pointer_decoherence(basis, q), rho)
    p0, p1 = basis.projectors
    projected = np.zeros((4, 4), dtype=complex)
    for proj in (p0, p1):
        lifted = np.kron(np.eye(2), proj)
        projected += lifted @ rho.entries @ lifted.conj().T
    expected = (1.0 - q) * rho.entries + q * projected
    np.testing.assert_allclose(evolved.entries, expected, atol=1e-12)


def test_pointer_decoherence_fixes_its_own_basis_states():
    # the remark state is diagonal in the x basis, so full x decoherence is a no-op
    rho = remark_state()
    evolved = apply_to_apparatus(pointer_decoherence(ProjectiveBasis.sigma_x(), 1.0), rho)
    np.testing.assert_allclose(evolved.entries, rho.entries, atol=1e-14)


def test_apply_to_apparatus_preserves_system_marginal():
    rho = random_state(6)
    for channel in (phase_damping(0.7), amplitude_damping(0.55)):
        evolved = apply_to_apparatus(channel, rho)
        np.testing.assert_allclose(
            partial_trace(evolved, "system").entries,
            partial_trace(rho, "system").entries,
            atol=1e-12,
        )


def test_apply_to_apparatus_rejects_single_qubit():
    single = DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(InvalidStateError, match="two-qubit"):
        apply_to_apparatus(phase_damping(0.5), single)


def test_a_zero_operator_changes_no_bit_of_evolve():
    # The sum over operators starts at +0.0 and so never holds -0.0: an
    # all-zero operator's term (entries +-0.0) changes no bit, zero signs included.
    states = np.stack(
        [make_x_state(STATE_1).entries, remark_state().entries]
        + [random_state(seed).entries for seed in range(6)]
    )
    cases = [
        (phase_damping(0.0), 1),
        (amplitude_damping(0.0), 1),
        (pointer_decoherence(ProjectiveBasis(1.1, 2.3), 0.0), 1),
        (np.concatenate([np.zeros((1, 2, 2)), amplitude_damping(0.3)]), 0),
    ]
    for ops, zero in cases:
        assert not ops[zero].any()
        kept = np.delete(ops, zero, axis=0)
        pairs = [(evolve(ops[None], rho), evolve(kept[None], rho)) for rho in states]
        rows = (len(states), 1, 1, 1)
        pairs.append((evolve(np.tile(ops, rows), states), evolve(np.tile(kept, rows), states)))
        for got, want in pairs:
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _matmul_trace_check(ops):
    """The trace-preservation verdict with sum_k K^dag K as a batched matrix product.

    Returns the message _check_trace_preserving would give, or None.
    """
    dev = np.abs((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=1) - np.eye(2))
    if dev.max() <= _TP_TOL:
        return None
    worst = dev.max(axis=(-2, -1))
    return (
        "channel is not trace preserving: max |sum K^dag K - I| = "
        f"{worst[np.argmax(worst > _TP_TOL)]:.3e}"
    )


def test_trace_check_keeps_its_verdict_and_message_at_the_tolerance():
    # Each row is a pair sqrt(x) U, sqrt(1 + delta - x) V of scaled unitaries,
    # so sum K^dag K = (1 + delta) I: delta just inside 1e-12 passes, just
    # outside fails, whichever way the sum is formed.
    rng = np.random.default_rng(30)
    n = 40
    unitaries = np.linalg.qr(rng.normal(size=(n, 2, 2, 2)) + 1j * rng.normal(size=(n, 2, 2, 2)))[0]
    x = rng.uniform(0.1, 0.9, n)
    for delta, fails in ((0.9e-12, False), (1.1e-12, True)):
        weights = np.sqrt(np.stack([x, 1.0 + delta - x], axis=1))
        ops = weights[:, :, None, None] * unitaries
        expected = _matmul_trace_check(ops)
        assert (expected is not None) == fails
        if fails:
            with pytest.raises(InvalidStateError) as raised:
                _check_trace_preserving(ops)
            assert str(raised.value) == expected
        else:
            _check_trace_preserving(ops)
