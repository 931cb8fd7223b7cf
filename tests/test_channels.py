import numpy as np
import pytest

from einselect import (
    STATE_1,
    DensityMatrix,
    InvalidStateError,
    KrausChannel,
    ProjectiveBasis,
    amplitude_damping,
    apply_to_apparatus,
    make_x_state,
    partial_trace,
    phase_damping,
    pointer_decoherence,
    remark_state,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_state(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace().real)


def manual_apply(channel, rho):
    out = np.zeros((4, 4), dtype=complex)
    for k in channel.operators:
        lifted = np.kron(np.eye(2), k)
        out += lifted @ rho.entries @ lifted.conj().T
    return out


def test_kraus_channel_requires_trace_preservation():
    with pytest.raises(InvalidStateError, match="trace preserving"):
        KrausChannel(operators=(0.9 * np.eye(2),))
    with pytest.raises(InvalidStateError, match="2x2"):
        KrausChannel(operators=(np.eye(3),))
    with pytest.raises(InvalidStateError, match="at least one"):
        KrausChannel(operators=())


def test_strength_zero_channels_are_the_identity():
    rho = make_x_state(STATE_1)
    for channel in (phase_damping(0.0), amplitude_damping(0.0)):
        assert len(channel.operators) == 1
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
    np.testing.assert_allclose(channel.operators[0], np.diag([1.0, 0.8]), atol=1e-15)
    np.testing.assert_allclose(channel.operators[1], [[0.0, 0.6], [0.0, 0.0]], atol=1e-15)


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

