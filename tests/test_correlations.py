import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from einselect import (
    STATE_1,
    STATE_2,
    CorrelationRecord,
    DensityMatrix,
    InvalidInputError,
    InvalidStateError,
    OptimizationError,
    ProjectiveBasis,
    XStateParams,
    amplitude_damping,
    apply_to_apparatus,
    basis_distance,
    classical_correlation,
    conditional_state,
    make_x_state,
    maximize_classical_correlation,
    parse_matrix_file,
    mutual_information,
    partial_trace,
    phase_damping,
    pointer_decoherence,
    project_to_physical,
    quantum_discord,
    sweep,
    von_neumann_entropy,
)
from einselect.channels import evolve, kraus_stack
from einselect import correlations
from einselect.correlations import (
    _KNOTS,
    _NO_BASES,
    _PHI,
    _PRUNE_MARGIN,
    _ROOT,
    _SEARCH_AXES,
    _SIGMA_ZX,
    _SIGNED_AXES,
    _SLACK,
    _angles,
    _ascend,
    _bloch_correlation,
    _bloch_information,
    _coarse,
    _information_above,
    _local_terms,
    _maximize,
    _mutual_terms,
    _survivors,
    bloch_form,
    classical_correlations,
    correlation_record,
    correlation_records,
)
from einselect.dynamics import BASIS_FLOOR
from einselect.verify import random_density_matrix, random_x_state_params

H_08 = 0.7219280948873623  # binary entropy of 0.8, in bits


def random_state(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace().real)


def bell_state():
    ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return DensityMatrix(np.outer(ket, ket))


def test_basis_angle_normalization():
    wrapped = ProjectiveBasis(0.5, 7.0)
    assert wrapped.phi == pytest.approx(7.0 - 2.0 * math.pi, abs=1e-15)
    # A phi just below 0 reduces to 0.0, not to 2 pi, and a kept phi is kept again.
    assert ProjectiveBasis(0.5, -1e-17).phi == 0.0
    assert ProjectiveBasis(0.5, wrapped.phi).phi == wrapped.phi
    clamped = ProjectiveBasis(-1e-10, 0.0)
    assert clamped.theta == 0.0
    with pytest.raises(InvalidInputError, match="theta"):
        ProjectiveBasis(4.0, 0.0)
    # NaN fails every range comparison, so it needs a check of its own.
    for theta, phi, name in ((math.nan, 0.0, "theta"), (0.5, math.inf, "phi")):
        with pytest.raises(InvalidInputError, match=f"{name} must be a finite number"):
            ProjectiveBasis(theta, phi)


def test_named_bases_point_along_their_axes():
    np.testing.assert_allclose(ProjectiveBasis.sigma_z().axis, [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(ProjectiveBasis.sigma_x().axis, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(ProjectiveBasis.sigma_y().axis, [0, 1, 0], atol=1e-15)


def test_kets_are_orthonormal_and_complete():
    basis = ProjectiveBasis(0.8, 5.1)
    k0, k1 = basis.kets()
    assert abs(np.vdot(k0, k0) - 1.0) < 1e-14
    assert abs(np.vdot(k1, k1) - 1.0) < 1e-14
    assert abs(np.vdot(k0, k1)) < 1e-14
    p0, p1 = basis.projectors
    np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-14)


def test_basis_distance_identifies_antipodes():
    assert basis_distance(ProjectiveBasis.sigma_z(), ProjectiveBasis.sigma_x()) == pytest.approx(
        math.pi / 2, abs=1e-12
    )
    basis = ProjectiveBasis(0.7, 1.2)
    antipode = ProjectiveBasis(math.pi - 0.7, 1.2 + math.pi)
    assert basis_distance(basis, antipode) < 1e-7


def test_conditional_state_of_reference_state():
    rho = make_x_state(STATE_1)
    prob, cond = conditional_state(rho, ProjectiveBasis.sigma_z(), 0)
    assert prob == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(cond.entries, np.diag([0.8, 0.2]), atol=1e-14)
    prob1, _ = conditional_state(rho, ProjectiveBasis.sigma_z(), 1)
    assert prob + prob1 == pytest.approx(1.0, abs=1e-14)


def test_conditional_state_impossible_outcome():
    rho_s = np.diag([0.7, 0.3]).astype(complex)
    rho = DensityMatrix(np.kron(rho_s, np.diag([1.0, 0.0]).astype(complex)))
    prob, cond = conditional_state(rho, ProjectiveBasis.sigma_z(), 1)
    assert prob == 0.0
    assert cond is None


def test_conditional_state_argument_checks():
    rho = make_x_state(STATE_1)
    with pytest.raises(InvalidInputError, match="outcome"):
        conditional_state(rho, ProjectiveBasis.sigma_z(), 2)
    single = DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(InvalidStateError, match="two-qubit"):
        conditional_state(single, ProjectiveBasis.sigma_z(), 0)


def test_classical_correlation_reference_values():
    rho = make_x_state(STATE_1)
    assert classical_correlation(rho, ProjectiveBasis.sigma_z()) == pytest.approx(
        1.0 - H_08, abs=1e-12
    )
    assert classical_correlation(rho, ProjectiveBasis.sigma_x()) == pytest.approx(1.0, abs=1e-9)


def test_classical_correlation_vanishes_on_product_states():
    rho_s = np.array([[0.7, 0.1j], [-0.1j, 0.3]], dtype=complex)
    rho_a = np.array([[0.2, 0.05], [0.05, 0.8]], dtype=complex)
    rho = DensityMatrix(np.kron(rho_s, rho_a))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        basis = ProjectiveBasis(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        assert classical_correlation(rho, basis) == pytest.approx(0.0, abs=1e-12)


def test_bell_state_correlation_is_basis_independent():
    rho = bell_state()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        basis = ProjectiveBasis(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        assert classical_correlation(rho, basis) == pytest.approx(1.0, abs=1e-9)


def test_mutual_information_values():
    assert mutual_information(make_x_state(STATE_1)) == pytest.approx(
        1.0 + 1.0 - H_08, abs=1e-12
    )
    assert mutual_information(bell_state()) == pytest.approx(2.0, abs=1e-12)
    product = DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])).astype(complex))
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-12)
    single = DensityMatrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(InvalidStateError, match="two-qubit"):
        mutual_information(single)


def test_maximize_on_strongly_coherent_state():
    j_max, basis = maximize_classical_correlation(make_x_state(STATE_1))
    assert j_max == pytest.approx(1.0, abs=1e-9)
    assert basis_distance(basis, ProjectiveBasis.sigma_x()) < 1e-6


def test_maximize_after_heavy_dephasing_lands_on_pointer_basis():
    evolved = apply_to_apparatus(phase_damping(0.6), make_x_state(STATE_1))
    j_max, basis = maximize_classical_correlation(evolved)
    assert j_max == pytest.approx(1.0 - H_08, abs=1e-9)
    assert basis_distance(basis, ProjectiveBasis.sigma_z()) < 1e-6


def test_maximize_on_fully_degenerate_state_is_deterministic():
    # every basis scores zero up to rounding; the argmax angles are then
    # artifacts, but the result must be reproducible and the value ~0
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
    j_first, basis_first = maximize_classical_correlation(rho)
    j_second, basis_second = maximize_classical_correlation(rho)
    assert j_first <= 1e-12
    assert j_first == j_second
    assert basis_first.theta == basis_second.theta
    assert basis_first.phi == basis_second.phi


def test_maximize_never_falls_below_named_axes():
    for seed in range(12):
        rho = random_state(seed)
        j_max, _ = maximize_classical_correlation(rho)
        named = max(
            classical_correlation(rho, ProjectiveBasis.sigma_z()),
            classical_correlation(rho, ProjectiveBasis.sigma_x()),
            classical_correlation(rho, ProjectiveBasis.sigma_y()),
        )
        assert j_max >= named - 1e-9


def test_maximize_monotone_under_apparatus_noise():
    # a local channel before measurement cannot increase retrievable information
    for seed in range(6):
        rho = random_state(seed + 20)
        before, _ = maximize_classical_correlation(rho)
        noisy = apply_to_apparatus(phase_damping(0.35), rho)
        after, _ = maximize_classical_correlation(noisy)
        assert after <= before + 1e-6


def test_maximize_bounded_by_mutual_information():
    for seed in range(8):
        rho = random_state(seed + 40)
        j_max, _ = maximize_classical_correlation(rho)
        assert j_max <= mutual_information(rho) + 1e-9


def test_quantum_discord_values():
    assert quantum_discord(make_x_state(STATE_1)) == pytest.approx(1.0 - H_08, abs=1e-9)
    assert quantum_discord(bell_state()) == pytest.approx(1.0, abs=1e-9)
    evolved = apply_to_apparatus(phase_damping(0.99), make_x_state(STATE_1))
    assert quantum_discord(evolved) == pytest.approx(7.2136e-5, abs=1e-8)


def test_discord_of_weakly_coherent_state():
    j_max, _ = maximize_classical_correlation(make_x_state(STATE_2))
    assert j_max == pytest.approx(1.0 - H_08, abs=1e-9)
    assert quantum_discord(make_x_state(STATE_2)) == pytest.approx(0.28316941, abs=1e-7)


def test_quantum_discord_tolerance(monkeypatch):
    # The discord's sign tolerance, with the maximum and the mutual
    # information set: a negative within DISCORD_CLAMP is zero, a positive
    # value is kept, and a larger negative raises, naming the discord.
    rho = make_x_state(STATE_1)

    def measured(j_max, mi):
        # _measure's arrays for one state whose argmax is sigma_z.
        return np.array([j_max]), np.array([[0.0, 0.0, 1.0]]), np.array([mi]), np.zeros((1, 2))

    for j_max, mi, discord in ((0.5, 0.5 - 1e-7, 0.0), (0.25, 0.75, 0.5)):
        arrays = measured(j_max, mi)
        monkeypatch.setattr(correlations, "_measure", lambda *args, arrays=arrays: arrays)
        assert quantum_discord(rho) == discord
    arrays = measured(0.5, 0.499)
    monkeypatch.setattr(correlations, "_measure", lambda *args: arrays)
    message = r"^discord evaluated to -1\.000e-03, below -1e-06$"
    with pytest.raises(OptimizationError, match=message):
        quantum_discord(rho)


def test_nonnegative_applies_its_tolerance_once_over_an_array():
    tol = 1e-9
    values = np.array([[0.5, -0.0, 0.0], [-1e-9, -3e-10, 5e-324]])
    expected = np.array([[0.5, -0.0, 0.0], [0.0, 0.0, 5e-324]])
    out = correlations._nonnegative(values, tol, "quantity")
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert math.copysign(1.0, float(correlations._nonnegative(-0.0, tol, "quantity"))) == -1.0
    # row-major order names -2e-3 first; column-major order would name -5e-3
    message = r"^quantity evaluated to -2\.000e-03, below -1e-09$"
    with pytest.raises(OptimizationError, match=message):
        correlations._nonnegative([[0.1, -2e-3], [-5e-3, 0.0]], tol, "quantity")


def test_correlation_record_consistency_checks():
    with pytest.raises(OptimizationError, match="outside"):
        CorrelationRecord(
            p=0.1, j_z=0.0, j_x=0.0, j_max=1.5, opt_theta=0.0, opt_phi=0.0,
            mutual_info=1.0, discord=0.0,
        )
    with pytest.raises(OptimizationError, match="discord"):
        CorrelationRecord(
            p=0.1, j_z=0.0, j_x=0.0, j_max=0.5, opt_theta=0.0, opt_phi=0.0,
            mutual_info=1.0, discord=-1e-3,
        )


def test_bloch_kernel_matches_classical_correlation():
    rng = np.random.default_rng(2008)
    for seed in range(50):
        rho = random_state(seed + 100)
        form = bloch_form(rho)
        s_entropy = von_neumann_entropy(partial_trace(rho, "system"))
        thetas = np.arccos(rng.uniform(-1.0, 1.0, size=20))
        phis = rng.uniform(0.0, 2.0 * math.pi, size=20)
        axes = [np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)]
        kernel = _bloch_correlation(form, s_entropy, *axes)
        for value, theta, phi in zip(kernel, thetas, phis):
            direct = classical_correlation(rho, ProjectiveBasis(theta, phi))
            assert abs(value - direct) <= 1e-12


def test_bloch_form_of_reference_state():
    # STATE_1: no local Bloch vectors, T = diag(2(w+z), 2(z-w), 2(c-b))
    expected = np.diag([1.0, 1.0, -0.6, 0.6])
    np.testing.assert_allclose(bloch_form(make_x_state(STATE_1)), expected, atol=1e-15)


@pytest.mark.parametrize("family", ["pd", "ad", "pointer"])
def test_sweep_records_equal_standalone_records(family):
    # A sweep evolves, checks and measures all its grid points as one stack.
    # Every channel output and record field must equal, bit for bit, what the
    # one-state functions give point by point. That rests on numpy reducing a
    # stack in the same order as a single state, which this test pins.
    tilted = ProjectiveBasis(0.9, 2.2)
    families = {
        "pd": (ProjectiveBasis.sigma_z(), phase_damping),
        "ad": (None, amplitude_damping),
        "pointer": (tilted, lambda p: pointer_decoherence(tilted, p)),
    }
    basis, channel = families[family]
    grid = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(5)
    states = [make_x_state(STATE_1)] + [random_density_matrix(rng) for _ in range(3)]
    for rho in states:
        outputs = evolve(kraus_stack(basis, grid), rho)
        report = sweep(rho, family, grid, pointer_basis=tilted)
        for output, record in zip(outputs, report.records):
            evolved = apply_to_apparatus(channel(record.p), rho)
            assert np.array_equal(output, evolved.entries)
            j_max, argmax = maximize_classical_correlation(evolved)
            mi = mutual_information(evolved)
            assert record == CorrelationRecord(
                p=record.p,
                j_z=classical_correlation(evolved, ProjectiveBasis.sigma_z()),
                j_x=classical_correlation(evolved, ProjectiveBasis.sigma_x()),
                j_max=j_max,
                opt_theta=argmax.theta,
                opt_phi=argmax.phi,
                mutual_info=mi,
                discord=float(
                    correlations._nonnegative(mi - j_max, correlations.DISCORD_CLAMP, "discord")
                ),
            )
            assert correlation_record(evolved, record.p) == record


def test_stacked_correlation_skips_an_impossible_outcome():
    # With the apparatus in |0>, sigma_z outcome 1 never happens: its
    # conditional state is undefined, adds nothing to J, and must not upset
    # the check of the other states in the stack.
    rho_s = np.diag([0.7, 0.3]).astype(complex)
    product = DensityMatrix(np.kron(rho_s, np.diag([1.0, 0.0]).astype(complex)))
    assert conditional_state(product, ProjectiveBasis.sigma_z(), 1) == (0.0, None)
    coherent = make_x_state(STATE_1)
    records = correlation_records(np.array([product.entries, coherent.entries]), [0.0, 0.5])
    assert records[0].j_z == 0.0
    assert records[0].j_z == classical_correlation(product, ProjectiveBasis.sigma_z())
    assert records[0] == correlation_record(product, 0.0)
    assert records[1] == correlation_record(coherent, 0.5)


def test_stacked_correlations_equal_the_one_state_values():
    rng = np.random.default_rng(8)
    rho_s = np.diag([0.7, 0.3]).astype(complex)
    product = DensityMatrix(np.kron(rho_s, np.diag([1.0, 0.0]).astype(complex)))
    states = [product, make_x_state(STATE_1)] + [random_density_matrix(rng) for _ in range(3)]
    bases = [ProjectiveBasis.sigma_z(), ProjectiveBasis.sigma_x(), ProjectiveBasis(0.9, 2.2)]
    kets = np.array([basis.kets() for basis in bases])
    j = classical_correlations(np.array([rho.entries for rho in states]), kets)
    assert j.shape == (5, 3)
    for row, rho in zip(j.tolist(), states):
        assert row == [classical_correlation(rho, basis) for basis in bases]
    bad = np.array([states[1].entries, np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)])
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        classical_correlations(bad, kets)
    for stack in (np.zeros((0, 4, 4)), np.eye(2)[None] / 2):
        with pytest.raises(InvalidStateError, match="stack of N >= 1 two-qubit states"):
            classical_correlations(stack, kets)


def test_per_state_bases_equal_the_shared_and_one_state_values():
    # Each state of a stack measured in its own bases, given as a (N, K, 2, 2)
    # stack of kets, reads bit for bit what a shared basis and the one-state
    # function read. That rests on numpy's einsum summing per-state kets, and
    # all K bases at once, in the order of one shared basis at a time, which
    # this test pins.
    rng = np.random.default_rng(12)
    rho_s = np.diag([0.7, 0.3]).astype(complex)
    product = DensityMatrix(np.kron(rho_s, np.diag([1.0, 0.0]).astype(complex)))
    states = [product, make_x_state(STATE_1)] + [random_density_matrix(rng) for _ in range(4)]
    bases = [ProjectiveBasis.sigma_z(), ProjectiveBasis.sigma_x(), ProjectiveBasis(0.9, 2.2)]
    bases += [ProjectiveBasis(*angles) for angles in rng.uniform(0.0, 3.0, size=(3, 2))]
    m = np.array([rho.entries for rho in states])
    kets = np.array([basis.kets() for basis in bases])
    # sigma_z outcome 1 never happens on the product state
    assert correlations._conditional_states(m[:1], kets[:1, None])[0][0, 0, 1] == 0.0
    shared = classical_correlations(m, kets)
    each = classical_correlations(m, kets[:, None])
    assert each[:, 0].tolist() == np.diag(shared).tolist()
    assert each[:, 0].tolist() == [classical_correlation(r, b) for r, b in zip(states, bases)]
    all_bases = np.ascontiguousarray(np.broadcast_to(kets, (len(m),) + kets.shape))
    assert classical_correlations(m, all_bases).tolist() == shared.tolist()
    r = m.reshape(-1, 2, 2, 2, 2)
    # K bases at once give every bit of one basis at a time, as (N, 2, 2) kets,
    # for bases shared by the stack and for bases of each state's own
    angles = rng.uniform(0.0, 3.0, size=(len(m), 21, 2))
    per_state = np.array([[ProjectiveBasis(*a).kets() for a in row] for row in angles])
    for k in (0, 1, 2, 21):
        for u in (np.broadcast_to(per_state[0, :k], (len(m), k, 2, 2)), per_state[:, :k]):
            new = np.einsum("sbij,smjnk,sbik->sbimn", u.conj(), r, u)
            assert new.shape == (len(m), k, 2, 2, 2)
            for b in range(k):
                old = np.einsum("sij,smjnk,sik->simn", u[:, b].conj(), r, u[:, b])
                assert np.array_equal(new[:, b].view(np.uint64), old.view(np.uint64))
    for u in kets:
        old = np.einsum("ij,smjnk,ik->simn", u.conj(), r, u)
        for each_u in (np.broadcast_to(u, (len(m), 2, 2)), np.repeat(u[None], len(m), axis=0)):
            assert np.array_equal(np.einsum("sij,smjnk,sik->simn", each_u.conj(), r, each_u), old)
    assert classical_correlations(m, kets[:0]).shape == (len(m), 0)
    for wrong in (kets[1:, None], kets[:, None, :1], kets[None], kets[0]):
        with pytest.raises(InvalidStateError, match="stack of measurement kets"):
            classical_correlations(m, wrong)


def test_classical_correlations_certify_a_valid_stack_without_eigvalsh(monkeypatch):
    # theorem1's chunk: 64 states and each one's four dephased states and p = 1
    # product, 384 in all, each read in its own basis. J reads no pair
    # spectrum, so the stack's check (certify_states) runs no eigvalsh, and the
    # values are the one-state values bit for bit.
    rng = np.random.default_rng(32)
    rho = np.array([random_density_matrix(rng).entries for _ in range(64)])
    bases = [ProjectiveBasis(*rng.uniform(0.0, 3.0, 2)) for _ in range(64)]
    kets = np.repeat([basis.kets() for basis in bases], 6, axis=0)
    strengths = np.tile(np.linspace(0.0, 1.0, 5), 64)
    ops = kraus_stack(np.repeat(kets[::6], 5, axis=0), strengths)
    evolved = evolve(ops, np.repeat(rho, 5, axis=0)).reshape(64, 5, 4, 4)
    m = np.concatenate([rho[:, None], evolved], axis=1).reshape(-1, 4, 4)
    expected = [
        classical_correlation(DensityMatrix(state), basis)
        for state, basis in zip(m, np.repeat(bases, 6))
    ]

    def refuse(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert classical_correlations(m, kets[:, None])[:, 0].tolist() == expected


def test_one_state_functions_do_not_check_a_valid_state_again(monkeypatch):
    # DensityMatrix already checked rho and kept its eigenvalues: the only
    # check left is the one over the reduced and conditional states.
    rho = make_x_state(STATE_1)
    shapes = []
    check = correlations.check_states

    def counting(m):
        shapes.append(m.shape)
        return check(m)

    monkeypatch.setattr(correlations, "check_states", counting)
    calls = [
        lambda: maximize_classical_correlation(rho),
        lambda: correlation_record(rho),
        lambda: classical_correlation(rho, ProjectiveBasis.sigma_x()),
        lambda: mutual_information(rho),
    ]
    for call in calls:
        shapes.clear()
        call()
        assert len(shapes) == 1
        assert shapes[0][1:] == (2, 2)


def _binary_entropy(x):
    return -sum(t * math.log2(t) for t in (x, 1.0 - x) if t > 0.0)


def test_maximize_matches_luo_closed_form_on_bell_diagonal_states():
    # Bell-diagonal X states (diagonal c, b, b, c): J_max = 1 - h((1 + max|c_i|)/2),
    # attained on the Pauli axis of the largest |c_i| (Luo, PRA 77, 042303, 2008).
    pauli_axes = [ProjectiveBasis.sigma_x(), ProjectiveBasis.sigma_y(), ProjectiveBasis.sigma_z()]
    rng = np.random.default_rng(42)
    checked_axes = 0
    for _ in range(12):
        c = float(rng.uniform(0.0, 0.5))
        b = 0.5 - c
        w = float(rng.uniform(-c, c))
        z = float(rng.uniform(-b, b))
        rho = make_x_state(XStateParams(c=c, b=b, z=z, w=w))
        for p in (0.0, 0.3, 0.6, 0.9, 1.0):
            coeffs = [abs(2 * (w + z) * (1 - p)), abs(2 * (z - w) * (1 - p)), abs(2 * (c - b))]
            order = sorted(range(3), key=lambda i: -coeffs[i])
            expected = 1.0 - _binary_entropy((1.0 + coeffs[order[0]]) / 2.0)
            j_max, basis = maximize_classical_correlation(apply_to_apparatus(phase_damping(p), rho))
            assert abs(j_max - expected) <= 1e-12
            if coeffs[order[0]] - coeffs[order[1]] >= 1e-3:
                assert basis_distance(basis, pauli_axes[order[0]]) <= 1e-6
                checked_axes += 1
    assert checked_axes >= 40


@pytest.mark.parametrize(
    "params,family",
    [((0.25, 0.25, 0.25, 0.25), "pd"), ((0.4, 0.1, 0.1, 0.15), "ad")],
)
def test_argmax_stays_exactly_on_the_pauli_axis_at_flat_maxima(params, family):
    # Both optima are sigma_x or sigma_z exactly at every p < 1, with J flat
    # to rounding nearby; a move that gains only rounding must not be taken.
    report = sweep(make_x_state(XStateParams(*params)), family)
    pauli = (ProjectiveBasis.sigma_x(), ProjectiveBasis.sigma_z())
    for record in report.records:
        if record.p < 1.0 and record.j_max > BASIS_FLOOR:
            basis = ProjectiveBasis(record.opt_theta, record.opt_phi)
            assert min(basis_distance(basis, axis) for axis in pauli) == 0.0, record.p


def _search_inputs(states):
    """The maximizer's inputs for DensityMatrix states: stack, Bloch forms and S(rho_s)."""
    m = np.array([rho.entries for rho in states])
    return m, correlations.bloch_forms(m), _local_terms(m, _NO_BASES)[0]


def _j_at(forms, s_entropy, axes):
    return _bloch_correlation(forms.transpose(1, 2, 0), s_entropy, *axes.T)


def test_ascent_from_an_exact_pauli_optimum_stays_on_it():
    rho = apply_to_apparatus(phase_damping(0.6), make_x_state(STATE_1))
    _, forms, s_entropy = _search_inputs([rho])
    start = np.array([[0.0, 0.0, 1.0]])
    values, axes = _ascend(forms, s_entropy, _j_at(forms, s_entropy, start), start)
    assert values[0] == pytest.approx(0.2780719051126377, abs=1e-12)
    assert axes.tolist() == [[0.0, 0.0, 1.0]]


def test_ascent_from_a_lattice_neighbour_reaches_the_maximizer_result():
    rng = np.random.default_rng(16)
    m, forms, s_entropy = _search_inputs([random_density_matrix(rng) for _ in range(200)])
    _, best = _coarse(forms, s_entropy)
    # Start each state on the search axis nearest its coarse best, the best excluded.
    overlap = np.abs(best @ _SEARCH_AXES)
    overlap[overlap > 1.0 - 1e-15] = -1.0
    start = _SEARCH_AXES[:, np.argmax(overlap, axis=1)].T
    values, axes = _ascend(forms, s_entropy, _j_at(forms, s_entropy, start), start)
    maxima, argmax = _maximize(m, s_entropy)
    assert np.max(np.abs(values - maxima)) <= 1e-12
    turn = np.arccos(np.minimum(np.abs(np.sum(axes * argmax, axis=1)), 1.0))
    assert np.max(turn) <= 1e-6


def test_angles_are_the_angles_a_basis_keeps():
    # The poles, y = +-0.0 with x < 0 (atan2 gives pi, then -pi, and both
    # keep phi = pi), a y just below 0 with x > 0 (the % rounds up to 2 pi,
    # kept as 0.0, as on real states whose optimal axis lies in the x-z
    # plane) and 1000 random axes: bit for bit the angles a ProjectiveBasis
    # keeps for the pair (atan2(hypot(x, y), z), atan2(y, x)), and keeps again.
    rng = np.random.default_rng(25)
    edges = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.6, 0.0, 0.8], [-0.6, -0.0, 0.8]]
    edges += [[-1.0, -0.0, 0.0], [0.6, -1e-17, 0.8]]
    random = rng.normal(size=(1000, 3))
    axes = np.concatenate([edges, random / np.linalg.norm(random, axis=1, keepdims=True)])
    kept = [
        ProjectiveBasis(math.atan2(math.hypot(x, y), z), math.atan2(y, x))
        for x, y, z in axes.tolist()
    ]
    kept = [(b.theta.hex(), b.phi.hex()) for b in kept]
    angles = _angles(axes)
    assert [(t.hex(), p.hex()) for t, p in angles] == kept
    again = [ProjectiveBasis(*a) for a in angles]
    assert [(b.theta.hex(), b.phi.hex()) for b in again] == kept
    assert [phi for _, phi in angles[:6]] == [0.0, 0.0, math.pi, math.pi, math.pi, 0.0]
    assert angles[:2] == [(0.0, 0.0), (math.pi, 0.0)]


def test_maximizer_and_record_keep_the_same_angles_on_real_states():
    # Real states often have their optimal axis in the x-z plane, where the
    # ascent can end on a y just below 0 and phi is kept as 0.0: the one-state
    # maximizer's basis and the record keep the same angles bit for bit.
    rng = np.random.default_rng(0)
    phis = []
    for _ in range(40):
        a = rng.normal(size=(4, 4))
        rho = DensityMatrix(a @ a.T / np.trace(a @ a.T))
        j_max, basis = maximize_classical_correlation(rho)
        record = correlation_record(rho)
        assert (j_max.hex(), basis.theta.hex(), basis.phi.hex()) == (
            record.j_max.hex(), record.opt_theta.hex(), record.opt_phi.hex()
        )
        phis.append(basis.phi)
    assert 0.0 in phis and max(phis) < 2.0 * math.pi


def test_every_stored_phi_is_below_two_pi():
    # 1500 seeded states, real ones in two of three. On 92 of them the
    # ascent ends on a y just below 0 with x > 0, where atan2(y, x) % 2 pi
    # rounds up to 2 pi; each stored phi must still lie in [0, 2 pi).
    rng = np.random.default_rng(0)
    stack = []
    for k in range(1500):
        a = rng.normal(size=(4, 4))
        if k % 3 == 2:
            a = a + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        stack.append(m / m.trace().real)
    records = correlation_records(np.array(stack), [0.0] * len(stack))
    assert all(0.0 <= r.opt_phi < 2.0 * math.pi for r in records)
    # The one-state maximizer and record on every state kept at phi = 0.0,
    # the edge states among them.
    edge = [rho for rho, r in zip(stack, records) if r.opt_phi == 0.0]
    assert len(edge) >= 92
    for rho in edge:
        rho = DensityMatrix(rho)
        assert maximize_classical_correlation(rho)[1].phi == 0.0
        assert correlation_record(rho).opt_phi == 0.0


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17])
def test_ascent_from_the_coarse_pass_is_the_maximizer_bit_for_bit(size):
    # Sizes straddle the coarse pass's blocks of 4 states: one state, whole
    # last blocks (8) and partial ones (7, 9, 17).
    rng = np.random.default_rng(size)
    m, forms, s_entropy = _search_inputs([random_density_matrix(rng) for _ in range(size)])
    values, axes = _ascend(forms, s_entropy, *_coarse(forms, s_entropy))
    maxima, argmax = _maximize(m, s_entropy)
    assert maxima.tobytes() == values.tobytes()
    assert argmax.tobytes() == axes.tobytes()
    for i in range(size):
        row = slice(i, i + 1)
        alone = _ascend(forms[row], s_entropy[row], *_coarse(forms[row], s_entropy[row]))
        assert alone[0].tobytes() == values[row].tobytes()
        assert alone[1].tobytes() == axes[row].tobytes()


def _full_pass(forms, s_entropy):
    """The reference coarse pass: J on all 515 search axes, then each state's first maximum.

    Blocks of 8 states, each a (8, 515) batch of the kernel, as np.argmax reads it.
    """
    values, axes = np.empty(len(forms)), np.empty((len(forms), 3))
    for start in range(0, len(forms), 8):
        block = slice(start, start + 8)
        j = _bloch_correlation(
            forms[block].transpose(1, 2, 0)[..., None], s_entropy[block][:, None], *_SEARCH_AXES
        )
        k = np.argmax(j, axis=1)
        values[block] = j[np.arange(k.size), k]
        axes[block] = _SEARCH_AXES[:, k].T
    return values, axes


def _assert_coarse_is_the_full_pass(stack):
    _, forms, s_entropy = _search_inputs([DensityMatrix(rho) for rho in stack])
    values, axes = _coarse(forms, s_entropy)
    full_values, full_axes = _full_pass(forms, s_entropy)
    assert values.tobytes() == full_values.tobytes()
    assert axes.tobytes() == full_axes.tobytes()


@pytest.mark.parametrize("family", ["pd", "ad"])
def test_coarse_pass_is_the_full_pass_bit_for_bit_along_sweeps(family):
    # The reference, general and drawn X states of the stacked-sweep tests, and
    # more general states. Their grids end at p = 1, where a state under ad is
    # a product: J is rounding dust on every axis, and the bound must keep
    # every axis that the dust's first maximum could be.
    from test_dynamics import _mixed_states

    rng = np.random.default_rng(24)
    basis = ProjectiveBasis.sigma_z() if family == "pd" else None
    kraus = kraus_stack(basis, np.linspace(0.0, 1.0, 201))
    for rho in _mixed_states() + [random_density_matrix(rng) for _ in range(6)]:
        _assert_coarse_is_the_full_pass(evolve(kraus, rho.entries))


def _edge_stacks():
    """Stacks where one outcome has p = 0 on a search axis, or a sudden change at p = 0."""
    rng = np.random.default_rng(25)
    system = partial_trace(random_state(26), "system").entries
    apparatus = partial_trace(random_state(27), "apparatus").entries
    # Pure apparatus marginals along sigma_z, sigma_x and sigma_y: on that
    # search axis one outcome has p = 0, exactly or up to rounding.
    kets = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0j]])
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    stack = [np.kron(system, np.outer(k, k.conj())) for k in kets]
    stack += [np.kron(system, apparatus), random_density_matrix(rng).entries]
    stacks = [np.array(stack)]
    # STATE_2, a state with c = b, and one with |z| + |w| = |c - b|, whose
    # sudden change is at p = 0, under pd.
    pd = kraus_stack(ProjectiveBasis.sigma_z(), np.linspace(0.0, 1.0, 201))
    for params in (STATE_2, XStateParams(0.25, 0.25, 0.1, -0.2), XStateParams(0.4, 0.1, 0.1, 0.2)):
        stacks.append(evolve(pd, make_x_state(params).entries))
    return stacks


def test_coarse_pass_is_the_full_pass_bit_for_bit_at_the_edges():
    for stack in _edge_stacks():
        _assert_coarse_is_the_full_pass(stack)


def _bound_formula_pairs(forms):
    """The pairs that _survivors keeps, from its bound written as the formula.

    u = |v|^2/(2p)^2, then max(2p, 0) u phi at the knot above min(u, 1),
    unscaled; returned as flat indices state * 515 + axis.
    """
    bloch = (forms.reshape(-1, 4) @ _SIGNED_AXES).reshape(len(forms), 4, -1)
    twice_p = bloch[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.einsum("sak,sak->sk", bloch[:, 1:], bloch[:, 1:]) / (twice_p * twice_p)
    u = np.fmin(u, 1.0)
    phi_above = np.append(_PHI[1:], 1.0)
    term = np.maximum(twice_p, 0.0) * (u * phi_above[(_KNOTS * u).astype(np.intp)])
    axes = _SEARCH_AXES.shape[1]
    doubled = term[:, :axes] + term[:, axes:]
    floor = doubled.max(axis=1, keepdims=True) / (1.0 + _SLACK)
    state, axis = np.nonzero(~(doubled + 2.0 * _PRUNE_MARGIN < floor))
    return state * axes + axis


@pytest.mark.parametrize("block", [1, 4, 8])
def test_survivors_are_those_of_the_bound_formula(block):
    # The scaled bound rounds as the formula does, so the same pairs survive,
    # whatever the block: 201-state pd and ad sweeps (201 is no multiple of 8)
    # of the stacked-sweep tests' states and more general states, and the
    # edge stacks, where 2p = 0 exactly on a search axis.
    from test_dynamics import _mixed_states

    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 1.0, 201)
    stacks = _edge_stacks()
    for basis in (ProjectiveBasis.sigma_z(), None):
        kraus = kraus_stack(basis, grid)
        for rho in _mixed_states() + [random_density_matrix(rng) for _ in range(3)]:
            stacks.append(evolve(kraus, rho.entries))
    for stack in stacks:
        forms = correlations.bloch_forms(stack)
        for start in range(0, len(forms), block):
            part = forms[start : start + block]
            assert _survivors(part).tolist() == _bound_formula_pairs(part).tolist()


def test_bound_sends_few_axes_of_x_state_sweeps_to_the_kernel(monkeypatch):
    evaluated = []

    def counted(form, s_entropy, nx, ny, nz):
        evaluated.append(np.broadcast(s_entropy, nx).size)
        return _bloch_correlation(form, s_entropy, nx, ny, nz)

    monkeypatch.setattr(correlations, "_bloch_correlation", counted)
    rng = np.random.default_rng(20)
    params = [STATE_1, STATE_2] + [random_x_state_params(rng) for _ in range(12)]
    pd = kraus_stack(ProjectiveBasis.sigma_z(), np.linspace(0.0, 1.0, 201))
    states = 0
    for x in params:
        stack = evolve(pd, make_x_state(x).entries)
        _, forms, s_entropy = _search_inputs([DensityMatrix(rho) for rho in stack])
        _coarse(forms, s_entropy)
        states += len(forms)
    assert sum(evaluated) <= 0.05 * states * _SEARCH_AXES.shape[1]


def test_information_bound_brackets_the_kernel_information():
    # The bound at u is what the kernel gives a Bloch length sqrt(u), clipped
    # to 1, up to a factor 1 + _SLACK. The grid holds every knot and the float
    # just below it, where the bound is tightest and loosest, and lengths
    # above 1; 4 ulp allow for the rounding of both sides.
    knots = np.arange(1, _KNOTS + 1) / _KNOTS
    above_one = [1.0 + 1e-12, 1.5, 4.0, 1e6]
    u = np.concatenate([np.linspace(0.0, 1.0, 100_001), knots, np.nextafter(knots, 0.0), above_one])
    exact = _bloch_information(np.sqrt(u))
    bound = _information_above(_KNOTS * u) / _ROOT
    rounding = 1.0 + 4.0 * np.finfo(float).eps
    assert np.all(exact <= bound * rounding)
    assert np.all(bound <= (1.0 + _SLACK) * exact * rounding)
    assert (_information_above(np.array([np.nan, np.inf])) / _ROOT).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("size", [201, 1024])
def test_coarse_pass_memory_stays_within_the_records_high_water_mark(size):
    # The coarse pass may take no more memory than the larger of the full
    # pass's and that of the _mutual_terms call of correlation_records, the
    # high-water mark of a records call. The stack holds ad sweeps of general
    # states, whose states near p = 1 keep most of their axes.
    rng = np.random.default_rng(26)
    ad = kraus_stack(None, np.linspace(0.0, 1.0, 201))
    m = np.concatenate([evolve(ad, random_density_matrix(rng).entries) for _ in range(6)])[:size]
    eigenvalues = np.array([DensityMatrix(rho).eigenvalues for rho in m])
    forms, s_entropy = correlations.bloch_forms(m), _local_terms(m, _NO_BASES)[0]

    def peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ceiling = max(
        peak(lambda: _full_pass(forms, s_entropy)),
        peak(lambda: _mutual_terms(m, eigenvalues, _SIGMA_ZX)),
    )
    assert peak(lambda: _coarse(forms, s_entropy)) <= ceiling


def test_ascent_leaves_its_start_untouched():
    rng = np.random.default_rng(3)
    _, forms, s_entropy = _search_inputs([random_density_matrix(rng) for _ in range(5)])
    values, axes = _coarse(forms, s_entropy)
    kept = (values.copy(), axes.copy())
    ascended, _ = _ascend(forms, s_entropy, values, axes)
    assert np.all(ascended >= values) and np.any(ascended > values)
    assert values.tobytes() == kept[0].tobytes()
    assert axes.tobytes() == kept[1].tobytes()


# Exact references for the Newton polish. These helpers share no code with the
# optimizer: their own Pauli matrices, correlation matrix and entropy.
_PAULI_XYZ = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def _haar_unitary(rng):
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _axis_angle(a, b):
    """Angle between two axes, antipodes identified, accurate near 0 (unlike acos)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), abs(float(a @ b)))


def test_polish_reaches_the_top_singular_axis_of_rotated_bell_diagonal_states():
    # (U x V) rho_BD (U x V)^dag has r = s = 0, so J(n) = 1 - h((1 + |T n|)/2):
    # the optimal apparatus axis is T's top right singular vector and
    # J_max = 1 - h((1 + sigma_max)/2), with a gap to sigma_2 fixing the axis.
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 40:
        c = rng.uniform(-1.0, 1.0, 3)
        rho = (np.eye(4) + sum(c[i] * np.kron(_PAULI_XYZ[i], _PAULI_XYZ[i]) for i in range(3))) / 4
        if np.linalg.eigvalsh(rho).min() < 1e-9:
            continue
        u = np.kron(_haar_unitary(rng), _haar_unitary(rng))
        rho = u @ rho @ u.conj().T
        t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in _PAULI_XYZ] for a in _PAULI_XYZ])
        _, sigma, vt = np.linalg.svd(t)
        if sigma[0] - sigma[1] < 0.05:
            continue
        j_max, basis = maximize_classical_correlation(DensityMatrix(rho))
        assert _axis_angle(basis.axis, vt[0]) <= 1e-9
        assert abs(j_max - (1.0 - _binary_entropy((1.0 + sigma[0]) / 2.0))) <= 1e-12
        checked += 1


def _benchmark_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "einbench"))
    return importlib.import_module(name)


def test_polish_puts_the_fully_dephased_argmax_on_the_pointer_axis(tmp_path, monkeypatch):
    # The general state of `analyze --channel pointer --theta 1.2 --phi 0.4` on
    # the seed-3 benchmark matrix: at p = 1 the optimal axis is the pointer's.
    inputs = _benchmark_module(monkeypatch, "inputs")
    raw, std = inputs.tomography_matrix(3)
    path = tmp_path / "seed3.mat"
    path.write_text(inputs.matrix_file_text(raw, std, "seed 3"), encoding="utf-8")
    pointer = ProjectiveBasis(1.2, 0.4)
    report = sweep(parse_matrix_file(path).state, "pointer", [0.0, 1.0], pointer_basis=pointer)
    end = report.records[-1]
    axis = ProjectiveBasis(end.opt_theta, end.opt_phi).axis
    assert _axis_angle(axis, pointer.axis) <= 1e-9


@pytest.mark.parametrize("family", ["pd", "ad"])
def test_ascent_keeps_the_coarse_results_of_x_states(family):
    # X-state optima lie on exact Pauli axes with exact frames, where the chart
    # gradient is exactly 0, and flat or non-smooth points stop where they are:
    # the ascent returns the coarse pass's values and axes bit for bit.
    rng = np.random.default_rng(20)
    drawn = [random_x_state_params(rng) for _ in range(12)]
    remark = XStateParams(0.25, 0.25, 0.25, 0.25)
    grid = np.linspace(0.0, 1.0, 201)
    basis = ProjectiveBasis.sigma_z() if family == "pd" else None
    for params in [STATE_1, STATE_2, remark] + drawn:
        states = evolve(kraus_stack(basis, grid), make_x_state(params).entries)
        _, forms, s_entropy = _search_inputs([DensityMatrix(rho) for rho in states])
        values, axes = _coarse(forms, s_entropy)
        ascended = _ascend(forms, s_entropy, values, axes)
        assert ascended[0].tobytes() == values.tobytes(), params
        assert ascended[1].tobytes() == axes.tobytes(), params


def _damped_tomography_states(inputs, seed, ps):
    raw, _ = inputs.tomography_matrix(seed)
    state, _ = project_to_physical(raw)
    return evolve(kraus_stack(None, ps), state.entries)


def test_ascent_reaches_brute_force_where_newton_steps_are_refused(monkeypatch):
    # Near p = 1 under ad, p- -> 0 and the quadratic model fails: Newton's
    # first steps lower J (seed 1 at p = 0.99 and 0.995, seed 3 at p = 0.995),
    # and only a shrinking radius lets the ascent reach the maximum.
    inputs = _benchmark_module(monkeypatch, "inputs")
    oracle = _benchmark_module(monkeypatch, "oracle")
    ps = [0.99, 0.995]
    for seed in range(40):
        states = _damped_tomography_states(inputs, seed, ps)
        for record, rho in zip(correlation_records(states, ps), states):
            best, _ = oracle.brute_force_jmax(rho)
            assert abs(record.j_max - best) <= 1e-12, (seed, record.p)


def test_ascent_keeps_a_flat_start_that_is_not_concave(monkeypatch):
    # Full damping leaves a product state: J is rounding dust, and on 30 of
    # these 40 states H is not negative definite. The ascent must stop at
    # once, not loop on steps kept at zero gain.
    inputs = _benchmark_module(monkeypatch, "inputs")
    stack = [_damped_tomography_states(inputs, seed, [1.0])[0] for seed in range(40)]
    _, forms, s_entropy = _search_inputs([DensityMatrix(rho) for rho in stack])
    values, axes = _coarse(forms, s_entropy)
    ascended = _ascend(forms, s_entropy, values, axes)
    assert ascended[0].tobytes() == values.tobytes()
    assert ascended[1].tobytes() == axes.tobytes()


def test_polish_of_a_mixed_stack_is_its_one_state_results_bit_for_bit():
    # Smooth general states, a pure conditional state (STATE_1 at p = 0), flat
    # maxima (the remark state, the product state at p = 1 under full damping):
    # each row steps, shrinks its radius and stops as it would alone.
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, 1.0, 5)
    stack = [random_density_matrix(rng).entries for _ in range(9)]
    pd = kraus_stack(ProjectiveBasis.sigma_z(), grid)
    stack += list(evolve(pd, make_x_state(STATE_1).entries))
    stack += list(evolve(kraus_stack(None, grid), random_density_matrix(rng).entries))
    stack.append(make_x_state(XStateParams(0.25, 0.25, 0.25, 0.25)).entries)
    m, forms, s_entropy = _search_inputs([DensityMatrix(rho) for rho in stack])
    start = _coarse(forms, s_entropy)
    values, axes = _ascend(forms, s_entropy, *start)
    for i in range(len(stack)):
        row = slice(i, i + 1)
        alone = _ascend(forms[row], s_entropy[row], start[0][row], start[1][row])
        assert alone[0].tobytes() == values[row].tobytes()
        assert alone[1].tobytes() == axes[row].tobytes()


def test_chart_derivatives_match_finite_differences_of_j():
    rng = np.random.default_rng(8)
    _, forms, s_entropy = _search_inputs([random_density_matrix(rng) for _ in range(6)])
    n = rng.normal(size=(6, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    e1, e2 = correlations._frame(n)
    smooth, g1, g2, h11, h12, h22 = correlations._chart_derivatives(forms, n.T, e1.T, e2.T)
    assert smooth.all()

    def j(a, b):
        v = n + a * e1 + b * e2
        return _j_at(forms, s_entropy, v / np.linalg.norm(v, axis=1, keepdims=True))

    h = 1e-4
    np.testing.assert_allclose(g1, (j(h, 0) - j(-h, 0)) / (2 * h), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(g2, (j(0, h) - j(0, -h)) / (2 * h), rtol=1e-6, atol=1e-9)
    centre = j(0, 0)
    np.testing.assert_allclose(h11, (j(h, 0) - 2 * centre + j(-h, 0)) / h**2, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(h22, (j(0, h) - 2 * centre + j(0, -h)) / h**2, rtol=1e-4, atol=1e-6)
    cross = (j(h, h) - j(h, -h) - j(-h, h) + j(-h, -h)) / (4 * h * h)
    np.testing.assert_allclose(h12, cross, rtol=1e-4, atol=1e-6)
