import math

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
    mutual_information,
    partial_trace,
    phase_damping,
    pointer_decoherence,
    quantum_discord,
    sweep,
    von_neumann_entropy,
)
from einselect.channels import evolve, kraus_stack
from einselect import correlations
from einselect.correlations import (
    _NO_BASES,
    _SEARCH_AXES,
    _ascend,
    _bloch_correlation,
    _coarse,
    _local_terms,
    _maximize,
    bloch_form,
    classical_correlations,
    correlation_record,
    correlation_records,
)
from einselect.dynamics import BASIS_FLOOR
from einselect.verify import random_density_matrix

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
    for j_max, mi, discord in ((0.5, 0.5 - 1e-7, 0.0), (0.25, 0.75, 0.5)):
        row = (j_max, ProjectiveBasis.sigma_z(), mi, (0.0, 0.0))
        monkeypatch.setattr(correlations, "_measure", lambda *args, row=row: [row])
        assert quantum_discord(rho) == discord
    row = (0.5, ProjectiveBasis.sigma_z(), 0.499, (0.0, 0.0))
    monkeypatch.setattr(correlations, "_measure", lambda *args: [row])
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
    eigenvalues = np.array([rho.eigenvalues for rho in states])
    return m, correlations.bloch_forms(m), _local_terms(m, eigenvalues, _NO_BASES)[0]


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
    maxima = _maximize(m, s_entropy)
    assert np.max(np.abs(values - [j for j, _ in maxima])) <= 1e-12
    turn = np.arccos(np.minimum(np.abs(np.sum(axes * [b.axis for _, b in maxima], axis=1)), 1.0))
    assert np.max(turn) <= 1e-6


@pytest.mark.parametrize("size", [1, 7, 8, 9, 17])
def test_ascent_from_the_coarse_pass_is_the_maximizer_bit_for_bit(size):
    # Sizes straddle the coarse pass's block of 8 states.
    rng = np.random.default_rng(size)
    m, forms, s_entropy = _search_inputs([random_density_matrix(rng) for _ in range(size)])
    values, axes = _ascend(forms, s_entropy, *_coarse(forms, s_entropy))
    angles = [
        ProjectiveBasis(math.atan2(math.hypot(x, y), z), math.atan2(y, x)) for x, y, z in axes
    ]
    assert list(zip(values.tolist(), angles)) == _maximize(m, s_entropy)
    for i in range(size):
        row = slice(i, i + 1)
        alone = _ascend(forms[row], s_entropy[row], *_coarse(forms[row], s_entropy[row]))
        assert alone[0].tobytes() == values[row].tobytes()
        assert alone[1].tobytes() == axes[row].tobytes()


def test_ascent_leaves_its_start_untouched():
    rng = np.random.default_rng(3)
    _, forms, s_entropy = _search_inputs([random_density_matrix(rng) for _ in range(5)])
    values, axes = _coarse(forms, s_entropy)
    kept = (values.copy(), axes.copy())
    ascended, _ = _ascend(forms, s_entropy, values, axes)
    assert np.all(ascended >= values) and np.any(ascended > values)
    assert values.tobytes() == kept[0].tobytes()
    assert axes.tobytes() == kept[1].tobytes()
