import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from einselect import qstate
from einselect.qstate import (
    PSD_FLOOR,
    _first_failure,
    _hermitian_deviations,
    _qubit_spectra,
    certify_states,
    check_states,
)


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


def _full_deviations(m):
    """Each state's max |m - m^dag|, from the whole matrix and its conjugate transpose."""
    with np.errstate(invalid="ignore"):
        return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _checked_states(rng, d):
    """Valid, non-Hermitian, off-trace, non-positive and non-finite d x d states, shuffled."""
    states = []
    for _ in range(8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        states.append(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    bad = []
    lopsided = np.diag([1.5, -0.5] + [0.0] * (d - 2)).astype(complex)
    for k, rho in enumerate(states):
        i, j = rng.integers(d, size=2)
        tilted = rho.copy()
        tilted[i, j] += 10.0 ** -rng.integers(9, 15) * (1j if k % 2 else 1.0)
        bad += [tilted, rho * 1.001, 0.1 * rho + 0.9 * lopsided]
    bad.append(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    for value in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)):
        for i, j in ((0, 0), (d - 1, d - 1), (0, d - 1), (d - 1, 0)):
            broken = states[0].copy()
            broken[i, j] = value
            bad.append(broken)
    # A real inf on the diagonal and at both ends of a pair, where inf - inf is nan.
    both = states[1].copy()
    both[0, 1] = both[1, 0] = np.inf
    real = states[2].copy().real.astype(complex)
    real[1, 1] = np.inf
    bad += [both, real]
    stack = np.array(states + bad)
    return stack[rng.permutation(len(stack))]


@pytest.mark.parametrize("d", [2, 4])
def test_hermitian_deviations_and_failure_texts_are_the_full_matrix_formulas(d):
    # Each off-diagonal pair is compared once and each diagonal entry with its
    # own conjugate: every deviation, nan and inf included, and every failure
    # text equal those of the full m - m^dag, alone and in stacks.
    rng = np.random.default_rng(31 + d)
    stack = _checked_states(rng, d)
    got, full = _hermitian_deviations(stack).max(axis=1), _full_deviations(stack)
    assert np.array_equal(np.isnan(got), np.isnan(full))
    assert got[~np.isnan(got)].tobytes() == full[~np.isnan(full)].tobytes()
    assert np.isnan(got).sum() >= 4 and np.isinf(got).sum() >= 4
    texts = set()
    for part in [stack[k : k + 1] for k in range(len(stack))] + [stack[k:] for k in range(12)]:
        full, tr = _full_deviations(part), part.trace(axis1=-2, axis2=-1)
        try:
            check_states(part)
        except InvalidStateError as failed:
            assert str(failed) == _first_failure(part, full, tr)
            texts.add(str(failed).split(":")[0].split(" =")[0])
        else:
            assert full.max() <= 1e-12 and np.abs(tr - 1.0).max() <= 1e-12
    assert texts == {
        "entries must be finite numbers", "not Hermitian", "trace", "not positive semidefinite"
    }


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


# The qubit spectra of check_states come from _qubit_spectra, which repeats
# LAPACK zheevd's arithmetic rather than calling it. These tests pin it bit for
# bit to np.linalg.eigvalsh, that is to reference LAPACK's arithmetic as
# numpy's bundled OpenBLAS runs it (scipy-openblas 0.3.31 when this was
# written; CI prints numpy's BLAS/LAPACK build before the tests). A LAPACK
# whose zhetd2, zlarfg, dsterf or dlae2 rounds differently fails them.


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _unit_trace_stack(rng, n):
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / m.trace(axis1=1, axis2=2)[:, None, None]


def _with_offdiagonal(m, b):
    m = m.astype(complex)
    m[:, 1, 0] = b
    m[:, 0, 1] = np.conj(b)
    return m


def _spectrum_families(rng, n=3000):
    """Seeded (n, 2, 2) Hermitian stacks that reach each branch of zheevd's 2 x 2 path."""
    m = _unit_trace_stack(rng, n)
    ket = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    ket /= np.linalg.norm(ket, axis=1)[:, None]
    sign = rng.choice([-1.0, 1.0], n)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    near = 0.5 + sign * 10 ** rng.uniform(-17, -3, n)
    x = rng.uniform(0, 1, n)
    # m[1, 1] a few units of 2^-55 from a power of two, where the trailing
    # update's two roundings (c - w) - w and one rounding of c - 2 w part ways.
    binade = rng.choice([0.125, 0.25, 0.5], n) + rng.integers(-4, 5, n) * 2.0**-55
    binade_b = np.sqrt(binade * (1 - binade)) * rng.uniform(0, 1, n) * phase
    quantized = np.round(m * 16) / 16
    quantized[:, 1, 1] = 1 - quantized[:, 0, 0].real
    imaginary_diagonal = m.copy()
    imaginary_diagonal[:, [0, 1], [0, 1]] += 1j * 4e-13 * rng.uniform(-1, 1, (n, 2))
    return {
        "random": m,
        "pure": np.einsum("ni,nj->nij", ket, ket.conj()),
        "real b": _with_offdiagonal(m, m[:, 1, 0].real),
        "tiny imaginary b": _with_offdiagonal(
            m, m[:, 1, 0].real + 1j * sign * 10 ** rng.uniform(-20, -8, n)
        ),
        "small b": _with_offdiagonal(m, 10 ** rng.uniform(-25, -5, n) * phase),
        "subnormal b": _with_offdiagonal(m, 10 ** rng.uniform(-322, -290, n) * phase),
        "signed zero real part": _with_offdiagonal(m, -0.0 + 1j * m[:, 1, 0].imag),
        "near-degenerate diagonal": np.where(
            np.eye(2, dtype=bool), np.stack([near, 1 - near], axis=1)[:, None, :], m
        ),
        "near a power of two": _with_offdiagonal(
            np.einsum("ni,ij->nij", np.stack([1 - binade, binade], axis=1), np.eye(2)), binade_b
        ),
        "diagonal": np.einsum("ni,ij->nij", np.stack([x, 1 - x], axis=1), np.eye(2)),
        "half identity": np.broadcast_to(np.eye(2) / 2, (n, 2, 2)),
        "quantized": quantized,
        "non-PSD": _with_offdiagonal(m, m[:, 1, 0] * rng.uniform(1, 5, n)),
        "scaled": m * 10 ** rng.uniform(-100, 100, n)[:, None, None],
        "imaginary diagonal dust": imaginary_diagonal,
    }


def test_qubit_spectra_equal_eigvalsh_bit_for_bit():
    for name, m in _spectrum_families(np.random.default_rng(30)).items():
        m = np.ascontiguousarray(m, dtype=complex)
        expected = np.linalg.eigvalsh(m)
        got = _qubit_spectra(m)
        assert got.shape == expected.shape
        mismatches = int((_bits(got) != _bits(expected)).any(axis=1).sum())
        assert mismatches == 0, f"{name}: {mismatches} of {len(m)} spectra differ"


# Subnormals included, so zlarfg's rescaling of a tiny off-diagonal is reached.
_ENTRIES = st.floats(min_value=-1e6, max_value=1e6)


@settings(max_examples=500, deadline=None)
@given(a=_ENTRIES, b_re=_ENTRIES, b_im=_ENTRIES)
def test_qubit_spectrum_of_any_unit_trace_hermitian_matrix_is_eigvalsh(a, b_re, b_im):
    m = np.array([[[a, complex(b_re, -b_im)], [complex(b_re, b_im), 1.0 - a]]])
    expected = np.linalg.eigvalsh(m)
    assert np.array_equal(_bits(_qubit_spectra(m)), _bits(expected))
    if expected[0, 0] >= -PSD_FLOOR:
        assert np.array_equal(_bits(check_states(m)), _bits(expected))


def test_qubit_check_calls_no_lapack_when_it_returns(monkeypatch):
    states = _unit_trace_stack(np.random.default_rng(0), 50)
    expected = np.linalg.eigvalsh(states)

    def refuse(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert np.array_equal(_bits(check_states(states)), _bits(expected))
    rho = DensityMatrix(states[7])
    assert np.array_equal(_bits(rho.eigenvalues), _bits(expected[7]))
    with pytest.raises(AssertionError, match="eigvalsh called"):
        check_states(np.eye(4, dtype=complex)[None] / 4)


def _qubit(b, diagonal=(0.5, 0.5)):
    return np.array([[diagonal[0], np.conj(b)], [b, diagonal[1]]], dtype=complex)


@pytest.mark.parametrize(
    "entries, text",
    [
        (
            np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex),
            "not Hermitian: max |m - m^dag| = 2.000e-01 exceeds 1e-12",
        ),
        (_qubit(0.0, (0.6, 0.5)), "trace = 1.1+0j differs from 1 by more than 1e-12"),
        (_qubit(0.1, (np.nan, 1.0)), "entries must be finite numbers"),
        (_qubit(np.inf), "entries must be finite numbers"),
        (_qubit(complex(0.1, np.nan)), "entries must be finite numbers"),
        (
            _qubit(0.0, (1.001, -0.001)),
            "not positive semidefinite: smallest eigenvalue -1.000e-03 below -1e-10",
        ),
        (
            _qubit(0.6j),
            "not positive semidefinite: smallest eigenvalue -1.000e-01 below -1e-10",
        ),
        (_qubit(1e150), "not positive semidefinite: smallest eigenvalue -1.000e+150 below -1e-10"),
        (_qubit(1e200), "not positive semidefinite: smallest eigenvalue -1.000e+200 below -1e-10"),
        (
            _qubit(-1e200j),
            "not positive semidefinite: smallest eigenvalue -1.000e+200 below -1e-10",
        ),
        (_qubit(1e300), "not positive semidefinite: smallest eigenvalue -1.000e+300 below -1e-10"),
    ],
)
def test_qubit_state_failures_keep_their_texts(entries, text):
    with pytest.raises(InvalidStateError) as alone:
        DensityMatrix(entries)
    assert str(alone.value) == text
    half = np.eye(2, dtype=complex) / 2
    with pytest.raises(InvalidStateError) as stacked:
        check_states(np.array([half, entries, half]))
    assert str(stacked.value) == text


def test_qubit_eigenvalues_keep_their_bits():
    rho = DensityMatrix(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
    assert rho.eigenvalues.tobytes().hex() == "989999999999c93f9a9999999999e93f"


# certify_states accepts and refuses exactly what check_states does, with the
# same texts, without computing a spectrum where its Cholesky factorization
# succeeds.


def _verdict(check, m):
    """None where check accepts the stack m, else the text it raises."""
    try:
        check(m)
    except InvalidStateError as failed:
        return str(failed)
    return None


def _with_spectrum(rng, spectra):
    """States U diag(spectrum) U^dag, one per row of spectra, U the Q of a complex Gaussian."""
    z = rng.normal(size=(len(spectra), 4, 4)) + 1j * rng.normal(size=(len(spectra), 4, 4))
    u = np.linalg.qr(z)[0]
    return np.einsum("nij,nj,nkj->nik", u, np.asarray(spectra, dtype=float), u.conj())


def _valid_stacks(rng, n=64):
    """Seeded valid (n, 4, 4) stacks of full rank, rank 1 and rank 2, and STATE_1 at p = 0."""
    full = rng.dirichlet(np.ones(4), n)
    rank1 = np.zeros((n, 4))
    rank1[:, 0] = 1.0
    rank2 = np.zeros((n, 4))
    rank2[:, :2] = rng.dirichlet(np.ones(2), n)
    return {
        "full rank": _with_spectrum(rng, full),
        "rank 1": _with_spectrum(rng, rank1),
        "rank 2": _with_spectrum(rng, rank2),
        "STATE_1 at p = 0": np.broadcast_to(make_x_state(STATE_1).entries, (n, 4, 4)),
    }


def test_certify_states_accepts_valid_stacks_without_a_spectrum(monkeypatch):
    stacks = _valid_stacks(np.random.default_rng(32))
    for m in stacks.values():
        check_states(m)

    def refuse(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for name, m in stacks.items():
        assert certify_states(m) is None, name


def _lowest_at(rng, lowest, n=8):
    """(n, 4, 4) states whose exact lowest eigenvalue is lowest, with unit trace."""
    rest = rng.dirichlet(np.ones(3), n) * (1.0 - lowest)
    return _with_spectrum(rng, np.column_stack([np.full(n, lowest), rest]))


@pytest.mark.parametrize("offset", [-1e-11, -1e-12, -1e-13, 1e-13, 1e-12, 1e-11])
def test_certify_states_at_the_positivity_floor_is_check_states(offset):
    # Lowest eigenvalues at -PSD_FLOOR + offset, offset +-1e-13 being
    # -PSD_FLOOR (1 -+ 1e-3). Below -PSD_FLOOR + 1e-12 the factorization of
    # m + (PSD_FLOOR - 1e-12) I fails and check_states decides: the verdict
    # and the text are its own, alone and with valid states around.
    rng = np.random.default_rng(33)
    valid = _valid_stacks(rng, 4)["full rank"]
    states = _lowest_at(rng, -PSD_FLOOR + offset)
    for k in range(len(states)):
        for m in (states[k : k + 1], np.concatenate([valid[:2], states[k : k + 1], valid[2:]])):
            expected = _verdict(check_states, m)
            assert (expected is None) == (offset > 0)
            assert _verdict(certify_states, m) == expected


def test_certify_states_refuses_invalid_stacks_with_check_states_texts():
    # Non-Hermitian, off-trace, non-positive, nan and inf states (_checked_states),
    # alone and in stacks, and Hermitian unit-trace states with an entry above 1
    # in modulus, valid or not.
    rng = np.random.default_rng(34)
    stack = _checked_states(rng, 4)
    above_one = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
    coherent = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    coherent[0, 1] = coherent[1, 0] = 1.5j
    parts = [stack[k : k + 1] for k in range(len(stack))] + [stack[k:] for k in range(12)]
    parts += [above_one[None], coherent[None], np.array([above_one, coherent])]
    verdicts = set()
    for part in parts:
        expected = _verdict(check_states, part)
        assert _verdict(certify_states, part) == expected
        verdicts.add(expected if expected is None else expected.split(":")[0].split(" =")[0])
    assert verdicts == {
        None,
        "entries must be finite numbers",
        "not Hermitian",
        "trace",
        "not positive semidefinite",
    }


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lowest=st.one_of(
        st.floats(-PSD_FLOOR - 2e-12, -PSD_FLOOR + 2e-12),
        st.floats(-1e-9, 1e-9),
        st.floats(-1.0, 1.0),
    ),
    zeros=st.integers(0, 2),
)
def test_certify_states_accepts_only_what_check_states_accepts(seed, lowest, zeros):
    # A lowest eigenvalue near -PSD_FLOOR, near 0 or anywhere in [-1, 1], and
    # up to two more exact zeros in the spectrum.
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.ones(3))
    rest[:zeros] = 0.0
    spectrum = np.append(lowest, rest / rest.sum() * (1.0 - lowest))
    m = _with_spectrum(rng, spectrum[None])
    if _verdict(certify_states, m) is None:
        assert _verdict(check_states, m) is None


def test_certify_states_hands_what_it_cannot_certify_to_check_states(monkeypatch):
    # A valid state with an entry above 1, and valid states just below the
    # shifted floor, cost one check_states call per stack.
    above_one = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)[None]
    near_floor = _lowest_at(np.random.default_rng(35), -PSD_FLOOR + 1e-13, 3)
    calls = []
    check = qstate.check_states

    def counted(m):
        calls.append(len(m))
        return check(m)

    monkeypatch.setattr(qstate, "check_states", counted)
    certify_states(above_one)
    certify_states(near_floor)
    assert calls == [1, 3]
