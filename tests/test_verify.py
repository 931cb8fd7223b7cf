import dataclasses
import math

import numpy as np
import pytest

from einselect import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    STATE_1,
    DensityMatrix,
    InvalidInputError,
    InvalidStateError,
    ProjectiveBasis,
    VerificationOutcome,
    apply_to_apparatus,
    CorrelationRecord,
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
from einselect import correlations, dynamics, montecarlo, qstate, verify
from einselect.matrixio import parse_matrix_file, write_matrix_file
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
    assert trace_distance(a.entries, b.entries) == d


def _cq_chunk(chunk):
    # The states and pointer angles that the chunk builders make of _cq_draw's draws.
    uniforms, branches, weights = zip(*chunk)
    theta, phi = verify._basis_angles(uniforms)
    m = verify._cq_states(verify._kets(theta, phi), np.array(branches), np.array(weights))
    return m, list(zip(theta.tolist(), phi.tolist()))


@pytest.mark.parametrize("seed", [0, 1, 29, 109])
def test_random_cq_state_is_the_checked_draw_of_its_entries(seed, monkeypatch):
    # Seeds 29 and 109 redraw their branches once, so two pairs of branches are drawn.
    pairs = []
    states = verify._states

    def counted(gaussians):
        pairs.append(gaussians.shape)
        return states(gaussians)

    monkeypatch.setattr(verify, "_states", counted)
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    rho, basis = random_cq_state(old)
    drawn = len(pairs)
    (m,), (angles,) = _cq_chunk([verify._cq_draw(new)])
    assert pairs == [(2, 2, 2, 2)] * (2 * drawn) == [(2, 2, 2, 2)] * (4 if seed in (29, 109) else 2)
    checked = DensityMatrix(m)
    assert rho.entries.tobytes() == checked.entries.tobytes() == m.tobytes()
    assert rho.eigenvalues.tobytes() == checked.eigenvalues.tobytes()
    assert (basis.theta, basis.phi) == angles
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("trials", [1, 64])
@pytest.mark.parametrize("seed", [0, 1, 29, 109])
def test_random_draws_are_rows_of_the_chunk_builders(seed, trials):
    # random_density_matrix, random_basis and random_cq_state, one trial at a
    # time, against the suites' draws built a chunk at a time (N = 1 and a
    # full chunk), bit for bit and with the generator left in the same state.
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [(random_density_matrix(old, 4), random_basis(old)) for _ in range(trials)]
    gaussians, uniforms = zip(*[verify._theorem1_draw(new) for _ in range(trials)])
    states = verify._states(np.array(gaussians))
    theta, phi = verify._basis_angles(uniforms)
    kets = verify._kets(theta, phi)
    for (rho, basis), m, pair, k in zip(expected, states, zip(theta.tolist(), phi.tolist()), kets):
        assert rho.entries.tobytes() == m.tobytes()
        assert (basis.theta, basis.phi) == pair
        assert basis.kets().tobytes() == k.tobytes()
    assert new.bit_generator.state == old.bit_generator.state

    expected = [random_cq_state(old) for _ in range(trials)]
    m, angles = _cq_chunk([verify._cq_draw(new) for _ in range(trials)])
    for (rho, basis), entries, pair in zip(expected, m, angles):
        assert rho.entries.tobytes() == entries.tobytes()
        assert (basis.theta, basis.phi) == pair
    assert new.bit_generator.state == old.bit_generator.state


def test_suites_build_no_basis_object_per_draw(monkeypatch):
    # theorem1 reads its pointer kets from angles, and lemma1 its pointer and
    # tilted kets, so neither builds a ProjectiveBasis per drawn basis; lemma1's
    # judge may build one per trial to compare its argmax with the pointer.
    # theorem2 draws X-state entries and reads their J_z in the sigma_z kets,
    # so it builds no DensityMatrix and no ProjectiveBasis per draw: its judge
    # builds one sigma_z basis per chunk of 64 trials.
    built = []
    for cls in (ProjectiveBasis, DensityMatrix):
        post_init = cls.__post_init__

        def counted(obj, post_init=post_init):
            built.append(obj)
            post_init(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert verify_theorem1(trials=130).passed
    assert built == []
    assert verify_lemma1(trials=130).passed
    assert len(built) <= 130
    sigma_z = ProjectiveBasis.sigma_z()
    built.clear()
    assert verify_theorem2(trials=130).passed
    assert built == [sigma_z] * 3


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


def _remark_report(j_max, j_z=(0.0, 0.0, 0.0), transition_p=None):
    # A stand-in for what _sweeps yields for the remark's three-point sweep at
    # p = 0, 0.5 and 1: (j_max, axes, mutual, j, discord) and the transition.
    zeros = np.zeros(3)
    arrays = np.array(j_max), np.zeros((3, 3)), zeros, np.column_stack([j_z, zeros]), zeros
    return arrays, transition_p


@pytest.mark.parametrize(
    "report, failures, worst",
    [
        (_remark_report((0.3, 0.1, 0.0)), 0, 0.0),
        (_remark_report((0.3, 0.1, 0.0), j_z=(0.0, 1e-6, 0.0)), 1, 1e-6),
        (_remark_report((0.3, 0.1, 0.0), j_z=(0.0, 1e-12, 0.0)), 0, 0.0),
        (_remark_report((0.3, -0.1, -0.2)), 1, 0.1),
        (_remark_report((0.3, 0.35, 0.0)), 1, 0.35 - 0.3),
        (_remark_report((0.3, 0.1, 0.05)), 1, 0.05),
        # decreasing, positive inside and 0 at p = 1, but flat within PLATEAU_TOL
        (_remark_report((2e-7, 1e-7, 0.0)), 1, 0.0),
        (_remark_report((0.3, 0.1, 0.0), transition_p=0.5), 1, 0.0),
        (_remark_report((0.2, 0.2, 0.2), j_z=(2e-3, 0.0, 0.0)), 4, 0.2),
    ],
)
def test_remark_counts_each_failing_check(report, failures, worst, monkeypatch):
    # Each of the remark's five checks fails in turn, then four at once: the
    # failures are the checks that fail, and the worst violation the largest
    # of the pointer J above its tolerance, the negative interior j_max, the
    # largest increase and the final j_max above 1e-9. The regime is the one
    # rule's (dynamics._regime) on the stand-in arrays: constant for the flat
    # ones, sudden change for the transition at 0.5.
    grids = []

    def stand_in(states, ps, basis):
        grids.append(ps.tolist())
        yield report

    monkeypatch.setattr(verify, "_sweeps", stand_in)
    outcome = verify_remark([0.0, 0.5, 1.0])
    assert outcome == VerificationOutcome("remark", 3, failures, worst, 0)
    assert grids == [[0.0, 0.5, 1.0]]


def test_suites_build_no_record(monkeypatch):
    # theorem2's judge and the remark read their sweeps' arrays, and theorem1
    # and lemma1 never sweep: no suite builds a CorrelationRecord.
    built = []

    def counted(*fields):
        built.append(fields[0])
        return CorrelationRecord(*fields)

    monkeypatch.setattr(correlations, "CorrelationRecord", counted)
    assert verify_theorem2(trials=70).passed
    assert verify_remark(np.linspace(0.0, 1.0, 41)).passed
    assert verify_theorem1(trials=5).passed
    assert verify_lemma1(trials=5).passed
    assert built == []
    # The regime the suites judge is the one rule that classify_regime applies.
    assert verify._regime is dynamics._regime


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


def test_lemma1_checks_each_chunk_of_states_once(monkeypatch):
    # Every check of a (n, 4, 4) stack, wherever it is made: one per judged
    # chunk of 64, 64 and 2 trials, and none per drawn state.
    sizes = []
    check = qstate.check_states

    def counted(m):
        if m.shape[1:] == (4, 4):
            sizes.append(len(m))
        return check(m)

    monkeypatch.setattr(qstate, "check_states", counted)
    monkeypatch.setattr(correlations, "check_states", counted)
    assert verify_lemma1(trials=130).passed
    assert sizes == [64, 64, 2]


def test_outcome_passed_property():
    assert VerificationOutcome("x", 10, 0, 0.0, 1).passed
    assert not VerificationOutcome("x", 10, 2, 0.5, 1).passed


# The per-trial loops the suites ran before they were stacked, built from the
# one-state public functions, and the one-state read of J at a fixed axis.
# Each takes one trial's draws from rng and returns ((ok, violation), details).


def _form_j(rho, basis):
    # J at basis's axis, read on rho's Bloch form as the suites read it; it
    # lies within 4e-15 of the density-matrix J.
    forms = correlations.bloch_forms(rho.entries[None])
    j = correlations._fixed_terms(forms, basis.axis[None])[2][0, 0]
    j = float(correlations._nonnegative(j, correlations._NEGATIVE_J_TOL, "classical correlation"))
    assert abs(j - classical_correlation(rho, basis)) <= 4e-15
    return j


def _theorem1_reference(rng):
    rho = random_density_matrix(rng, 4)
    basis = random_basis(rng)
    lifted = [np.kron(np.eye(2, dtype=complex), proj) for proj in basis.projectors]
    j_ref = _form_j(rho, basis)
    blocks_ref = [p_i @ rho.entries @ p_i for p_i in lifted]
    violation = 0.0
    for q in verify.THEOREM1_STRENGTHS:
        evolved = apply_to_apparatus(pointer_decoherence(basis, q), rho)
        violation = max(violation, abs(_form_j(evolved, basis) - j_ref))
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
    j_pointer = _form_j(rho, basis)
    margins = []
    for _ in range(verify.LEMMA1_PERTURBATIONS):
        tilted = _perturbed_basis(rng, basis)
        margin = j_pointer - _form_j(rho, tilted)
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
    increase = 0.0
    for before, after in zip(report.records, report.records[1:]):
        increase = max(increase, after.j_max - before.j_max)
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


def _records_hex(records, transition_p):
    # A trajectory's records as float.hex strings, so -0.0 and 0.0 differ.
    fields = [f.name for f in dataclasses.fields(CorrelationRecord)]
    return [None if transition_p is None else transition_p.hex()] + [
        [float(getattr(r, name)).hex() for name in fields] for r in records
    ]


def _arrays_hex(ps, arrays, transition_p):
    # A trajectory that _sweeps yields, laid out as _records_hex lays out its records.
    j_max, axes, mutual, j, discord = arrays
    theta, phi = zip(*correlations._angles(axes))
    columns = (ps, j[:, 0], j[:, 1], j_max, theta, phi, mutual, discord)
    return [None if transition_p is None else transition_p.hex()] + [
        [float(value).hex() for value in point] for point in zip(*columns)
    ]


def _lemma1_measured_rows(chunk):
    # Per trial: j_max, the stored argmax angles and the J row of _lemma1_measure's arrays.
    j_max, axes, _, j = verify._lemma1_measure(chunk)
    return zip(j_max.tolist(), correlations._angles(axes), j.tolist())


REFERENCES = {
    "theorem1": _theorem1_reference,
    "theorem2": _theorem2_reference,
    "lemma1": _lemma1_reference,
}


@pytest.mark.parametrize("trials", [1, 7, 130])
@pytest.mark.parametrize("seed", [3, 5, 42])
@pytest.mark.parametrize("suite", sorted(REFERENCES))
def test_stacked_suites_equal_the_per_trial_reference(suite, seed, trials, monkeypatch):
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
            (j_max, ProjectiveBasis(*angles), [j[0] - other for other in j[1:]])
            for j_max, angles, j in verify._trials(
                trials, seed, verify._lemma1_draw, _lemma1_measured_rows
            )
        ]
        assert measured == [details for _, details in expected]
    if suite == "theorem2":
        # every theorem2 violation is 0.0 too: compare the arrays the judge
        # reads with the per-trial sweeps' records, bit for bit
        judged = []
        sweeps = verify._sweeps

        def recorded(*args):
            for arrays, transition_p in sweeps(*args):
                judged.append(_arrays_hex(verify._THEOREM2_GRID, arrays, transition_p))
                yield arrays, transition_p

        monkeypatch.setattr(verify, "_sweeps", recorded)
        assert list(verify._trials(trials, seed, draw, judge)) == results
        assert judged == [_records_hex(*details) for _, details in expected]


@pytest.mark.parametrize("seed", [3, 11])
def test_tilts_from_one_frame_equal_the_one_at_a_time_draws(seed):
    # Pointer axes near and away from the poles, the exact Pauli axes among
    # them, take both branches of the frame's helper axis; theta = pi is the
    # south pole.
    rng = np.random.default_rng(seed)
    bases = [random_basis(rng) for _ in range(40)]
    bases += [ProjectiveBasis.sigma_z(), ProjectiveBasis.sigma_x(), ProjectiveBasis(math.pi, 0.0)]
    old, new = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    expected = [
        _perturbed_basis(old, basis) for basis in bases for _ in range(verify.LEMMA1_PERTURBATIONS)
    ]
    # Each pointer basis's tilt uniforms, read as _lemma1_draw reads them.
    tilts = np.array(
        [
            new.uniform(
                (verify.LEMMA1_MIN_TILT, 0.0),
                (math.pi / 2.0, 2.0 * math.pi),
                (verify.LEMMA1_PERTURBATIONS, 2),
            )
            for _ in bases
        ]
    )
    theta, phi = verify._tilt_angles(np.array([basis.axis for basis in bases]), tilts)
    assert theta.shape == phi.shape == (len(bases), verify.LEMMA1_PERTURBATIONS)
    pairs = list(zip(theta.ravel().tolist(), phi.ravel().tolist()))
    assert pairs == [(basis.theta, basis.phi) for basis in expected]
    kets = verify._kets(theta.ravel(), phi.ravel())
    assert kets.tobytes() == np.array([basis.kets() for basis in expected]).tobytes()
    assert new.uniform() == old.uniform()


# A pair that check_states accepts, whose eigenvalue -5e-11 (within
# PSD_FLOOR) lies on |11>, where sigma_z's outcome 1 has probability 1e-9:
# that outcome's conditional state has eigenvalue -5e-11 / 1e-9 = -0.05.
_REFUSED_PAIR = np.diag([0.6, 1e-9 + 5e-11, 0.4 - 1e-9, -5e-11]).astype(complex)
_REFUSAL = "not positive semidefinite: smallest eigenvalue -5.000e-02 below -1e-10"


def test_a_conditional_state_below_the_floor_is_refused_by_every_form_read(monkeypatch):
    # The Bloch-length test refuses the conditional state as check_states
    # refused it when records and suites built it as a density matrix.
    stack = np.repeat(_REFUSED_PAIR[None], 2, axis=0)
    qstate.check_states(stack)
    qstate.certify_states(stack)
    half = np.eye(2, dtype=complex) / 2.0
    sigma_z = [1.0, 0.0]  # the uniforms of the sigma_z basis (_basis_angles)
    monkeypatch.setattr(verify, "_states", lambda gaussians: stack[: len(gaussians)])
    monkeypatch.setattr(verify, "_cq_states", lambda kets, branches, weights: stack[: len(kets)])
    refusing = [
        lambda: correlations.correlation_records(stack, [0.0, 0.5]),
        lambda: verify._theorem1_judge([(None, sigma_z)] * 2),
        lambda: verify._lemma1_measure([(sigma_z, np.array([half, half]), 0.5, np.ones((20, 2)))]),
    ]
    for call in refusing:
        with pytest.raises(InvalidStateError) as refused:
            call()
        assert str(refused.value) == _REFUSAL


def test_records_and_suites_build_no_reduced_or_conditional_state(tmp_path, monkeypatch):
    # sweep, analyze (its point estimate and its bands) and the theorem1 and
    # lemma1 judges read every fixed-basis value from the Bloch form. Only
    # the crossing reads of _transitions (classical_correlations) still build
    # density matrices; STATE_1's sweep has one crossing.
    crossing = []
    read = dynamics.classical_correlations

    def crossing_read(*args):
        crossing.append(True)
        try:
            return read(*args)
        finally:
            crossing.pop()

    def refused(name):
        original = getattr(correlations, name)

        def stand_in(*args):
            if not crossing:
                raise AssertionError(f"{name} called")
            return original(*args)

        return stand_in

    monkeypatch.setattr(dynamics, "classical_correlations", crossing_read)
    for name in ("_local_terms", "_conditional_states"):
        monkeypatch.setattr(correlations, name, refused(name))
    assert sweep(make_x_state(STATE_1), "pd").transition_p is not None
    sweep(random_density_matrix(np.random.default_rng(4)), "ad", np.linspace(0.0, 1.0, 21))
    path = tmp_path / "state.mat"
    write_matrix_file(path, make_x_state(STATE_1), std=np.full((4, 4), 0.01))
    parsed = parse_matrix_file(path)
    for samples in (0, 4):
        montecarlo._analysis(
            parsed, "ad", np.linspace(0.0, 1.0, 11), gamma=1.0, samples=samples, seed=2,
            pointer_basis=None,
        )
    assert verify_theorem1(trials=70).passed
    assert verify_lemma1(trials=3).passed
    with pytest.raises(AssertionError, match="_local_terms called"):
        classical_correlation(make_x_state(STATE_1), ProjectiveBasis.sigma_z())
