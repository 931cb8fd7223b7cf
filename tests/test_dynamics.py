import dataclasses
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from einselect import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    REGIME_MONOTONIC_DECAY,
    REGIME_SUDDEN_CHANGE,
    STATE_1,
    STATE_2,
    CorrelationRecord,
    DensityMatrix,
    InvalidInputError,
    InvalidStateError,
    ProjectiveBasis,
    TrajectoryReport,
    XStateParams,
    amplitude_damping,
    apply_to_apparatus,
    basis_distance,
    classical_correlation,
    classify_regime,
    detect_transition,
    emergence_time,
    make_x_state,
    phase_damping,
    pointer_decoherence,
    project_to_physical,
    remark_state,
    random_x_state_params,
    sweep,
    x_state_params,
)
from einselect.channels import evolve, kraus_stack
from einselect.correlations import _angles, _kets, classical_correlations
from einselect import dynamics
from einselect.dynamics import BASIS_FLOOR, JUMP_THRESHOLD, _crossings, _rise, _sweep_plan, _sweeps
from einselect.verify import random_density_matrix

TAU_E_STATE_1 = math.log(5.0 / 3.0)  # ln |(z+w)/(c-b)| = ln(0.5/0.3)

# Every sudden-change bracket closes to this width in p.
BRACKET_WIDTH = 1e-12


def record(p, j_max, theta=0.0):
    return CorrelationRecord(
        p=p, j_z=0.0, j_x=0.0, j_max=j_max, opt_theta=theta, opt_phi=0.0,
        mutual_info=2.0, discord=2.0 - j_max,
    )


def test_sweep_validates_inputs(state1):
    with pytest.raises(InvalidInputError, match="grid"):
        sweep(state1, "pd", [0.0, 0.5, 0.4])
    with pytest.raises(InvalidInputError, match="grid"):
        sweep(state1, "pd", [0.2, 1.2])
    with pytest.raises(InvalidInputError, match="grid"):
        sweep(state1, "pd", [])
    with pytest.raises(InvalidInputError, match="grid"):
        sweep(state1, "pd", [0.0, math.nan, 1.0])
    with pytest.raises(InvalidInputError, match="gamma"):
        sweep(state1, "pd", [0.0, 1.0], gamma=0.0)
    with pytest.raises(InvalidInputError, match="finite"):
        sweep(state1, "pd", [0.0, 1.0], gamma=math.inf)
    with pytest.raises(InvalidInputError, match="channel"):
        sweep(state1, "depolarizing", [0.0, 1.0])


def test_dephasing_sweep_of_strongly_coherent_state(state1):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 21))
    assert report.transition_p == pytest.approx(0.4, abs=1e-9)
    assert report.regime == REGIME_DECAY_THEN_CONSTANT
    assert report.emergence_time == pytest.approx(TAU_E_STATE_1, abs=1e-12)
    assert report.p_e == pytest.approx(0.4, abs=1e-12)
    assert report.tau_d == 1.0


def test_sweep_gamma_rescales_times_not_strengths(state1):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 11), gamma=2.0)
    assert report.emergence_time == pytest.approx(TAU_E_STATE_1 / 2.0, abs=1e-12)
    assert report.tau_d == 0.5
    # the strength at emergence depends only on the state, not the clock
    assert report.p_e == pytest.approx(0.4, abs=1e-12)


def test_dephasing_sweep_of_weakly_coherent_state(state2):
    report = sweep(state2, "pd", np.linspace(0.0, 1.0, 11))
    assert report.transition_p is None
    assert report.regime == REGIME_CONSTANT
    # pointer correlation dominates from the start, so no finite emergence
    assert report.emergence_time is None
    values = [r.j_max for r in report.records]
    assert max(values) - min(values) < 1e-6


def test_damping_sweep_of_strongly_coherent_state(state1):
    report = sweep(state1, "ad", np.linspace(0.0, 1.0, 11))
    assert report.transition_p is None
    assert report.regime == REGIME_MONOTONIC_DECAY
    assert report.emergence_time is None


def test_damping_sweep_of_weakly_coherent_state(state2):
    report = sweep(state2, "ad", np.linspace(0.0, 1.0, 41))
    assert report.transition_p is not None
    assert 0.45 < report.transition_p < 0.55
    assert report.regime == REGIME_SUDDEN_CHANGE


def test_pointer_family_on_sigma_z_matches_dephasing(state1):
    grid = np.linspace(0.0, 1.0, 11)
    via_pointer = sweep(state1, "pointer", grid)
    via_pd = sweep(state1, "pd", grid)
    assert via_pointer.transition_p == pytest.approx(via_pd.transition_p, abs=1e-9)
    assert via_pointer.regime == via_pd.regime
    assert via_pointer.emergence_time == pytest.approx(TAU_E_STATE_1, abs=1e-12)
    for a, b in zip(via_pointer.records, via_pd.records):
        assert a.j_max == pytest.approx(b.j_max, abs=1e-12)


def test_pointer_family_off_axis_has_no_closed_form(state1):
    report = sweep(
        state1,
        "pointer",
        np.linspace(0.0, 1.0, 11),
        pointer_basis=ProjectiveBasis.sigma_x(),
    )
    assert report.emergence_time is None


def test_remark_state_sweep_decays_asymptotically():
    report = sweep(remark_state(), "pd", np.linspace(0.0, 1.0, 21))
    assert report.transition_p is None
    assert report.regime == REGIME_MONOTONIC_DECAY
    # c = b here, so the closed-form emergence time diverges
    assert report.emergence_time is None
    assert all(r.j_z < 1e-12 for r in report.records)


def test_emergence_time_reference_state():
    result = emergence_time(STATE_1)
    assert result.tau_e == pytest.approx(TAU_E_STATE_1, abs=1e-15)
    assert result.p_e == pytest.approx(0.4, abs=1e-15)


def test_emergence_time_accepts_decay_rate():
    result = emergence_time(STATE_1, 4.0)
    assert result.tau_e == pytest.approx(TAU_E_STATE_1 / 4.0, abs=1e-15)
    assert result.p_e == pytest.approx(0.4, abs=1e-15)


def test_emergence_time_rejects_bad_gamma():
    # 1e-320 is positive and finite, but its decoherence time 1/gamma is not
    for gamma in (0.0, -1.0, math.inf, math.nan, 1e-320):
        with pytest.raises(InvalidInputError, match="gamma"):
            emergence_time(STATE_1, gamma)


def test_a_bool_gamma_is_refused(state1):
    records = (record(0.0, 0.5),)
    for gamma in (True, False):
        message = f"^gamma must be positive and finite, with finite 1/gamma; got {gamma}$"
        for call in (
            lambda: dynamics.check_gamma(gamma),
            lambda: emergence_time(STATE_1, gamma),
            lambda: sweep(state1, "pd", [0.0, 1.0], gamma=gamma),
            lambda: TrajectoryReport(records, None, None, gamma=gamma),
        ):
            with pytest.raises(InvalidInputError, match=message):
                call()


def test_emergence_time_none_when_pointer_dominates():
    assert emergence_time(XStateParams(c=0.4, b=0.1, z=0.0, w=0.1)) is None
    assert emergence_time(STATE_2) is None


def test_emergence_time_with_opposite_sign_coherences():
    # sigma_y carries |z - w| = 0.4 > |z + w| = 0.2, against |c - b| = 0.3
    result = emergence_time(XStateParams(c=0.4, b=0.1, z=-0.1, w=0.3))
    assert result.p_e == pytest.approx(0.25, abs=1e-15)
    assert result.tau_e == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)


def test_emergence_time_matches_the_sweep_for_both_coherence_signs():
    # Draw as the theorem2 suite does: random X states with J_z > 1e-3,
    # four with z w < 0 and four with z w >= 0.
    rng = np.random.default_rng(0)
    drawn = {True: [], False: []}
    while min(len(states) for states in drawn.values()) < 4:
        params = random_x_state_params(rng)
        rho = make_x_state(params)
        if classical_correlation(rho, ProjectiveBasis.sigma_z()) <= 1e-3:
            continue
        states = drawn[params.z * params.w < 0.0]
        if len(states) < 4:
            states.append((params, rho))
    grid = np.linspace(0.0, 1.0, 41)
    for opposite, states in drawn.items():
        transitions = 0
        for params, rho in states:
            report = sweep(rho, "pd", grid)
            closed = emergence_time(params)
            assert (closed is None) == (report.transition_p is None), params
            assert (report.emergence_time is None) == (closed is None), params
            if closed is not None:
                transitions += 1
                assert closed.p_e == pytest.approx(report.transition_p, abs=1e-9)
        assert transitions > 0, f"no transition drawn for z w < 0 = {opposite}"


def test_sweep_and_emergence_time_give_the_same_p_e_bits():
    # Both read p_E off the clock at tau_E. Taken as 1 - |c - b| / (|z| + |w|)
    # instead, 35 of these 150 finite values would differ in the last digit;
    # the clock stays within 1e-15 of that closed form.
    rng = np.random.default_rng(0)
    finite = 0
    for gamma in (1.0, 2.0, 0.7):
        for params in (random_x_state_params(rng) for _ in range(100)):
            closed = emergence_time(params, gamma)
            report = sweep(make_x_state(params), "pd", [0.0, 1.0], gamma=gamma)
            if closed is None:
                assert report.p_e is None
                continue
            finite += 1
            assert report.p_e.hex() == closed.p_e.hex()
            gap = abs(params.c - params.b)
            assert abs(closed.p_e - (1.0 - gap / (abs(params.z) + abs(params.w)))) <= 1e-15
    assert finite == 150


def test_emergence_time_diverges_for_balanced_populations():
    with pytest.raises(InvalidStateError, match="diverges"):
        emergence_time(XStateParams(c=0.25, b=0.25, z=0.1, w=0.1))


def test_classify_regime_mapping():
    flat = [record(0.0, 0.5), record(0.5, 0.5), record(1.0, 0.5)]
    assert classify_regime(flat, None) == REGIME_CONSTANT
    decay = [record(0.0, 0.9), record(0.5, 0.5), record(1.0, 0.2)]
    assert classify_regime(decay, None) == REGIME_MONOTONIC_DECAY
    plateau = [record(0.0, 0.9), record(0.5, 0.3), record(1.0, 0.3)]
    assert classify_regime(plateau, 0.5) == REGIME_DECAY_THEN_CONSTANT
    no_plateau = [record(0.0, 0.9), record(0.5, 0.3), record(1.0, 0.1)]
    assert classify_regime(no_plateau, 0.5) == REGIME_SUDDEN_CHANGE
    with pytest.raises(InvalidInputError):
        classify_regime([], None)


def test_detect_transition_requires_a_real_jump(state1):
    same_basis = [record(0.0, 0.9), record(0.5, 0.7, theta=0.01), record(1.0, 0.5)]
    assert detect_transition(state1, "pd", same_basis) is None
    # wildly different angles carry no information below the basis floor
    noise = [record(0.0, 1e-12), record(1.0, 1e-12, theta=1.5)]
    assert detect_transition(state1, "pd", noise) is None
    # one record, or none, has no pair that could jump; nor has a one-point sweep
    assert detect_transition(state1, "pd", noise[:1]) is None
    assert detect_transition(state1, "pd", []) is None
    assert sweep(state1, "pd", [0.5]).transition_p is None


@pytest.mark.parametrize("family, points", [("pd", 8), ("ad", 11)])
def test_detect_transition_refuses_records_whose_p_is_no_grid(family, points):
    # Records in reverse order, with a repeated p, with a NaN p outside the
    # jump's bracket or with a p above 1 are refused as a sweep refuses such
    # a grid, not read as a transition.
    if family == "pd":
        rho = make_x_state(STATE_1)
    else:
        rho = random_density_matrix(np.random.default_rng(0))
    records = sweep(rho, family, np.linspace(0.0, 1.0, points)).records
    assert detect_transition(rho, family, records) is not None
    nan = dataclasses.replace(records[0], p=math.nan)
    above = dataclasses.replace(records[-1], p=1.5)
    refused = [
        (records[::-1], "^grid must be strictly increasing$"),
        (records[:4] + records[3:], "^grid must be strictly increasing$"),
        ((nan,) + records[1:], "^grid points must be finite numbers$"),
        (records[:-1] + (above,), r"^grid must lie within \[0, 1\]$"),
    ]
    for bad, text in refused:
        with pytest.raises(InvalidInputError, match=text):
            detect_transition(rho, family, bad)
        # The channel family is still checked first.
        with pytest.raises(InvalidInputError, match="^unknown channel family"):
            detect_transition(rho, "depolarizing", bad)
    assert detect_transition(rho, family, []) is None


def _jump_reference(records):
    # the scan as it ran pair by pair, building both records' bases each time
    for before, after in zip(records, records[1:]):
        if before.j_max <= BASIS_FLOOR or after.j_max <= BASIS_FLOOR:
            continue
        b0 = ProjectiveBasis(before.opt_theta, before.opt_phi)
        b1 = ProjectiveBasis(after.opt_theta, after.opt_phi)
        if basis_distance(b0, b1) > JUMP_THRESHOLD:
            return before.p, after.p, np.array([b1.kets(), b0.kets()])
    return None


def _jump_hex(jump):
    if jump is None:
        return None
    lo, hi, kets = jump
    return lo.hex(), hi.hex(), [x.hex() for x in kets.view(float).ravel().tolist()]


def test_jump_matches_the_pairwise_scan_and_sweeps_build_two_bases_per_jump(state1, monkeypatch):
    swept = sweep(state1, "pd", np.linspace(0.0, 1.0, 21)).records
    gap = record(0.5, BASIS_FLOOR, theta=0.7)
    trajectories = [
        swept,
        # a floored record between two far-apart bases hides that jump
        (record(0.0, 0.9), record(0.25, 0.8, theta=0.05), gap,
         record(0.75, 0.7, theta=1.5), record(1.0, 0.7, theta=1.5)),
        # the first jump after the gap is found
        (record(0.0, 0.9), gap, record(0.75, 0.7, theta=1.5), record(1.0, 0.7, theta=0.2)),
        swept[:10] + (dataclasses.replace(swept[10], j_max=0.0),) + swept[11:],
    ]
    # Each bracket the vector scan hands to the root search, with the kets
    # its first crossing call reads: (lo, hi, kets) as the pairwise scan gives them.
    brackets = []

    def bracketed(f, lo, hi):
        brackets.append([lo.item(), hi.item()])
        return _crossings(f, lo, hi)

    def read(evolved, kets):
        if len(brackets[-1]) == 2:
            brackets[-1].append(kets[0])
        return classical_correlations(evolved, kets)

    monkeypatch.setattr(dynamics, "_crossings", bracketed)
    monkeypatch.setattr(dynamics, "classical_correlations", read)
    found = []
    for records in trajectories:
        brackets.clear()
        detect_transition(state1, "pd", records)
        got = tuple(brackets[0]) if brackets else None
        assert _jump_hex(got) == _jump_hex(_jump_reference(records))
        found.append(got is not None)
    assert found == [True, False, True, True]
    monkeypatch.undo()

    # A three-chunk stacked sweep builds the kets of each jump's two records
    # and no others, and no ProjectiveBasis: the scan reads the maximizer's
    # axes, and the kets are the pairwise scan's, bit for bit.
    plan = _sweep_plan("pd", np.linspace(0.0, 1.0, 21), None)
    states = _mixed_states()
    built = []

    def counting_kets(theta, phi):
        built.append(_kets(theta, phi))
        return built[-1]

    def no_basis(*args):
        pytest.fail("the sweep built a ProjectiveBasis")

    monkeypatch.setattr(dynamics, "_kets", counting_kets)
    monkeypatch.setattr(dynamics, "ProjectiveBasis", no_basis)
    monkeypatch.setattr(dynamics, "_SWEEP_STATES", 5 * 21)
    jumps = sum(t is not None for _, t in _sweeps(np.array([rho.entries for rho in states]), *plan))
    monkeypatch.undo()
    expected = [_jump_reference(sweep(rho, "pd", plan[0]).records) for rho in states]
    expected = [jump[2] for jump in expected if jump is not None]
    assert 0 < len(expected) == jumps
    assert np.concatenate(built).tobytes() == np.concatenate(expected).tobytes()


def test_max_increase():
    rising = np.array([0.1, 0.4, 0.2])
    assert _rise(rising) == pytest.approx(0.3, abs=1e-15)
    falling = np.array([0.4, 0.2])
    assert _rise(falling) == 0.0


def test_trajectory_report_validation():
    records = (record(0.5, 0.5), record(0.0, 0.5))
    with pytest.raises(InvalidInputError, match="sorted"):
        TrajectoryReport(records=records, transition_p=None, emergence_time=None)
    with pytest.raises(InvalidInputError, match="record"):
        TrajectoryReport(records=(), transition_p=None, emergence_time=None)
    with pytest.raises(InvalidInputError, match="gamma"):
        TrajectoryReport(
            records=(record(0.0, 0.5),), transition_p=None, emergence_time=None,
            gamma=0.0,
        )
    # the regime is derived from the records and the transition, never stored
    plateau = (record(0.0, 0.9), record(0.5, 0.3), record(1.0, 0.3))
    with_jump = TrajectoryReport(records=plateau, transition_p=0.5, emergence_time=None)
    assert with_jump.regime == REGIME_DECAY_THEN_CONSTANT
    no_jump = TrajectoryReport(records=plateau, transition_p=None, emergence_time=None)
    assert no_jump.regime == REGIME_MONOTONIC_DECAY


def _bisection_reference(rho0, family, records, pointer_basis=None):
    # detect_transition as it ran on one-state channels, by plain bisection:
    # each step built the channel and a DensityMatrix, then made two
    # classical_correlation calls.
    make = {
        "pd": phase_damping,
        "ad": amplitude_damping,
        "pointer": lambda p: pointer_decoherence(pointer_basis, p),
    }[family]
    for before, after in zip(records, records[1:]):
        if before.j_max <= BASIS_FLOOR or after.j_max <= BASIS_FLOOR:
            continue
        b0 = ProjectiveBasis(before.opt_theta, before.opt_phi)
        b1 = ProjectiveBasis(after.opt_theta, after.opt_phi)
        if basis_distance(b0, b1) <= JUMP_THRESHOLD:
            continue

        def crossing(p):
            evolved = apply_to_apparatus(make(p), rho0)
            return classical_correlation(evolved, b1) - classical_correlation(evolved, b0)

        lo, hi = before.p, after.p
        if crossing(lo) >= 0.0:
            return float(lo)
        if crossing(hi) <= 0.0:
            return float(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            f_mid = crossing(mid)
            if f_mid < 0.0:
                lo = mid
            elif f_mid > 0.0:
                hi = mid
            else:
                return float(mid)
        return float(0.5 * (lo + hi))
    return None


def _assert_meets_the_bisection(transition_p, expected):
    # The same jump or none, and a crossing within one bracket width.
    assert (transition_p is None) == (expected is None)
    if expected is not None:
        assert abs(transition_p - expected) <= BRACKET_WIDTH


TILTED = ProjectiveBasis(0.2, 0.4)


@pytest.mark.parametrize(
    "state, family, points",
    [
        ("state1", "pd", 201),
        ("state1", "pd", 2),  # the bracket starts at p = 0
        ("state1", "pointer", 21),
        ("general", "ad", 11),  # the bracket starts at p = 0
        ("general", "ad", 41),
    ],
)
def test_transition_equals_the_one_state_bisection(state, family, points):
    rho = {
        "state1": make_x_state(STATE_1),
        "general": random_density_matrix(np.random.default_rng(0)),
    }[state]
    pointer = TILTED if family == "pointer" else None
    records = sweep(rho, family, np.linspace(0.0, 1.0, points), pointer_basis=pointer).records
    expected = _bisection_reference(rho, family, records, pointer)
    assert expected is not None
    found = detect_transition(rho, family, records, pointer_basis=pointer)
    _assert_meets_the_bisection(found, expected)


@pytest.mark.parametrize("basis", [ProjectiveBasis.sigma_z(), TILTED, None])
def test_one_call_crossing_equals_the_one_state_values(basis):
    # One evolve and one classical_correlations call per bisection step, at
    # every strength: p = 0 and p = 1 drop a zero Kraus operator.
    channel = amplitude_damping if basis is None else lambda p: pointer_decoherence(basis, p)
    rng = np.random.default_rng(4)
    pair = [ProjectiveBasis.sigma_x(), ProjectiveBasis(1.1, 5.0)]
    for rho in [make_x_state(STATE_1), random_density_matrix(rng)]:
        for p in [0.0, 1e-13, 0.3, 0.75, 1.0]:
            evolved = apply_to_apparatus(channel(p), rho)
            stacked = evolve(kraus_stack(basis, [p]), rho.entries)
            assert np.array_equal(stacked[0], evolved.entries)
            kets = np.array([b.kets() for b in pair])
            assert classical_correlations(stacked, kets)[0].tolist() == [
                classical_correlation(evolved, b) for b in pair
            ]


def _hex(records, transition_p):
    # A trajectory as float.hex strings, so -0.0 and 0.0 differ.
    fields = [f.name for f in dataclasses.fields(CorrelationRecord)]
    return [None if transition_p is None else transition_p.hex()] + [
        [float(getattr(r, name)).hex() for name in fields] for r in records
    ]


def _arrays_hex(ps, arrays, transition_p):
    # A trajectory that _sweeps yields, laid out as _hex lays out its records.
    j_max, axes, mutual, j, discord = arrays
    theta, phi = zip(*_angles(axes))
    columns = (ps, j[:, 0], j[:, 1], j_max, theta, phi, mutual, discord)
    return [None if transition_p is None else transition_p.hex()] + [
        [float(value).hex() for value in point] for point in zip(*columns)
    ]


def _mixed_states():
    # Reference X states with and without a transition, general states, and
    # X states drawn as theorem2 draws them.
    rng = np.random.default_rng(8)
    states = [make_x_state(STATE_1), make_x_state(STATE_2), remark_state()]
    states += [random_density_matrix(rng) for _ in range(5)]
    states += [make_x_state(random_x_state_params(rng)) for _ in range(6)]
    return states


GRIDS = {
    "two": np.array([0.0, 1.0]),  # STATE_1's bracket starts at p = 0
    "eleven": np.linspace(0.0, 1.0, 11),  # so do general states' under ad
    "squares": np.linspace(0.0, 1.0, 41) ** 2,  # brackets of different widths
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("family", ["pd", "ad", "pointer"])
def test_stacked_sweeps_equal_the_per_state_sweeps(family, grid, monkeypatch):
    pointer = TILTED if family == "pointer" else None
    states = _mixed_states()
    grid = GRIDS[grid]
    # Five trajectories per chunk, so the stack spans three chunks.
    monkeypatch.setattr(dynamics, "_SWEEP_STATES", 5 * grid.size)
    entries = np.array([rho.entries for rho in states])
    stacked = list(_sweeps(entries, *_sweep_plan(family, grid, pointer)))
    assert len(stacked) == len(states)
    for rho, (arrays, transition_p) in zip(states, stacked):
        report = sweep(rho, family, grid, pointer_basis=pointer)
        assert _arrays_hex(grid, arrays, transition_p) == _hex(report.records, report.transition_p)
        reference = _bisection_reference(rho, family, report.records, pointer)
        _assert_meets_the_bisection(transition_p, reference)
    # A generator of the same entries is read a chunk at a time to the same sweeps.
    streamed = list(_sweeps((rho.entries for rho in states), *_sweep_plan(family, grid, pointer)))
    assert [_arrays_hex(grid, *t) for t in streamed] == [_arrays_hex(grid, *t) for t in stacked]


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("family", ["pd", "ad", "pointer"])
def test_detect_transition_on_the_records_is_the_sweeps_transition(family, grid):
    # detect_transition rebuilds the axes from the records' stored angles,
    # the sweep scans the maximizer's own axes: the same transition_p.
    pointer = TILTED if family == "pointer" else None
    for rho in _mixed_states():
        report = sweep(rho, family, GRIDS[grid], pointer_basis=pointer)
        again = detect_transition(rho, family, report.records, pointer_basis=pointer)
        assert _hex((), again) == _hex((), report.transition_p)


@pytest.mark.parametrize(
    "field, value, text",
    [
        ("opt_theta", math.nan, "theta must be a finite number, got nan"),
        ("opt_phi", math.inf, "phi must be a finite number, got inf"),
        ("opt_theta", 4.0, r"theta must lie in \[0, pi\], got 4.0"),
    ],
)
def test_detect_transition_refuses_a_record_angle_that_no_basis_stores(state1, field, value, text):
    # The records' angles are checked as a ProjectiveBasis checks its own.
    records = list(sweep(state1, "pd", np.linspace(0.0, 1.0, 21)).records)
    records[9] = dataclasses.replace(records[9], **{field: value})
    with pytest.raises(InvalidInputError, match=f"^{text}$"):
        detect_transition(state1, "pd", records)


def _unread():
    pytest.fail("a state was read before the sweep's arguments were checked")
    yield


@pytest.mark.parametrize(
    "family, grid, message",
    [
        ("pd", [], "grid"),
        ("pd", [0.0, 0.5, 0.5], "grid"),
        ("ad", [0.0, math.nan], "grid"),
        ("depolarizing", [0.0, 1.0], "channel"),
    ],
    ids=["empty-grid", "repeated-point", "nan-point", "unknown-family"],
)
def test_sweeps_refuse_their_arguments_before_reading_a_state(family, grid, message):
    # _sweep_plan is the one check, so it refuses before the sweep reads a state.
    with pytest.raises(InvalidInputError, match=message):
        next(_sweeps(_unread(), *_sweep_plan(family, grid, None)))


def test_lockstep_brackets_close_on_their_own(monkeypatch):
    # On the grid of squares the brackets differ in width and shape, so they
    # need different numbers of steps: the stacked crossing calls shrink as
    # brackets close, and each transition still meets its one-state bisection.
    states = _mixed_states()
    sizes = []

    def counted(evolved, kets):
        sizes.append(len(evolved))
        return classical_correlations(evolved, kets)

    monkeypatch.setattr(dynamics, "classical_correlations", counted)
    entries = np.array([rho.entries for rho in states])
    stacked = list(_sweeps(entries, *_sweep_plan("pd", GRIDS["squares"], None)))
    monkeypatch.undo()
    brackets = sum(transition_p is not None for _, transition_p in stacked)
    assert 2 < brackets < len(states)
    assert sizes[0] == 2 * brackets
    steps = sizes[1:]
    assert steps == sorted(steps, reverse=True) and len(set(steps)) > 1
    for rho, (_, transition_p) in zip(states, stacked):
        records = sweep(rho, "pd", GRIDS["squares"]).records
        _assert_meets_the_bisection(transition_p, _bisection_reference(rho, "pd", records))


def test_x_state_transitions_meet_the_closed_form():
    # p* = 1 - |c - b| / (|z| + |w|) shares no code with the sweep. The
    # seeded X states of the mixed stack are checked where their brackets
    # are a grid step wide; STATE_1's bracket spans [0, 1] at two points.
    cases = [(rho, points) for rho in _mixed_states() for points in (21, 201)]
    cases += [(make_x_state(STATE_1), points) for points in (2, 21, 201)]
    met = 0
    for rho, points in cases:
        params = x_state_params(rho)
        if params is None or params.c == params.b:
            continue
        closed = emergence_time(params)
        transition_p = sweep(rho, "pd", np.linspace(0.0, 1.0, points)).transition_p
        assert (transition_p is None) == (closed is None)
        if closed is not None:
            assert abs(transition_p - closed.p_e) <= 1e-13
            met += 1
    assert met == 9


def test_a_three_chunk_sweep_makes_few_crossing_calls(monkeypatch):
    # A plain bisection makes 35 to 37 calls per chunk with a jump, 69 here.
    calls = []

    def counted(evolved, kets):
        calls.append(len(evolved))
        return classical_correlations(evolved, kets)

    monkeypatch.setattr(dynamics, "classical_correlations", counted)
    monkeypatch.setattr(dynamics, "_SWEEP_STATES", 5 * 201)
    entries = np.array([rho.entries for rho in _mixed_states()])
    found = [t for _, t in _sweeps(entries, *_sweep_plan("pd", np.linspace(0.0, 1.0, 201), None))]
    assert sum(t is not None for t in found) == 3
    assert len(calls) <= 15


def _solved(cases):
    # Solve the brackets of cases, (crossing, lo, hi) each, as one stack;
    # return the roots and each bracket's number of evaluations.
    evaluations = np.zeros(len(cases), dtype=int)

    def f(rows, ps):
        np.add.at(evaluations, rows, 1)
        return np.array([cases[r][0](p) for r, p in zip(rows, ps)])

    lo, hi = (np.array([case[k] for case in cases]) for k in (1, 2))
    return _crossings(f, lo, hi), evaluations


def _bisection_evaluations(lo, hi):
    # A plain bisection reads both ends, then one midpoint per halving.
    width, halvings = hi - lo, 0
    while width > BRACKET_WIDTH:
        width, halvings = width / 2.0, halvings + 1
    return 2 + halvings


R = 0.6180339887498949
SYNTHETIC = {
    "linear": (lambda p: p - 0.25, 0.0, 1.0, 0.25),
    "steep-tanh": (lambda p: math.tanh(1e3 * (p - R)), 0.0, 1.0, R),
    "ninth-power": (lambda p: (p - R) ** 9, 0.6, 0.625, R),
    "ninth-power-wide": (lambda p: (p - R) ** 9, 0.0, 1.0, R),
    "cubic": (lambda p: (p - R) ** 3 + 0.1 * (p - R), 0.0, 1.0, R),
    "triple-root": (lambda p: (p - R) ** 3, 0.6, 0.625, R),
    "tie-at-lo": (lambda p: p - 0.25, 0.25, 0.5, 0.25),
    "tie-at-hi": (lambda p: p - 0.5, 0.25, 0.5, 0.5),
    "above-at-lo": (lambda p: 1.0, 0.25, 0.5, 0.25),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_crossings_find_each_root_within_the_bisection_budget(name):
    f, lo, hi, root = SYNTHETIC[name]
    (p,), (evaluations,) = _solved([(f, lo, hi)])
    assert abs(p - root) <= BRACKET_WIDTH
    assert evaluations <= _bisection_evaluations(lo, hi) + 3
    if name == "linear":
        assert (p, evaluations) == (0.25, 3)  # the secant point is the exact zero
    if name.startswith(("tie", "above")):
        assert evaluations == 2  # the edge rule, with no iteration


def test_crossings_of_a_mixed_stack_are_each_brackets_own():
    cases = [SYNTHETIC[name][:3] for name in sorted(SYNTHETIC)]
    roots, evaluations = _solved(cases)
    for case, p, n in zip(cases, roots, evaluations):
        (alone,), (alone_n,) = _solved([case])
        assert (p.hex(), n) == (alone.hex(), alone_n)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_general_state_regime_does_not_depend_on_the_grid(monkeypatch):
    # The benchmark matrices of seeds 1, 3 and 6, projected as `analyze`
    # projects them: each regime must be the same at every grid size. Today
    # a fast but smooth turn of the argmax reads as a sudden change on the
    # coarser grids (seed 3 under ad at 11 and 21 points, for one).
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "einbench"))
    inputs = importlib.import_module("inputs")
    regimes = {}
    for seed in (1, 3, 6):
        state, _ = project_to_physical(inputs.tomography_matrix(seed)[0])
        for family in ("ad", "pd"):
            regimes[seed, family] = [
                sweep(state, family, np.linspace(0.0, 1.0, points)).regime
                for points in (11, 21, 41, 201)
            ]
    assert all(len(set(found)) == 1 for found in regimes.values()), regimes


def _haar_qubit_unitary(rng):
    """A Haar-random 2 x 2 unitary: Q of a complex Gaussian's QR, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("family", ["pd", "ad"])
def test_system_rotations_change_no_record_field(family):
    # A unitary on the system commutes with every apparatus channel and leaves
    # every apparatus measurement's J and I as they are, so each record field,
    # the regime and the transition are the unrotated sweep's. Values agree to
    # rounding; the argmax axes and transition_p to the search's precision.
    rng = np.random.default_rng(55)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(4):
        rho = random_density_matrix(rng)
        base = sweep(rho, family, grid)
        for _ in range(3):
            u = np.kron(_haar_qubit_unitary(rng), np.eye(2))
            rotated = sweep(DensityMatrix(u @ rho.entries @ u.conj().T), family, grid)
            assert rotated.regime == base.regime
            assert (rotated.transition_p is None) == (base.transition_p is None)
            if base.transition_p is not None:
                assert rotated.transition_p == pytest.approx(base.transition_p, abs=1e-7)
            for a, b in zip(base.records, rotated.records):
                for name in ("j_z", "j_x", "j_max", "mutual_info", "discord"):
                    assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12)
                if a.j_max > 1e-6:
                    turn = basis_distance(
                        ProjectiveBasis(a.opt_theta, a.opt_phi),
                        ProjectiveBasis(b.opt_theta, b.opt_phi),
                    )
                    assert turn <= 1e-6, (a.p, turn)


def _assert_same_invariants(base, rotated):
    # J_max, I and the discord, the regime and the transition of two sweeps.
    assert rotated.regime == base.regime
    assert (rotated.transition_p is None) == (base.transition_p is None)
    if base.transition_p is not None:
        assert rotated.transition_p == pytest.approx(base.transition_p, abs=1e-7)
    for a, b in zip(base.records, rotated.records):
        for name in ("j_max", "mutual_info", "discord"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12)


def test_apparatus_rotations_carry_pd_to_the_pointer_family_and_commute_with_ad():
    # With U = (|u_0> |u_1>) the apparatus unitary of the basis (theta, phi),
    # the pointer family on that basis is U pd U^dag, so it sweeps
    # (I x U) rho (I x U)^dag as pd sweeps rho; ad commutes with apparatus
    # z-rotations. J_max, I and the discord are local-unitary invariants, so
    # they agree to rounding, and transition_p to the search's precision.
    rng = np.random.default_rng(57)
    grid = np.linspace(0.0, 1.0, 21)
    states = [make_x_state(STATE_1)] + [random_density_matrix(rng) for _ in range(4)]
    for rho in states:
        base_pd, base_ad = sweep(rho, "pd", grid), sweep(rho, "ad", grid)
        for _ in range(3):
            theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi)
            basis = ProjectiveBasis(theta, phi)
            u = np.kron(np.eye(2), basis.kets().T)
            rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
            _assert_same_invariants(base_pd, sweep(rotated, "pointer", grid, pointer_basis=basis))
            r = np.kron(np.eye(2), np.diag([1.0, np.exp(1j * rng.uniform(0.0, 2 * math.pi))]))
            rotated = DensityMatrix(r @ rho.entries @ r.conj().T)
            _assert_same_invariants(base_ad, sweep(rotated, "ad", grid))


def test_maximal_correlation_and_mutual_information_never_rise_along_p():
    # Each family composes (the channel at p2 > p1 is the channel at p1 followed
    # by one of the same family), so by data processing neither J_max nor I can
    # rise along p. Checked in exact order: on these general states each step
    # falls by far more than the values' rounding.
    rng = np.random.default_rng(56)
    grid = np.linspace(0.0, 1.0, 41)
    for _ in range(6):
        rho = random_density_matrix(rng)
        pointer = ProjectiveBasis(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi))
        for family in ("pd", "ad", "pointer"):
            records = sweep(rho, family, grid, pointer_basis=pointer).records
            for name in ("j_max", "mutual_info"):
                values = [getattr(r, name) for r in records]
                assert all(b <= a for a, b in zip(values, values[1:])), (family, name)
