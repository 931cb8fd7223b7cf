import dataclasses
import math

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
    remark_state,
    random_x_state_params,
    sweep,
)
from einselect.channels import evolve, kraus_stack
from einselect.correlations import classical_correlations
from einselect import dynamics
from einselect.dynamics import BASIS_FLOOR, JUMP_THRESHOLD, _sweeps, max_increase
from einselect.verify import random_density_matrix

TAU_E_STATE_1 = math.log(5.0 / 3.0)  # ln |(z+w)/(c-b)| = ln(0.5/0.3)


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


def test_max_increase():
    rising = [record(0.0, 0.1), record(0.5, 0.4), record(1.0, 0.2)]
    assert max_increase(rising) == pytest.approx(0.3, abs=1e-15)
    falling = [record(0.0, 0.4), record(1.0, 0.2)]
    assert max_increase(falling) == 0.0


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
    # detect_transition as it ran on one-state channels: each step built the
    # channel and a DensityMatrix, then made two classical_correlation calls.
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
    assert detect_transition(rho, family, records, pointer_basis=pointer) == expected


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
    stacked = list(_sweeps(entries, family, grid, pointer_basis=pointer))
    assert len(stacked) == len(states)
    for rho, (records, transition_p) in zip(states, stacked):
        report = sweep(rho, family, grid, pointer_basis=pointer)
        assert _hex(records, transition_p) == _hex(report.records, report.transition_p)
        assert transition_p == _bisection_reference(rho, family, records, pointer)
    # A generator of the same entries is read a chunk at a time to the same sweeps.
    streamed = list(_sweeps((rho.entries for rho in states), family, grid, pointer_basis=pointer))
    assert [_hex(*t) for t in streamed] == [_hex(*t) for t in stacked]


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
    with pytest.raises(InvalidInputError, match=message):
        next(_sweeps(_unread(), family, grid, pointer_basis=None))


def test_lockstep_brackets_close_on_their_own(monkeypatch):
    # On the grid of squares the brackets differ in width, so they need
    # different numbers of halvings: the stacked crossing calls shrink as
    # brackets close, and each transition is still its one-state bisection.
    states = _mixed_states()
    sizes = []

    def counted(evolved, kets):
        sizes.append(len(evolved))
        return classical_correlations(evolved, kets)

    monkeypatch.setattr(dynamics, "classical_correlations", counted)
    entries = np.array([rho.entries for rho in states])
    stacked = list(_sweeps(entries, "pd", GRIDS["squares"], pointer_basis=None))
    monkeypatch.undo()
    brackets = sum(transition_p is not None for _, transition_p in stacked)
    assert 2 < brackets < len(states)
    assert sizes[0] == 2 * brackets
    steps = sizes[1:]
    assert steps == sorted(steps, reverse=True) and len(set(steps)) > 1
    for rho, (records, transition_p) in zip(states, stacked):
        assert transition_p == _bisection_reference(rho, "pd", records)
