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
    DecayRate,
    InvalidInputError,
    InvalidStateError,
    ProjectiveBasis,
    TrajectoryReport,
    XStateParams,
    classical_correlation,
    classify_regime,
    detect_transition,
    emergence_time,
    make_x_state,
    remark_state,
    random_x_state_params,
    sweep,
)
from einselect.dynamics import max_increase

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
    with pytest.raises(InvalidInputError, match="gamma"):
        sweep(state1, "pd", [0.0, 1.0], gamma=0.0)
    with pytest.raises(InvalidInputError, match="finite"):
        sweep(state1, "pd", [0.0, 1.0], gamma=math.inf)
    with pytest.raises(InvalidInputError, match="channel"):
        sweep(state1, "depolarizing", [0.0, 1.0])


def test_dephasing_sweep_of_strongly_coherent_state(state1, fast_settings):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 21), settings=fast_settings)
    assert report.transition_p == pytest.approx(0.4, abs=1e-9)
    assert report.regime == REGIME_DECAY_THEN_CONSTANT
    assert report.emergence_time == pytest.approx(TAU_E_STATE_1, abs=1e-12)
    assert report.p_e == pytest.approx(0.4, abs=1e-12)
    assert report.tau_d == 1.0


def test_sweep_gamma_rescales_times_not_strengths(state1, fast_settings):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 11), gamma=2.0, settings=fast_settings)
    assert report.emergence_time == pytest.approx(TAU_E_STATE_1 / 2.0, abs=1e-12)
    assert report.tau_d == 0.5
    # the strength at emergence depends only on the state, not the clock
    assert report.p_e == pytest.approx(0.4, abs=1e-12)


def test_dephasing_sweep_of_weakly_coherent_state(state2, fast_settings):
    report = sweep(state2, "pd", np.linspace(0.0, 1.0, 11), settings=fast_settings)
    assert report.transition_p is None
    assert report.regime == REGIME_CONSTANT
    # pointer correlation dominates from the start, so no finite emergence
    assert report.emergence_time is None
    values = [r.j_max for r in report.records]
    assert max(values) - min(values) < 1e-6


def test_damping_sweep_of_strongly_coherent_state(state1, fast_settings):
    report = sweep(state1, "ad", np.linspace(0.0, 1.0, 11), settings=fast_settings)
    assert report.transition_p is None
    assert report.regime == REGIME_MONOTONIC_DECAY
    assert report.emergence_time is None


def test_damping_sweep_of_weakly_coherent_state(state2, fast_settings):
    report = sweep(state2, "ad", np.linspace(0.0, 1.0, 41), settings=fast_settings)
    assert report.transition_p is not None
    assert 0.45 < report.transition_p < 0.55
    assert report.regime == REGIME_SUDDEN_CHANGE


def test_pointer_family_on_sigma_z_matches_dephasing(state1, fast_settings):
    grid = np.linspace(0.0, 1.0, 11)
    via_pointer = sweep(state1, "pointer", grid, settings=fast_settings)
    via_pd = sweep(state1, "pd", grid, settings=fast_settings)
    assert via_pointer.transition_p == pytest.approx(via_pd.transition_p, abs=1e-9)
    assert via_pointer.regime == via_pd.regime
    assert via_pointer.emergence_time == pytest.approx(TAU_E_STATE_1, abs=1e-12)
    for a, b in zip(via_pointer.records, via_pd.records):
        assert a.j_max == pytest.approx(b.j_max, abs=1e-12)


def test_pointer_family_off_axis_has_no_closed_form(state1, fast_settings):
    report = sweep(
        state1,
        "pointer",
        np.linspace(0.0, 1.0, 11),
        pointer_basis=ProjectiveBasis.sigma_x(),
        settings=fast_settings,
    )
    assert report.emergence_time is None


def test_remark_state_sweep_decays_asymptotically(fast_settings):
    report = sweep(remark_state(), "pd", np.linspace(0.0, 1.0, 21), settings=fast_settings)
    assert report.transition_p is None
    assert report.regime == REGIME_MONOTONIC_DECAY
    # c = b here, so the closed-form emergence time diverges
    assert report.emergence_time is None
    assert all(r.j_z < 1e-12 for r in report.records)


def test_emergence_time_reference_state():
    result = emergence_time(STATE_1)
    assert result.tau_e == pytest.approx(TAU_E_STATE_1, abs=1e-15)
    assert result.p_e == pytest.approx(0.4, abs=1e-15)
    assert result.tau_d == 1.0
    assert result.gamma == 1.0


def test_emergence_time_accepts_decay_rate():
    result = emergence_time(STATE_1, DecayRate(4.0))
    assert result.tau_e == pytest.approx(TAU_E_STATE_1 / 4.0, abs=1e-15)
    assert result.tau_d == 0.25
    assert result.p_e == pytest.approx(0.4, abs=1e-15)


def test_emergence_time_none_when_pointer_dominates():
    assert emergence_time(XStateParams(c=0.4, b=0.1, z=0.0, w=0.1)) is None
    assert emergence_time(STATE_2) is None


def test_emergence_time_with_opposite_sign_coherences():
    # sigma_y carries |z - w| = 0.4 > |z + w| = 0.2, against |c - b| = 0.3
    result = emergence_time(XStateParams(c=0.4, b=0.1, z=-0.1, w=0.3))
    assert result.p_e == pytest.approx(0.25, abs=1e-15)
    assert result.tau_e == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)


def test_emergence_time_matches_the_sweep_for_both_coherence_signs(fast_settings):
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
            report = sweep(rho, "pd", grid, settings=fast_settings)
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
        TrajectoryReport(
            records=records, transition_p=None, regime=REGIME_CONSTANT,
            emergence_time=None, tau_d=1.0,
        )
    with pytest.raises(InvalidInputError, match="regime"):
        TrajectoryReport(
            records=(record(0.0, 0.5),), transition_p=None, regime="wiggly",
            emergence_time=None, tau_d=1.0,
        )
    with pytest.raises(InvalidInputError, match="transition"):
        TrajectoryReport(
            records=(record(0.0, 0.5),), transition_p=None,
            regime=REGIME_DECAY_THEN_CONSTANT, emergence_time=None, tau_d=1.0,
        )
    with pytest.raises(InvalidInputError, match="record"):
        TrajectoryReport(
            records=(), transition_p=None, regime=REGIME_CONSTANT,
            emergence_time=None, tau_d=1.0,
        )
