"""Tests of the benchmark's oracle, input generator and output checks.

    python3 -m pytest einbench/test_oracle.py -q

They need numpy only, not einselect.
"""

import math

import numpy as np
import pytest

import checks
import inputs
import oracle

STATE_1 = (0.4, 0.1, 0.1, 0.4)
REMARK = (0.25, 0.25, 0.25, 0.25)
PLATEAU_1 = 0.2780719051126377


def test_state_1_hand_values():
    assert oracle.x_state_point(*STATE_1, 0.0)["j_max"] == pytest.approx(1.0, abs=1e-15)
    regime, p_star = oracle.x_state_transition(*STATE_1)
    assert regime == "decay-then-constant"
    assert p_star == pytest.approx(0.4, abs=1e-15)
    for p in (0.4, 0.7, 1.0):
        assert oracle.x_state_point(*STATE_1, p)["j_max"] == pytest.approx(PLATEAU_1, abs=1e-15)
    assert PLATEAU_1 == pytest.approx(1.0 - oracle.binary_entropy(0.8), abs=1e-16)


def test_remark_state_hand_values():
    point = oracle.x_state_point(*REMARK, 0.5)
    assert point["j_max"] == pytest.approx(1.0 - oracle.binary_entropy(0.75), abs=1e-15)
    assert point["j_z"] == 0.0
    assert oracle.x_state_transition(*REMARK) == ("monotonic-decay", None)


@pytest.mark.parametrize("params", [STATE_1, (0.4, 0.1, -0.1, 0.3), (0.3, 0.2, 0.05, 0.25), REMARK])
def test_closed_form_matches_brute_force(params):
    rho = oracle.x_matrix(*params)
    for p in (0.0, 0.3, 0.8):
        evolved = oracle.dephase(rho, p)
        point = oracle.x_state_point(*params, p)
        best, axis = oracle.brute_force_jmax(evolved)
        assert best == pytest.approx(point["j_max"], abs=1e-12)
        if point["gap"] > 1e-3:
            assert oracle.axis_angle(axis, point["axis"]) < 1e-6
        fixed = oracle.correlation_along(evolved, [oracle.AXES[2], oracle.AXES[0]])
        assert fixed == pytest.approx([point["j_z"], point["j_x"]], abs=1e-12)
        assert oracle.mutual_information(evolved) == pytest.approx(point["mutual_info"], abs=1e-12)


def test_bell_and_product_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    assert oracle.correlation_along(bell, [0.0, 0.0, 1.0])[0] == pytest.approx(1.0, abs=1e-15)
    product = np.kron(np.diag([0.7, 0.3]), np.diag([1.0, 0.0])).astype(complex)
    assert oracle.brute_force_jmax(product)[0] == pytest.approx(0.0, abs=1e-15)
    assert oracle.brute_force_jmax(oracle.amplitude_damp(bell, 1.0))[0] == pytest.approx(0.0, abs=1e-15)


def test_projection_of_a_physical_state_is_the_identity():
    rho = oracle.x_matrix(*STATE_1)
    state, dev = oracle.project_physical(rho)
    assert np.max(np.abs(state - rho)) < 1e-15
    assert dev["hermiticity"] == 0.0 and dev["projection_distance"] < 1e-15


def test_inputs_are_seeded_and_keep_both_signs():
    assert inputs.x_states(5) == inputs.x_states(5)
    assert inputs.x_states(5) != inputs.x_states(6)
    signs = {name: np.sign(z * w) for name, (_, _, z, w) in inputs.x_states(5)}
    assert signs["drawn_zw_pos"] == 1.0 and signs["drawn_zw_neg"] == -1.0
    raw, std = inputs.tomography_matrix(5)
    assert np.array_equal(raw, inputs.tomography_matrix(5)[0])
    _, dev = oracle.project_physical(raw)
    assert dev["min_eigenvalue"] < 0.0 < dev["hermiticity"]
    assert dev["projection_distance"] < 0.05
    assert np.max(np.abs(raw[[0, 0, 1, 1], [1, 2, 0, 3]])) > 1e-3  # not an X state
    assert std.shape == (4, 4) and np.all(std > 0.0)


def oracle_sweep_payload(params):
    """A sweep JSON payload built from the closed forms alone."""
    c, b, z, w = params
    angles = {0: (math.pi / 2, 0.0), 1: (math.pi / 2, math.pi / 2), 2: (0.0, 0.0)}
    records = []
    for p in np.linspace(0.0, 1.0, 201):
        point = oracle.x_state_point(c, b, z, w, float(p))
        theta, phi = angles[int(np.argmax(point["axis"]))]
        records.append({
            "p": float(p), "j_z": point["j_z"], "j_x": point["j_x"], "j_max": point["j_max"],
            "opt_theta": theta, "opt_phi": phi,
            "mutual_info": point["mutual_info"], "discord": point["discord"],
        })
    regime, p_star = oracle.x_state_transition(c, b, z, w)
    return {
        "regime": regime,
        "transition_p": p_star,
        "emergence_time": None if p_star is None else -math.log1p(-p_star),
        "p_e": p_star,
        "tau_d": 1.0,
        "gamma": 1.0,
        "records": records,
    }


@pytest.mark.parametrize("params", [STATE_1, REMARK, (0.4, 0.1, 0.1, 0.15), (0.4, 0.1, -0.1, 0.3)])
def test_a_correct_sweep_passes(params):
    assert checks.check_sweep(oracle_sweep_payload(params), params) == []


def _corrupt(payload, where, key, value):
    target = payload["records"][where] if where is not None else payload
    target[key] = value(target[key])
    return payload


@pytest.mark.parametrize(
    "where,key,value",
    [
        (120, "j_max", lambda v: v + 1e-6),
        (0, "j_z", lambda v: v - 1e-6),
        (200, "mutual_info", lambda v: v * 1.001),
        (30, "discord", lambda v: v + 1e-7),
        (30, "opt_theta", lambda v: v + 0.01),
        (None, "transition_p", lambda v: v + 1e-6),
        (None, "regime", lambda v: "sudden-change-no-plateau"),
        (None, "emergence_time", lambda v: None),
        (None, "records", lambda v: v[:-1]),
    ],
)
def test_a_corrupted_sweep_record_is_caught(where, key, value):
    payload = _corrupt(oracle_sweep_payload(STATE_1), where, key, value)
    assert checks.check_sweep(payload, STATE_1)


def test_suite_checks():
    good = {"theorem_id": "theorem1", "trials": 800, "failures": 0,
            "worst_violation": 1.4e-15, "seed": 42, "passed": True}
    assert checks.check_suite(good, "theorem1", 800) == []
    assert checks.check_suite({**good, "failures": 1, "passed": False}, "theorem1", 800)
    assert checks.check_suite({**good, "worst_violation": 1e-9}, "theorem1", 800)
    assert checks.check_suite({**good, "trials": 799}, "theorem1", 800)


def synthetic_bands(channel):
    p = np.linspace(0.0, 1.0, 41)
    j_max = 0.6 * (1.0 - p) ** 2 + 0.1 * (channel == "pd")
    means = {"j_z": np.full(41, 0.1) if channel == "pd" else 0.1 * (1.0 - p) ** 2,
             "j_x": 0.5 * j_max, "j_max": j_max, "discord": 0.2 * (1.0 - p)}
    stds = {k: np.full(41, 0.01) if channel == "pd" else 0.01 * (1.0 - p) for k in means}
    return {"samples": 4, "seed": 9, "transition_mean": None, "transition_std": None,
            "transition_count": 0, "p": p.tolist(),
            "means": {k: v.tolist() for k, v in means.items()},
            "stds": {k: v.tolist() for k, v in stds.items()}}


@pytest.mark.parametrize(
    "channel,quantity,index,delta",
    [
        ("pd", "j_max", 20, 0.05),      # j_max mean rises along p
        ("pd", "j_z", 5, 1e-6),         # pointer correlation moves under dephasing
        ("ad", "j_max", 40, 1e-6),      # correlation left at p = 1 under damping
        ("ad", "discord", 3, -1.0),     # negative discord mean
        ("pd", "j_x", 10, 1.0),         # j_x mean above j_max mean
    ],
)
def test_broken_bands_are_caught(channel, quantity, index, delta):
    bands = synthetic_bands(channel)
    assert checks._band_problems(bands, channel, 41, 4, 9) == []
    bands["means"][quantity][index] += delta
    assert checks._band_problems(bands, channel, 41, 4, 9)
