import json

import numpy as np
import pytest

from einselect import (
    STATE_1,
    InvalidInputError,
    MonteCarloBands,
    OptimizerSettings,
    RunConfig,
    make_x_state,
    monte_carlo_bands,
    parse_matrix_file,
    sweep,
    write_matrix_file,
)
from einselect.matrixio import bands_payload, json_text

FAST = OptimizerSettings(n_theta=32, n_phi=64, min_step=1e-7)


def matrix_file(tmp_path, sigma):
    rho = make_x_state(STATE_1)
    path = tmp_path / "state.mat"
    write_matrix_file(path, rho, std=np.full((4, 4), sigma))
    return parse_matrix_file(path)


def test_run_config_validation():
    with pytest.raises(InvalidInputError, match="grid"):
        RunConfig(grid_points=1)
    with pytest.raises(InvalidInputError, match="gamma"):
        RunConfig(gamma=0.0)
    with pytest.raises(InvalidInputError, match="finite"):
        RunConfig(gamma=float("inf"))
    config = RunConfig(grid_points=5, pointer_theta=1.0, pointer_phi=2.0)
    assert config.grid.size == 5
    assert config.pointer_basis.theta == 1.0


def test_bands_require_uncertainties_and_samples(tmp_path):
    rho = make_x_state(STATE_1)
    path = tmp_path / "bare.mat"
    write_matrix_file(path, rho)
    with pytest.raises(InvalidInputError, match="uncertainty"):
        monte_carlo_bands(parse_matrix_file(path), RunConfig(samples=4))
    with pytest.raises(InvalidInputError, match="samples"):
        monte_carlo_bands(matrix_file(tmp_path, 0.01), RunConfig(samples=1))


def test_zero_noise_bands_collapse_to_the_sweep(tmp_path):
    parsed = matrix_file(tmp_path, 0.0)
    config = RunConfig(grid_points=11, samples=3, seed=1, optimizer=FAST)
    bands = monte_carlo_bands(parsed, config)
    reference = sweep(parsed.state, "pd", config.grid, settings=FAST)
    for name in ("j_z", "j_x", "j_max", "discord"):
        # identical samples: spread is zero up to the mean's rounding
        assert np.max(bands.stds[name]) <= 1e-14
    np.testing.assert_allclose(
        bands.means["j_max"], [r.j_max for r in reference.records], atol=1e-12
    )
    assert bands.transition_count == 3
    assert bands.transition_mean == pytest.approx(0.4, abs=1e-9)
    assert bands.transition_std <= 1e-14


def test_noisy_bands_straddle_the_true_transition(tmp_path):
    parsed = matrix_file(tmp_path, 0.01)
    config = RunConfig(grid_points=21, samples=6, seed=2, optimizer=FAST)
    bands = monte_carlo_bands(parsed, config)
    assert bands.transition_count == 6
    assert bands.transition_mean == pytest.approx(0.4, abs=0.05)
    assert all(np.all(bands.stds[name] >= 0.0) for name in bands.stds)
    # noise at the percent level moves J by at most a few percent
    assert bands.means["j_z"][0] == pytest.approx(0.278072, abs=0.05)


def test_bands_are_deterministic(tmp_path):
    parsed = matrix_file(tmp_path, 0.005)
    config = RunConfig(grid_points=11, samples=3, seed=4, optimizer=FAST)
    first = monte_carlo_bands(parsed, config)
    second = monte_carlo_bands(parsed, config)
    assert json_text(bands_payload(first)) == json_text(bands_payload(second))


def test_bands_json_payload(tmp_path):
    parsed = matrix_file(tmp_path, 0.0)
    config = RunConfig(grid_points=5, samples=2, seed=0, optimizer=FAST)
    bands = monte_carlo_bands(parsed, config)
    payload = json.loads(json_text(bands_payload(bands)))
    assert payload["samples"] == 2
    assert payload["seed"] == 0
    assert len(payload["p"]) == 5
    assert set(payload["means"]) == {"j_z", "j_x", "j_max", "discord"}
    rebuilt = MonteCarloBands(
        p=np.array(payload["p"]),
        means={k: np.array(v) for k, v in payload["means"].items()},
        stds={k: np.array(v) for k, v in payload["stds"].items()},
        samples=payload["samples"],
        seed=payload["seed"],
        transition_mean=payload["transition_mean"],
        transition_std=payload["transition_std"],
        transition_count=payload["transition_count"],
    )
    assert bands_payload(rebuilt) == payload
