import dataclasses
import json

import numpy as np
import pytest

from einselect import (
    STATE_1,
    InvalidInputError,
    MonteCarloBands,
    ProjectiveBasis,
    make_x_state,
    monte_carlo_bands,
    parse_matrix_file,
    sweep,
    write_matrix_file,
)
from einselect import correlations, dynamics, montecarlo
from einselect.correlations import DISCORD_CLAMP, CorrelationRecord
from einselect.errors import OptimizationError
from einselect.dynamics import DEFAULT_GRID_POINTS
from einselect.matrixio import bands_payload, float_range_guard, json_text, project_to_physical
from einselect.verify import random_density_matrix

GRID_11 = np.linspace(0.0, 1.0, 11)


def matrix_file(tmp_path, sigma):
    rho = make_x_state(STATE_1)
    path = tmp_path / "state.mat"
    write_matrix_file(path, rho, std=np.full((4, 4), sigma))
    return parse_matrix_file(path)


def assert_bands_equal(got, expected):
    for field in dataclasses.fields(MonteCarloBands):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, dict):
            assert a.keys() == b.keys()
            for name in b:
                np.testing.assert_array_equal(a[name], b[name])
        else:
            np.testing.assert_array_equal(a, b)


def test_bands_validate_sweep_arguments(tmp_path, monkeypatch):
    parsed = matrix_file(tmp_path, 0.01)
    # every argument is refused before any sample is drawn
    monkeypatch.setattr(montecarlo.np.random, "default_rng", None)
    with pytest.raises(InvalidInputError, match="grid"):
        monte_carlo_bands(parsed, "pd", [], samples=2)
    with pytest.raises(InvalidInputError, match="channel"):
        monte_carlo_bands(parsed, "depolarizing", [0.0, 1.0], samples=2)


def test_bands_without_a_grid_sweep_the_default_grid(tmp_path):
    parsed = matrix_file(tmp_path, 0.005)
    run = {"samples": 2, "seed": 3}
    default = monte_carlo_bands(parsed, "pd", None, **run)
    explicit = monte_carlo_bands(parsed, "pd", np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS), **run)
    assert default.p.shape == (DEFAULT_GRID_POINTS,)
    assert_bands_equal(default, explicit)


def _bands_reference(matrix, family, grid, samples, seed, pointer_basis):
    # The loop the bands ran before samples were swept as one stack: draw,
    # project and sweep one sample at a time.
    children = np.random.SeedSequence(seed).spawn(samples)
    series = {name: [] for name in ("j_z", "j_x", "j_max", "discord")}
    transitions = []
    for child in children:
        rng = np.random.default_rng(child)
        with float_range_guard():
            noise = rng.normal(size=matrix.raw.shape) * matrix.std
            noise = noise + 1j * (rng.normal(size=matrix.raw.shape) * matrix.std)
            sample = matrix.raw + noise
        state, _ = project_to_physical(sample, max_distance=None)
        report = sweep(state, family, grid, pointer_basis=pointer_basis)
        for name in series:
            series[name].append([getattr(r, name) for r in report.records])
        if report.transition_p is not None:
            transitions.append(report.transition_p)
    return MonteCarloBands(
        p=grid,
        means={name: np.array(rows).mean(axis=0) for name, rows in series.items()},
        stds={name: np.array(rows).std(axis=0) for name, rows in series.items()},
        samples=samples,
        seed=seed,
        transition_mean=float(np.mean(transitions)) if transitions else None,
        transition_std=float(np.std(transitions)) if transitions else None,
        transition_count=len(transitions),
    )


@pytest.mark.parametrize("family", ["pd", "ad", "pointer"])
def test_bands_over_many_chunks_equal_the_per_sample_sweeps(tmp_path, monkeypatch, family):
    # A general state with percent-level noise: the samples' transitions land
    # in different brackets, or none. Two samples per chunk, so seven samples
    # span four chunks.
    rho = random_density_matrix(np.random.default_rng(6))
    path = tmp_path / "general.mat"
    write_matrix_file(path, rho, std=np.full((4, 4), 0.02))
    parsed = parse_matrix_file(path)
    grid = np.linspace(0.0, 1.0, 21)
    pointer = ProjectiveBasis(1.2, 0.4) if family == "pointer" else None
    monkeypatch.setattr(dynamics, "_SWEEP_STATES", 2 * grid.size)
    bands = monte_carlo_bands(parsed, family, grid, samples=7, seed=5, pointer_basis=pointer)
    expected = _bands_reference(parsed, family, grid, 7, 5, pointer)
    assert 0 < expected.transition_count < 7
    assert_bands_equal(bands, expected)


def test_bands_build_no_record_and_a_banded_analysis_only_its_point_estimates(
    tmp_path, monkeypatch
):
    # The bands read the sweep's arrays; only a returned trajectory has records.
    parsed = matrix_file(tmp_path, 0.02)
    built = []

    def counted(*fields):
        built.append(fields[0])
        return CorrelationRecord(*fields)

    monkeypatch.setattr(correlations, "CorrelationRecord", counted)
    monkeypatch.setattr(dynamics, "_SWEEP_STATES", 2 * GRID_11.size)
    monte_carlo_bands(parsed, "ad", GRID_11, samples=5, seed=2)
    assert built == []
    report, _ = montecarlo._analysis(
        parsed, "ad", GRID_11, gamma=1.0, samples=5, seed=2, pointer_basis=None
    )
    assert built == GRID_11.tolist() == [r.p for r in report.records]


def test_a_sample_whose_maximum_exceeds_its_mutual_information_is_refused(tmp_path, monkeypatch):
    # The discord check runs on every sample's arrays, as it ran on its records,
    # so the text names the discord, the first value below -DISCORD_CLAMP.
    parsed = matrix_file(tmp_path, 0.02)
    measure = correlations._measure

    def exceeding(m, eigenvalues, kets):
        j_max, axes, mutual, j = measure(m, eigenvalues, kets)
        j_max[3] = mutual[3] + 3.0 * DISCORD_CLAMP
        return j_max, axes, mutual, j

    monkeypatch.setattr(correlations, "_measure", exceeding)
    text = r"^discord evaluated to -3\.000e-06, below -1e-06$"
    with pytest.raises(OptimizationError, match=text):
        monte_carlo_bands(parsed, "ad", GRID_11, samples=3, seed=2)


def test_bands_refuse_a_grid_that_is_not_increasing(tmp_path):
    parsed = matrix_file(tmp_path, 0.01)
    for grid in ([0.0, 0.5, 0.5], [0.5, 0.2]):
        with pytest.raises(InvalidInputError, match="^grid must be strictly increasing$"):
            monte_carlo_bands(parsed, "pd", grid, samples=2)

def test_bands_require_uncertainties_and_samples(tmp_path):
    rho = make_x_state(STATE_1)
    path = tmp_path / "bare.mat"
    write_matrix_file(path, rho)
    with pytest.raises(InvalidInputError, match="uncertainty"):
        monte_carlo_bands(parse_matrix_file(path), "pd", GRID_11, samples=4)
    for samples in (1, True, 2.5):
        with pytest.raises(InvalidInputError, match="^Monte Carlo needs at least 2 samples$"):
            monte_carlo_bands(matrix_file(tmp_path, 0.01), "pd", GRID_11, samples=samples)


def test_bands_take_numpy_integer_counts(tmp_path):
    parsed = matrix_file(tmp_path, 0.005)
    expected = monte_carlo_bands(parsed, "pd", GRID_11, samples=2, seed=3)
    got = monte_carlo_bands(parsed, "pd", GRID_11, samples=np.int64(2), seed=np.uint8(3))
    assert_bands_equal(got, expected)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bands_refuse_a_seed_that_is_no_non_negative_integer(tmp_path, seed):
    message = f"^seed must be a non-negative integer, got {seed}$"
    with pytest.raises(InvalidInputError, match=message):
        monte_carlo_bands(matrix_file(tmp_path, 0.01), "pd", GRID_11, samples=2, seed=seed)


def test_zero_noise_bands_collapse_to_the_sweep(tmp_path):
    parsed = matrix_file(tmp_path, 0.0)
    bands = monte_carlo_bands(parsed, "pd", GRID_11, samples=3, seed=1)
    reference = sweep(parsed.state, "pd", GRID_11)
    for name in ("j_z", "j_x", "j_max", "discord"):
        # identical samples: spread is zero up to the mean's rounding
        assert np.max(bands.stds[name]) <= 1e-14
    np.testing.assert_allclose(
        bands.means["j_max"], [r.j_max for r in reference.records], atol=1e-12
    )
    assert bands.transition_count == 3
    assert bands.transition_mean == pytest.approx(0.4, abs=1e-9)
    assert bands.transition_std <= 1e-14


def test_zero_noise_pointer_bands_collapse_to_the_pointer_sweep(tmp_path):
    parsed = matrix_file(tmp_path, 0.0)
    basis = ProjectiveBasis(0.5, 0.4)
    bands = monte_carlo_bands(parsed, "pointer", GRID_11, samples=3, seed=1, pointer_basis=basis)
    reference = sweep(parsed.state, "pointer", GRID_11, pointer_basis=basis)
    tilted = sweep(parsed.state, "pd", GRID_11)
    for name in ("j_z", "j_x", "j_max", "discord"):
        assert np.max(bands.stds[name]) <= 1e-14
        np.testing.assert_allclose(
            bands.means[name], [getattr(r, name) for r in reference.records], atol=1e-12
        )
    # the tilted basis decoheres a different state than sigma_z dephasing does
    assert np.max(np.abs(bands.means["j_z"] - [r.j_z for r in tilted.records])) > 1e-3
    assert reference.transition_p == pytest.approx(0.1536, abs=1e-3)
    assert bands.transition_count == 3
    assert bands.transition_mean == pytest.approx(reference.transition_p, abs=1e-12)


def test_noisy_bands_straddle_the_true_transition(tmp_path):
    parsed = matrix_file(tmp_path, 0.01)
    grid = np.linspace(0.0, 1.0, 21)
    bands = monte_carlo_bands(parsed, "pd", grid, samples=6, seed=2)
    assert bands.transition_count == 6
    assert bands.transition_mean == pytest.approx(0.4, abs=0.05)
    assert all(np.all(bands.stds[name] >= 0.0) for name in bands.stds)
    # noise at the percent level moves J by at most a few percent
    assert bands.means["j_z"][0] == pytest.approx(0.278072, abs=0.05)


def test_bands_are_deterministic(tmp_path):
    parsed = matrix_file(tmp_path, 0.005)
    run = {"samples": 3, "seed": 4}
    first = monte_carlo_bands(parsed, "pd", GRID_11, **run)
    second = monte_carlo_bands(parsed, "pd", GRID_11, **run)
    assert json_text(bands_payload(first)) == json_text(bands_payload(second))


def test_bands_json_payload(tmp_path):
    parsed = matrix_file(tmp_path, 0.0)
    grid = np.linspace(0.0, 1.0, 5)
    bands = monte_carlo_bands(parsed, "pd", grid, samples=2, seed=0)
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


def _report_hex(report):
    records = [
        tuple(float(getattr(r, f.name)).hex() for f in dataclasses.fields(r))
        for r in report.records
    ]
    scalars = (report.transition_p, report.emergence_time, report.gamma)
    return records, [None if x is None else float(x).hex() for x in scalars]


def _bands_hex(bands):
    arrays = [bands.p] + [bands.means[k] for k in sorted(bands.means)]
    arrays += [bands.stds[k] for k in sorted(bands.stds)]
    scalars = (bands.transition_mean, bands.transition_std)
    return (
        [[float(x).hex() for x in a] for a in arrays],
        [None if x is None else float(x).hex() for x in scalars],
        (bands.samples, bands.seed, bands.transition_count),
    )


@pytest.mark.parametrize(
    "family,gamma,pointer,chunk",
    [
        ("pd", 2.5, None, None),
        ("pointer", 1.0, ProjectiveBasis(1.2, 0.4), 2),
        ("ad", 0.7, None, 3),
    ],
)
def test_analysis_is_sweep_plus_bands_bit_for_bit(
    tmp_path, monkeypatch, family, gamma, pointer, chunk
):
    # One stack of sweeps, point estimate first, gives what the two calls give
    # apart; small chunks put the point estimate and the samples together.
    rho = random_density_matrix(np.random.default_rng(6))
    path = tmp_path / "general.mat"
    write_matrix_file(path, rho, std=np.full((4, 4), 0.02))
    parsed = parse_matrix_file(path)
    grid = np.linspace(0.0, 1.0, 21)
    if chunk:
        monkeypatch.setattr(dynamics, "_SWEEP_STATES", chunk * grid.size)
    run = {"samples": 5, "seed": 2, "pointer_basis": pointer}
    report, bands = montecarlo._analysis(parsed, family, grid, gamma=gamma, **run)
    expected = sweep(parsed.state, family, grid, gamma=gamma, pointer_basis=pointer)
    assert _report_hex(report) == _report_hex(expected)
    assert _bands_hex(bands) == _bands_hex(monte_carlo_bands(parsed, family, grid, **run))
    alone, none = montecarlo._analysis(
        parsed, family, grid, gamma=gamma, samples=0, seed=0, pointer_basis=pointer
    )
    assert none is None and _report_hex(alone) == _report_hex(expected)


def test_analysis_checks_in_the_order_of_sweep_then_bands(tmp_path):
    bare = tmp_path / "bare.mat"
    write_matrix_file(bare, make_x_state(STATE_1))
    bare = parse_matrix_file(bare)
    noisy = matrix_file(tmp_path, 0.01)
    cases = [
        (bare, [], "depolarizing", -1.0, 1, -1, "^gamma must be positive"),
        (bare, [], "depolarizing", 1.0, 1, -1, "^grid must be a nonempty"),
        (bare, GRID_11, "depolarizing", 1.0, 1, -1, "^unknown channel family"),
        (bare, GRID_11, "pd", 1.0, 1, -1, "^matrix file carries no uncertainty block"),
        (noisy, GRID_11, "pd", 1.0, 1, -1, "^Monte Carlo needs at least 2 samples$"),
        (noisy, GRID_11, "pd", 1.0, 2, -1, "^seed must be a non-negative integer, got -1$"),
    ]
    for matrix, grid, family, gamma, samples, seed, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            montecarlo._analysis(
                matrix, family, grid, gamma=gamma, samples=samples, seed=seed, pointer_basis=None
            )


def test_bands_check_in_the_order_of_analyze(tmp_path, monkeypatch):
    # Grid, family, std block, samples, seed: each case breaks every input
    # from its own on, and nothing is drawn before the refusal.
    monkeypatch.setattr(montecarlo.np.random, "default_rng", None)
    bare = tmp_path / "bare.mat"
    write_matrix_file(bare, make_x_state(STATE_1))
    bare = parse_matrix_file(bare)
    noisy = matrix_file(tmp_path, 0.01)
    cases = [
        (bare, [], "depolarizing", 1, -1, "^grid must be a nonempty"),
        (bare, GRID_11, "depolarizing", 1, -1, "^unknown channel family"),
        (bare, GRID_11, "pd", 1, -1, "^matrix file carries no uncertainty block"),
        (noisy, GRID_11, "pd", 1, -1, "^Monte Carlo needs at least 2 samples$"),
        (noisy, GRID_11, "pd", 2, -1, "^seed must be a non-negative integer, got -1$"),
    ]
    for matrix, grid, family, samples, seed, message in cases:
        with pytest.raises(InvalidInputError, match=message):
            monte_carlo_bands(matrix, family, grid, samples=samples, seed=seed)


def test_bands_keep_their_own_grid(tmp_path):
    parsed = matrix_file(tmp_path, 0.005)
    grid = GRID_11.copy()
    bands = monte_carlo_bands(parsed, "pd", grid, samples=2, seed=3)
    _, analyzed = montecarlo._analysis(
        parsed, "pd", grid, gamma=1.0, samples=2, seed=3, pointer_basis=None
    )
    grid[:] = 0.5
    np.testing.assert_array_equal(bands.p, GRID_11)
    np.testing.assert_array_equal(analyzed.p, GRID_11)
