import json
import warnings

import numpy as np
import pytest

from einselect import (
    STATE_1,
    ProjectiveBasis,
    VerificationOutcome,
    make_x_state,
    monte_carlo_bands,
    parse_matrix_file,
    sweep,
    write_matrix_file,
)
from einselect.cli import main
from einselect.matrixio import emit_analysis
from einselect.verify import random_density_matrix

STATE_FLAG = "0.4,0.1,0.1,0.4"


def state_file(tmp_path, std=None):
    path = tmp_path / "state.mat"
    write_matrix_file(path, make_x_state(STATE_1), std=std)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_csv_contract(capsys):
    code, out, err = run(capsys, "sweep", "--state", STATE_FLAG, "--grid", "11")
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "p,j_z,j_x,j_max,opt_theta,opt_phi,mutual_info,discord"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.278072, abs=1e-6)
    assert float(first[3]) == pytest.approx(1.0, abs=1e-6)


def test_sweep_json_carries_trajectory_metadata(capsys):
    code, out, _ = run(
        capsys, "sweep", "--state", STATE_FLAG, "--grid", "11", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "decay-then-constant"
    assert payload["transition_p"] == pytest.approx(0.4, abs=1e-9)
    assert payload["emergence_time"] == pytest.approx(0.510826, abs=1e-6)
    assert len(payload["records"]) == 11


def test_sweep_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code, out, _ = run(
        capsys, "sweep", "--state", STATE_FLAG, "--grid", "5", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("p,j_z,")


def test_sweep_accepts_matrix_file(capsys, tmp_path):
    code, out, _ = run(
        capsys, "sweep", "--matrix-file", state_file(tmp_path), "--grid", "5"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_sweep_pointer_channel_flags(capsys):
    code, out, _ = run(
        capsys, "sweep", "--state", STATE_FLAG, "--grid", "5",
        "--channel", "pointer", "--theta", "1.5707963267948966", "--phi", "0",
    )
    assert code == 0
    assert out.startswith("p,")


def test_pointer_channel_without_angles_is_sigma_z(capsys):
    base = ("sweep", "--state", STATE_FLAG, "--grid", "5", "--channel", "pointer")
    assert run(capsys, *base) == run(capsys, *base, "--theta", "0", "--phi", "0")


@pytest.mark.parametrize("flag", ["--theta", "--phi"])
def test_analyze_refuses_angles_without_the_pointer_channel(capsys, tmp_path, flag):
    code, out, err = run(
        capsys, "analyze", "--matrix-file", state_file(tmp_path), "--grid", "5", flag, "0.5"
    )
    assert (code, out) == (1, "")
    assert err == "einselect: --theta and --phi need --channel pointer, not --channel pd\n"


def test_emergence_json(capsys):
    code, out, _ = run(capsys, "emergence", "--state", STATE_FLAG, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["transition"] is True
    assert payload["tau_e"] == pytest.approx(np.log(5.0 / 3.0), abs=1e-12)
    assert payload["p_e"] == pytest.approx(0.4, abs=1e-12)
    assert payload["tau_d"] == 1.0


def test_emergence_csv_and_gamma(capsys):
    code, out, _ = run(capsys, "emergence", "--state", STATE_FLAG, "--gamma", "2.0")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "gamma,tau_d,tau_e,p_e,p_at_tau_d,transition"
    cells = row.split(",")
    assert float(cells[1]) == 0.5
    assert float(cells[2]) == pytest.approx(np.log(5.0 / 3.0) / 2.0, abs=1e-9)
    assert cells[5] == "true"


def test_emergence_without_transition_emits_nulls(capsys):
    code, out, _ = run(
        capsys, "emergence", "--state", "0.4,0.1,0.0,0.05", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["transition"] is False
    assert payload["tau_e"] is None
    assert payload["p_e"] is None


def test_emergence_csv_without_transition(capsys):
    code, out, _ = run(capsys, "emergence", "--state", "0.4,0.1,0.0,0.05")
    assert code == 0
    assert out == (
        "gamma,tau_d,tau_e,p_e,p_at_tau_d,transition\n1,1,,,0.632120558829,false\n"
    )


def test_emergence_with_opposite_sign_coherences(capsys):
    # the sweep of this state changes basis at p = 0.25
    code, out, _ = run(capsys, "emergence", "--state", "0.4,0.1,-0.1,0.3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["transition"] is True
    assert payload["p_e"] == pytest.approx(0.25, abs=1e-12)


def test_emergence_rejects_non_x_states(capsys, tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    path = tmp_path / "generic.mat"
    write_matrix_file(path, m / m.trace().real)
    code, _, err = run(capsys, "emergence", "--matrix-file", str(path))
    assert code == 1
    assert "X-form" in err


def test_maximize_outputs(capsys):
    code, out, _ = run(
        capsys, "maximize", "--state", "0.4,0.1,0.1,0.15", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["j_z"] == pytest.approx(0.278072, abs=1e-6)
    assert payload["j_x"] == pytest.approx(0.188722, abs=1e-6)
    assert payload["j_max"] == pytest.approx(0.278072, abs=1e-6)
    assert payload["discord"] == pytest.approx(0.283169, abs=1e-6)

    code, out, _ = run(capsys, "maximize", "--state", "0.4,0.1,0.1,0.15")
    header, row = out.strip().split("\n")
    assert header == "j_z,j_x,j_max,opt_theta,opt_phi,mutual_info,discord"
    assert len(row.split(",")) == 7


def test_verify_single_suite_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "remark", "--grid", "21", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem_id"] == "remark"
    assert payload["passed"] is True


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--trials", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theorem_id,trials,failures,worst_violation,seed"
    assert lines[1].startswith("theorem1,30,0,")


def test_verify_all_suites(capsys):
    argv = ("verify", "--suite", "all", "--trials", "2", "--grid", "21")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theorem_id,trials,failures,worst_violation,seed"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["theorem1", "2", "0"],
        ["theorem2", "2", "0"],
        ["lemma1", "2", "0"],
        ["remark", "21", "0"],
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [o["theorem_id"] for o in payload] == ["theorem1", "theorem2", "lemma1", "remark"]
    assert all(o["passed"] is True for o in payload)


@pytest.mark.parametrize(
    "flags", [("--trials", "5"), ("--seed", "9"), ("--trials", "5", "--seed", "9")]
)
def test_verify_remark_refuses_trials_and_seed(capsys, flags):
    code, out, err = run(capsys, "verify", "--suite", "remark", *flags)
    assert code == 1
    assert out == ""
    assert err == (
        "einselect: --suite remark is deterministic: it takes --grid, not --trials or --seed\n"
    )


@pytest.mark.parametrize("suite", ["theorem1", "theorem2", "lemma1"])
def test_verify_trial_suites_refuse_grid(capsys, suite, monkeypatch):
    # refused before any suite runs
    monkeypatch.setattr(f"einselect.cli.verify_{suite}", None)
    code, out, err = run(capsys, "verify", "--suite", suite, "--grid", "21", "--trials", "2")
    assert code == 1
    assert out == ""
    assert err == (
        f"einselect: --suite {suite} draws random trials: it takes --trials and --seed, "
        "not --grid\n"
    )


@pytest.mark.parametrize("suite", ["theorem1", "theorem2", "lemma1", "all"])
def test_verify_refuses_a_negative_seed(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "einselect: seed must be a non-negative integer, got -1\n"


def test_verify_calls_the_suites_through_the_cli_module(capsys, monkeypatch):
    # einbench/tracer.py wraps the suites by rebinding these module attributes,
    # so a dispatch that bypasses them would hide every suite call from it
    calls = []

    def stub(name):
        def suite(*args, **kwargs):
            calls.append(name)
            return VerificationOutcome(name, 1, 0, 0.0, 0)

        return suite

    for name in ("theorem1", "theorem2", "lemma1", "remark"):
        monkeypatch.setattr(f"einselect.cli.verify_{name}", stub(name))
    code, _, _ = run(capsys, "verify", "--suite", "all", "--trials", "1")
    assert code == 0
    assert calls == ["theorem1", "theorem2", "lemma1", "remark"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = VerificationOutcome("theorem1", 5, 2, 0.3, 42)
    monkeypatch.setattr("einselect.cli.verify_theorem1", lambda **kw: failing)
    code, out, _ = run(capsys, "verify", "--suite", "theorem1")
    assert code == 3
    assert "theorem1,5,2," in out


def test_analyze_point_estimate(capsys, tmp_path):
    code, out, _ = run(
        capsys, "analyze", "--matrix-file", state_file(tmp_path),
        "--grid", "11", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bands"] is None
    assert payload["report"]["transition_p"] == pytest.approx(0.4, abs=1e-6)
    assert payload["deviations"]["projection_distance"] < 1e-12


def test_analyze_with_monte_carlo_bands(capsys, tmp_path):
    path = state_file(tmp_path, std=np.full((4, 4), 0.005))
    code, out, _ = run(
        capsys, "analyze", "--matrix-file", path,
        "--grid", "11", "--samples", "3", "--seed", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bands"]["samples"] == 3
    assert payload["bands"]["transition_count"] == 3
    assert len(payload["bands"]["p"]) == 11


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_banded_analyze_is_sweep_plus_bands(capsys, tmp_path, fmt):
    # analyze sweeps its point estimate and its samples as one stack; the
    # output is that of sweep and monte_carlo_bands called apart.
    path = tmp_path / "general.mat"
    rho = random_density_matrix(np.random.default_rng(3))
    write_matrix_file(path, rho, std=np.full((4, 4), 0.02))
    pointer = ProjectiveBasis(1.2, 0.4)
    code, out, err = run(
        capsys, "analyze", "--matrix-file", str(path), "--channel", "pointer", "--theta", "1.2",
        "--phi", "0.4", "--gamma", "2.5", "--grid", "11", "--samples", "4", "--seed", "7",
        "--format", fmt,
    )
    matrix = parse_matrix_file(str(path))
    grid = np.linspace(0.0, 1.0, 11)
    report = sweep(matrix.state, "pointer", grid, gamma=2.5, pointer_basis=pointer)
    bands = monte_carlo_bands(matrix, "pointer", grid, samples=4, seed=7, pointer_basis=pointer)
    assert (code, err) == (0, "")
    assert out == emit_analysis(matrix, report, bands, fmt)


def test_analyze_refuses_a_negative_seed(capsys, tmp_path):
    path = state_file(tmp_path, std=np.full((4, 4), 0.005))
    code, out, err = run(capsys, "analyze", "--matrix-file", path, "--samples", "2", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "einselect: seed must be a non-negative integer, got -1\n"


def test_analyze_csv_is_the_trajectory_table(capsys, tmp_path):
    code, out, _ = run(
        capsys, "analyze", "--matrix-file", state_file(tmp_path), "--grid", "5"
    )
    assert code == 0
    assert out.startswith("p,j_z,")


def test_analyze_rejects_unphysical_data(capsys, tmp_path):
    path = tmp_path / "junk.mat"
    raw = np.diag([-0.5, 0.95, 0.3, 0.25]).astype(complex)
    write_matrix_file(path, raw)
    code, _, err = run(capsys, "analyze", "--matrix-file", str(path), "--grid", "5")
    assert code == 2
    assert "data quality" in err


def test_missing_matrix_file_is_invalid_input(capsys):
    code, _, err = run(capsys, "analyze", "--matrix-file", "/nonexistent.mat")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("sweep",), "required"),
        (("sweep", "--state", "0.4,0.1,0.1"), "four comma-separated"),
        (("sweep", "--state", "a,b,c,d"), "non-number"),
        (("sweep", "--state", "0.4,0.1,0.9,0.4"), "positivity"),
        (("sweep", "--state", STATE_FLAG, "--grid", "1"), "at least 2"),
        (("sweep", "--state", STATE_FLAG, "--channel", "bogus"), "invalid choice"),
        (("verify", "--suite", "bogus"), "invalid choice"),
        (("bogus-command",), "invalid choice"),
        (("sweep", "--state", "nan,0.1,0.1,0.4"), "finite"),
        (("sweep", "--state", "0.4,0.1,inf,0.4"), "finite"),
        (("sweep", "--state", STATE_FLAG, "--gamma", "inf"), "finite"),
        (("emergence", "--state", STATE_FLAG, "--gamma", "inf"), "finite"),
        (("emergence", "--state", STATE_FLAG, "--gamma", "1e-320"), "finite"),
        (("sweep", "--state", STATE_FLAG, "--seed", "1"), "unrecognized"),
        (("sweep", "--state", STATE_FLAG, "--channel", "pointer", "--theta", "nan"),
         "theta must be a finite number"),
        (("sweep", "--state", STATE_FLAG, "--channel", "pointer", "--phi", "inf"),
         "phi must be a finite number"),
        (("sweep", "--state", STATE_FLAG, "--grid", "1000000000000"), "at most 100001"),
        (("verify", "--suite", "remark", "--grid", "1000000000000"), "at most 100001"),
        (("verify", "--suite", "all", "--trials", "1", "--grid", "100002"), "at most 100001"),
        (("sweep", "--state", STATE_FLAG, "--theta", "nan"), "need --channel pointer"),
        (("sweep", "--state", STATE_FLAG, "--channel", "ad", "--phi", "1.0"),
         "need --channel pointer, not --channel ad"),
    ],
)
def test_usage_errors_exit_one(capsys, argv, fragment):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert fragment in err


def test_state_and_matrix_file_are_exclusive(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "--state", STATE_FLAG, "--matrix-file", state_file(tmp_path)
    )
    assert code == 1
    assert "not both" in err


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, _, _ = run(
            capsys, "sweep", "--state", STATE_FLAG, "--grid", "11", "--out", str(path)
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_grid_and_sample_caps_apply_before_allocation(capsys, tmp_path):
    path = state_file(tmp_path, std=np.full((4, 4), 0.01))
    for grid, samples, fragment in (
        ("1000000000000", "3", "--grid allows at most 100001"),
        ("11", "1000000000000", "--samples x --grid allows at most 10000000"),
        ("100001", "101", "--samples x --grid allows at most 10000000"),
    ):
        code, out, err = run(
            capsys, "analyze", "--matrix-file", path, "--grid", grid, "--samples", samples
        )
        assert (code, out) == (1, "")
        assert fragment in err


@pytest.mark.parametrize(
    "command", [["sweep"], ["maximize"], ["emergence"], ["analyze", "--grid", "3"]]
)
def test_single_qubit_matrix_file_is_refused_with_one_message(capsys, tmp_path, command):
    path = tmp_path / "qubit.mat"
    write_matrix_file(path, np.eye(2) / 2)
    code, out, err = run(capsys, command[0], "--matrix-file", str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err == "einselect: --matrix-file needs a two-qubit state (dim 4), got dim 2\n"


@pytest.mark.parametrize("dim", [2, 4])
def test_huge_finite_entries_are_a_data_quality_failure(capsys, tmp_path, dim):
    # 1e308 is finite, but the projection's sums on it leave float range
    raw = np.zeros((dim, dim))
    raw[0, 0] = raw[1, 1] = 1e308
    path = tmp_path / "huge.mat"
    write_matrix_file(path, raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "analyze", "--matrix-file", str(path), "--grid", "3")
    assert (code, out) == (2, "")
    assert "too large" in err
    assert caught == []


def test_huge_uncertainties_are_a_data_quality_failure(capsys, tmp_path):
    # noise at sigma = 1e308 pushes sampled entries past float range
    path = state_file(tmp_path, std=np.full((4, 4), 1e308))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "analyze", "--matrix-file", path, "--grid", "3", "--samples", "2"
        )
    assert (code, out) == (2, "")
    assert "too large" in err
    assert caught == []
