import json
import math

import numpy as np
import pytest

from einselect import (
    STATE_1,
    DataQualityError,
    InvalidInputError,
    VerificationOutcome,
    emit_report,
    make_x_state,
    parse_matrix_file,
    project_to_physical,
    sweep,
    write_matrix_file,
)
from einselect import emergence_time, monte_carlo_bands, verify_theorem1
from einselect.cli import main
from einselect.matrixio import (
    CSV_COLUMNS,
    csv_table,
    emergence_payload,
    emit_analysis,
    emit_emergence,
    format_cell,
)


def test_write_parse_round_trip(tmp_path):
    rho = make_x_state(STATE_1)
    std = np.full((4, 4), 0.01)
    path = tmp_path / "state.mat"
    write_matrix_file(path, rho, std=std, comment="reference state")
    parsed = parse_matrix_file(path)
    assert parsed.state.dim == 4
    np.testing.assert_array_equal(parsed.raw, rho.entries)
    np.testing.assert_array_equal(parsed.std, std)
    np.testing.assert_allclose(parsed.state.entries, rho.entries, atol=1e-14)
    assert parsed.deviations.projection_distance < 1e-12


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text(
        "# a comment\n\ndim 2\nreal\n0.5 0\n0 0.5\n# between blocks\nimag\n0 0\n0 0\n"
    )
    parsed = parse_matrix_file(path)
    np.testing.assert_array_equal(parsed.raw, np.eye(2) / 2)
    assert parsed.std is None


@pytest.mark.parametrize(
    "text,message",
    [
        ("real\n0.5 0\n0 0.5\n", "dim"),
        ("dim 3\n", "dim"),
        # the header token is "dim" exactly, not any word starting with it
        ("dimension 2\nreal\n0.5 0\n0 0.5\nimag\n0 0\n0 0\n", "'dim N' line"),
        ("dimx 2\nreal\n0.5 0\n0 0.5\nimag\n0 0\n0 0\n", "'dim N' line"),
        ("dim 2\nreal\n0.5 0\n0 0.5\n", "imag"),
        ("dim 2\nreal\n0.5 0\n0 0.5\nreal\n0.5 0\n0 0.5\n", "duplicate"),
        ("dim 2\nreal\n0.5 nope\n0 0.5\nimag\n0 0\n0 0\n", "bad number"),
        ("dim 2\nreal\n0.5 0 0\n0 0.5 0\nimag\n0 0\n0 0\n", "entries"),
        ("dim 2\nreal\n0.5 0\n", "ended inside"),
        ("dim 2\nblock\n", "unexpected"),
        ("dim 2\nreal\n0.5 0\n0 0.5\nimag\n0 0\n0 0\nstd\n-1 0\n0 0\n", "nonnegative"),
        ("dim 2\nreal\n0.5 nan\n0 0.5\nimag\n0 0\n0 0\n", "non-finite.*'real'"),
        ("dim 2\nreal\n0.5 0\n0 0.5\nimag\n0 0\ninf 0\n", "non-finite.*'imag'"),
        ("dim 2\nreal\n0.5 0\n0 0.5\nimag\n0 0\n0 0\nstd\n0 inf\n0 0\n", "non-finite.*'std'"),
        # a superscript two passes str.isdigit but not int()
        ("dim \u00b2\nreal\n0.5 0\n0 0.5\nimag\n0 0\n0 0\n", "dim"),
    ],
)
def test_parse_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match=message):
        parse_matrix_file(path)


def test_parse_missing_file():
    with pytest.raises(InvalidInputError, match="cannot read"):
        parse_matrix_file("/nonexistent/state.mat")


def test_projection_renormalizes_trace():
    raw = np.diag([0.50005, 0.50005]).astype(complex)
    state, report = project_to_physical(raw)
    assert state.entries.trace().real == pytest.approx(1.0, abs=1e-15)
    assert report.trace_deviation == pytest.approx(1e-4, abs=1e-12)
    assert report.projection_distance < 1e-3


def test_projection_clips_negative_eigenvalues():
    raw = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    state, report = project_to_physical(raw, max_distance=None)
    expected = np.diag([6.0 / 11.0, 5.0 / 11.0, 0.0, 0.0])
    np.testing.assert_allclose(state.entries, expected, atol=1e-12)
    assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
    assert report.projection_distance == pytest.approx(0.1, abs=1e-12)


def test_projection_symmetrizes():
    raw = np.array([[0.5, 0.02], [0.0, 0.5]], dtype=complex)
    state, report = project_to_physical(raw)
    assert report.hermiticity_deviation == pytest.approx(0.02, abs=1e-15)
    np.testing.assert_allclose(state.entries, state.entries.conj().T, atol=1e-15)


def test_projection_distance_gate():
    raw = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(DataQualityError, match="max-norm"):
        project_to_physical(raw)


def test_projection_rejects_vanishing_trace():
    with pytest.raises(DataQualityError, match="trace"):
        project_to_physical(np.diag([0.01, 0.01]).astype(complex))


def test_projection_rejects_wrong_shape():
    with pytest.raises(InvalidInputError, match="shape"):
        project_to_physical(np.eye(3, dtype=complex) / 3)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
@pytest.mark.parametrize("gate", [{}, {"max_distance": None}])
def test_projection_rejects_non_finite_entries(bad, gate):
    raw = np.eye(4, dtype=complex) / 4
    raw[0, 3] = bad
    with pytest.raises(InvalidInputError, match="finite"):
        project_to_physical(raw, **gate)


def test_emit_trajectory_csv(state1):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 5))
    text = emit_report(report, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert float(first["p"]) == 0.0
    assert float(first["j_z"]) == pytest.approx(0.278071905113, abs=1e-9)


def test_emit_trajectory_json(state1):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 5))
    payload = json.loads(emit_report(report, "json"))
    assert payload["regime"] == report.regime
    assert payload["transition_p"] == pytest.approx(0.4, abs=1e-9)
    assert len(payload["records"]) == 5
    assert payload["records"][0]["mutual_info"] == pytest.approx(1.278072, abs=1e-6)


def test_emit_verification_outcome_both_formats():
    outcome = VerificationOutcome("theorem1", 100, 0, 3.2e-15, 42)
    csv_text = emit_report(outcome, "csv")
    assert csv_text.splitlines()[0] == "theorem_id,trials,failures,worst_violation,seed"
    assert csv_text.splitlines()[1].startswith("theorem1,100,0,")
    payload = json.loads(emit_report(outcome, "json"))
    assert payload["passed"] is True
    assert payload["worst_violation"] == pytest.approx(3.2e-15)


def test_emit_report_writes_file(tmp_path, state1):
    # the CLI's --out file holds exactly the emitted text
    path = tmp_path / "out.csv"
    assert main(["sweep", "--state", "0.4,0.1,0.1,0.4", "--grid", "3", "--out", str(path)]) == 0
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 3))
    assert path.read_text() == emit_report(report, "csv")


def test_emit_report_refuses_non_finite_json():
    bad = VerificationOutcome("theorem1", 1, 1, math.nan, 42)
    with pytest.raises(ValueError, match="JSON"):
        emit_report(bad, "json")


def test_numpy_scalars_give_the_json_of_python_scalars(state1, tmp_path):
    # the checks store the int or float they accept, so JSON can carry it
    outcome = emit_report([verify_theorem1(trials=np.int64(3), seed=np.int64(2))], "json")
    assert outcome == emit_report([verify_theorem1(trials=3, seed=2)], "json")

    path = tmp_path / "state.mat"
    write_matrix_file(path, state1, std=np.full((4, 4), 0.005))
    matrix = parse_matrix_file(path)
    grid = np.linspace(0.0, 1.0, 5)
    report = sweep(matrix.state, "pd", grid)

    def analysis(samples, seed):
        bands = monte_carlo_bands(matrix, "pd", grid, samples=samples, seed=seed)
        return emit_analysis(matrix, report, bands, "json")

    assert analysis(np.int64(3), np.int64(4)) == analysis(3, 4)

    for gamma in (np.float32(2.0), np.int64(2)):
        assert emit_report(sweep(state1, "pd", grid, gamma=gamma), "json") == emit_report(
            sweep(state1, "pd", grid, gamma=2.0), "json"
        )
        assert emit_emergence(emergence_time(STATE_1, gamma), gamma, "json") == emit_emergence(
            emergence_time(STATE_1, 2.0), 2.0, "json"
        )


def test_format_cell_rules():
    assert [format_cell(v) for v in (None, True, False, 0.1 + 0.2, 1.0, 7, "pd")] == [
        "", "true", "false", "0.3", "1", "7", "pd"
    ]
    assert csv_table(("a", "b"), [{"a": None, "b": 2.5}, {"b": True, "a": 1}]) == (
        "a,b\n,2.5\n1,true\n"
    )


def test_emit_report_rejects_bad_arguments(state1):
    report = sweep(state1, "pd", np.linspace(0.0, 1.0, 3))
    with pytest.raises(InvalidInputError, match="format"):
        emit_report(report, "yaml")
    with pytest.raises(InvalidInputError, match="type"):
        emit_report({"not": "a report"})


def test_emergence_payload_shapes():
    filled = emergence_payload(emergence_time(STATE_1), 1.0)
    assert filled["transition"] is True
    assert filled["tau_e"] == pytest.approx(0.5108256237659907, abs=1e-12)
    assert filled["p_e"] == pytest.approx(0.4, abs=1e-12)
    empty = emergence_payload(None, 2.0)
    assert empty["transition"] is False
    assert empty["tau_e"] is None
    assert empty["tau_d"] == 0.5
    assert empty["p_at_tau_d"] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-15)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, True, False])
def test_emergence_output_rejects_bad_gamma(gamma):
    # tau_D = 1/gamma comes from dynamics.decoherence_time, which checks gamma
    for fmt in ("csv", "json"):
        with pytest.raises(InvalidInputError, match="gamma"):
            emit_emergence(None, gamma, fmt)


def test_write_matrix_file_validation(tmp_path):
    with pytest.raises(InvalidInputError, match="shape"):
        write_matrix_file(tmp_path / "x.mat", np.eye(3))
    with pytest.raises(InvalidInputError, match="match"):
        write_matrix_file(tmp_path / "x.mat", np.eye(2) / 2, std=np.zeros((4, 4)))
    with pytest.raises(InvalidInputError, match="nonnegative"):
        write_matrix_file(tmp_path / "x.mat", np.eye(2) / 2, std=-np.ones((2, 2)))
    with pytest.raises(InvalidInputError, match="finite"):
        write_matrix_file(tmp_path / "x.mat", np.array([[0.5, math.nan], [0.0, 0.5]]))
    with pytest.raises(InvalidInputError, match="finite"):
        write_matrix_file(tmp_path / "x.mat", np.eye(2) / 2, std=np.full((2, 2), math.inf))
    assert not (tmp_path / "x.mat").exists()
