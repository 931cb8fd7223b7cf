"""Property-based checks of matrix-file ingestion and the physicality projection.

Three properties, each over generated inputs:
  - the parser, on arbitrary text (number tokens near the float limit
    included), returns a MatrixFile or raises InvalidInputError or
    DataQualityError, and emits no warning;
  - write_matrix_file followed by parse_matrix_file gives back the raw matrix
    exactly, for near-physical matrices;
  - project_to_physical is idempotent within 1e-12.

Example counts are bounded so the module runs in a few seconds.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from einselect import (
    DataQualityError,
    InvalidInputError,
    parse_matrix_file,
    project_to_physical,
    write_matrix_file,
)

# Function-scoped tmp_path is safe here: every example overwrites its own file.
PROPERTY_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Numbers a reconstructed matrix might hold, and the float-range extremes.
FINITE_TOKENS = st.one_of(
    st.sampled_from(["0", "0.5", "0.25", "-0.1", "1", "1e308", "-1e308", "1e300", "1e-320"]),
    st.floats(min_value=-1.0, max_value=1.0).map(repr),
)
# Lines and tokens the parser must refuse or skip.
BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e309", "abc", "0x1p3", "-", "dim 2"])


@st.composite
def matrix_file_texts(draw):
    """A well-formed matrix file, then (half the time) one random defect."""
    dim = draw(st.sampled_from([2, 4]))
    labels = ["real", "imag"] + (["std"] if draw(st.booleans()) else [])
    lines = ["# generated", f"dim {dim}"]
    for label in draw(st.permutations(labels)):
        lines.append(label)
        for _ in range(dim):
            lines.append(" ".join(draw(st.lists(FINITE_TOKENS, min_size=dim, max_size=dim))))
    if draw(st.booleans()):
        index = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        defect = draw(st.sampled_from(["drop", "replace", "append", "duplicate"]))
        if defect == "drop":
            del lines[index]
        elif defect == "replace":
            tokens = lines[index].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(BAD_TOKENS)
            lines[index] = " ".join(tokens)
        elif defect == "append":
            lines[index] += " " + draw(st.one_of(FINITE_TOKENS, BAD_TOKENS))
        else:
            lines.insert(index, lines[index])
    return "\n".join(lines) + "\n"


def _parse_quietly(path):
    """parse_matrix_file, failing the test on any warning it emits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse_matrix_file(path)


@PROPERTY_SETTINGS
@given(text=st.one_of(matrix_file_texts(), st.text()))
def test_parser_returns_or_raises_a_named_error(tmp_path, text):
    path = tmp_path / "generated.mat"
    path.write_text(text, encoding="utf-8")
    try:
        parsed = _parse_quietly(path)
    except (InvalidInputError, DataQualityError):
        return
    assert np.all(np.isfinite(parsed.state.entries))


@st.composite
def near_physical_matrices(draw):
    """A random density matrix plus a small non-Hermitian, trace-moving perturbation."""
    dim = draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= rho.trace().real
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
    return rho + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


@PROPERTY_SETTINGS
@given(raw=near_physical_matrices(), with_std=st.booleans())
def test_write_parse_round_trip_is_exact(tmp_path, raw, with_std):
    std = np.abs(raw.real) * 0.01 if with_std else None
    path = tmp_path / "round_trip.mat"
    write_matrix_file(path, raw, std=std)
    parsed = _parse_quietly(path)
    np.testing.assert_array_equal(parsed.raw, raw)
    if with_std:
        np.testing.assert_array_equal(parsed.std, std)
    else:
        assert parsed.std is None


@PROPERTY_SETTINGS
@given(
    dim=st.sampled_from([2, 4]),
    entries=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=32, max_size=32
    ),
)
def test_projection_is_idempotent(dim, entries):
    values = np.array(entries[: 2 * dim * dim])
    raw = values[: dim * dim].reshape(dim, dim) + 1j * values[dim * dim :].reshape(dim, dim)
    # a trace near 1 keeps the draw inside the projection's domain
    raw = raw + np.eye(dim) * (1.0 - raw.trace().real) / dim
    once, _ = project_to_physical(raw, max_distance=None)
    twice, report = project_to_physical(once.entries, max_distance=None)
    np.testing.assert_allclose(twice.entries, once.entries, rtol=0.0, atol=1e-12)
    assert report.projection_distance <= 1e-12
