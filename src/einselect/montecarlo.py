"""Monte Carlo error propagation for reconstructed density matrices.

Tomographic reconstructions come with per-entry uncertainties. The bands here
resample every matrix entry with independent Gaussian noise at its stated
standard deviation (real and imaginary parts separately), push each sample
through the physicality projection and a full sweep, and report the mean and
standard deviation per grid point for J_z, J_x, J_max, and discord, plus
statistics of the detected transition strength.

Determinism: the run seed spawns one child seed per sample index, samples are
drawn and reduced in index order, and nothing depends on wall-clock or
machine state, so identical arguments reproduce byte-identical outputs. The
samples are swept together, a chunk at a time (dynamics._sweeps), and are
drawn as the sweep reads each chunk; each sample's trajectory is bit for bit
its own sweep's.

Independent Gaussian entries are a modeling choice: real tomography errors
are correlated through the measurement counts, but the correlation structure
is generally not published alongside the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .correlations import ProjectiveBasis
from .dynamics import _check_seed, _is_count, _sweeps
from .errors import InvalidInputError
from .matrixio import MatrixFile, float_range_guard, project_to_physical

_QUANTITIES = ("j_z", "j_x", "j_max", "discord")


@dataclass(frozen=True)
class MonteCarloBands:
    """Per-strength means and standard deviations across noise resamples."""

    p: np.ndarray
    means: dict
    stds: dict
    samples: int
    seed: int
    transition_mean: Optional[float]
    transition_std: Optional[float]
    transition_count: int


def monte_carlo_bands(
    matrix: MatrixFile,
    channel_family: str,
    grid,
    *,
    samples: int,
    seed: int = 0,
    pointer_basis: Optional[ProjectiveBasis] = None,
) -> MonteCarloBands:
    """Propagate per-entry uncertainties through the sweep.

    Requires the matrix file to carry a std block and samples >= 2. Each
    sample adds zero-mean Gaussian noise entrywise (real and imaginary
    parts drawn independently at the entry's sigma), projects back to a
    physical state unconditionally (the 0.05 ingestion gate applies to the
    measured matrix, not to deliberately noised copies), and is swept with
    sweep's channel_family, grid and pointer_basis. grid=None means sweep's
    default grid (DEFAULT_GRID_POINTS strengths on [0, 1]). The samples are
    drawn as _sweeps reads each chunk of them, and _sweeps checks the grid
    and the channel family before it reads the first, so a refused grid or
    family draws nothing.

    A full-precision run (201 grid points, 1000 samples) sweeps 1000
    trajectories, five per chunk: on a shared 2-core host with one BLAS
    thread, `analyze --samples 1000` of the general two-qubit state that
    `einbench/inputs.py --seed 3` writes took 25 s under ad and 36 s under
    pd. Tests and quick looks should shrink samples and the grid.
    """
    if matrix.std is None:
        raise InvalidInputError(
            "matrix file carries no uncertainty block; nothing to propagate"
        )
    if not _is_count(samples, 2):
        raise InvalidInputError("Monte Carlo needs at least 2 samples")
    _check_seed(seed)
    base = matrix.raw

    def draws():
        for child in np.random.SeedSequence(seed).spawn(samples):
            rng = np.random.default_rng(child)
            with float_range_guard():
                noise = rng.normal(size=base.shape) * matrix.std
                noise = noise + 1j * (rng.normal(size=base.shape) * matrix.std)
                sample = base + noise
            yield project_to_physical(sample, max_distance=None)[0].entries

    transitions = []
    trajectories = _sweeps(draws(), channel_family, grid, pointer_basis=pointer_basis)
    for index, (records, transition_p) in enumerate(trajectories):
        if index == 0:
            # The first trajectory's records give the grid that _sweeps resolved.
            ps = np.array([r.p for r in records])
            series = {name: np.empty((samples, ps.size)) for name in _QUANTITIES}
        for name in _QUANTITIES:
            series[name][index] = [getattr(r, name) for r in records]
        if transition_p is not None:
            transitions.append(transition_p)

    means = {name: series[name].mean(axis=0) for name in _QUANTITIES}
    stds = {name: series[name].std(axis=0) for name in _QUANTITIES}
    return MonteCarloBands(
        p=ps,
        means=means,
        stds=stds,
        samples=samples,
        seed=seed,
        transition_mean=float(np.mean(transitions)) if transitions else None,
        transition_std=float(np.std(transitions)) if transitions else None,
        transition_count=len(transitions),
    )
