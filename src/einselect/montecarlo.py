"""Monte Carlo error propagation for reconstructed density matrices.

Tomographic reconstructions come with per-entry uncertainties. The bands here
resample every matrix entry with independent Gaussian noise at its stated
standard deviation (real and imaginary parts separately), push each sample
through the physicality projection and a full sweep, and report the mean and
standard deviation per grid point for J_z, J_x, J_max, and discord, plus
statistics of the detected transition strength.

Determinism: the run seed spawns one child seed per sample index, samples are
drawn and reduced in index order, and nothing depends on wall-clock or
machine state, so identical arguments reproduce byte-identical outputs. After
one check of the grid and family (dynamics._sweep_plan) the samples stream
through the one stacked sweep (dynamics._sweeps), drawn as it reads each
chunk; each sample's trajectory is bit for bit its own sweep's. The bands
read each sample's arrays as the sweep yields them, after its checks, and
build no record. `analyze` sweeps its point estimate at the head of the same
stack (_analysis), and only the point estimate becomes records.

Independent Gaussian entries are a modeling choice: real tomography errors
are correlated through the measurement counts, but the correlation structure
is generally not published alongside the matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .correlations import ProjectiveBasis
from .dynamics import _count, _report, _seed, _sweep_plan, _sweeps, check_gamma
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


def _checked(matrix: MatrixFile, samples, seed) -> tuple[int, int]:
    """The bands' own checks, in order: the std block, then samples, then seed.

    Returns samples and seed as ints.
    """
    if matrix.std is None:
        raise InvalidInputError(
            "matrix file carries no uncertainty block; nothing to propagate"
        )
    return _count(samples, 2, "Monte Carlo needs at least 2 samples"), _seed(seed)


def _draws(matrix: MatrixFile, samples: int, seed: int):
    """Each sample's noised and projected entries, in index order, as a generator.

    The run seed spawns one child seed per sample index. Each sample adds
    zero-mean Gaussian noise entrywise (real and imaginary parts drawn
    independently at the entry's sigma) and is projected back to a physical
    state unconditionally: the 0.05 ingestion gate applies to the measured
    matrix, not to deliberately noised copies.
    """
    base = matrix.raw
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        with float_range_guard():
            noise = rng.normal(size=base.shape) * matrix.std
            noise = noise + 1j * (rng.normal(size=base.shape) * matrix.std)
            sample = base + noise
        yield project_to_physical(sample, max_distance=None)[0].entries


def _bands(trajectories, ps: np.ndarray, samples: int, seed: int) -> MonteCarloBands:
    """The bands over ps, the plan's own grid copy, of the samples' (arrays, transition_p).

    Each sample's series are rows of its _sweeps arrays: j_z and j_x are the
    columns of j, then j_max and the checked discord.
    """
    series = {name: np.empty((samples, ps.size)) for name in _QUANTITIES}
    transitions = []
    for index, ((j_max, _, _, j, discord), transition_p) in enumerate(trajectories):
        for name, row in zip(_QUANTITIES, (j[:, 0], j[:, 1], j_max, discord)):
            series[name][index] = row
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
    sample (_draws) is the measured matrix plus Gaussian noise, projected
    back to a physical state, and is swept with sweep's channel_family, grid
    and pointer_basis. grid=None means sweep's default grid
    (DEFAULT_GRID_POINTS strengths on [0, 1]). Every input is checked, in
    analyze's order (grid, family, std block, samples, seed), before the
    first draw; the samples are drawn as _sweeps reads each chunk of them.
    The bands read the samples' arrays (_bands), after the sweep's sign
    tolerances and discord check, and no sample becomes records.

    A full-precision run (201 grid points, 1000 samples) sweeps 1000
    trajectories, five per chunk: on a shared 2-core host (Python 3.11,
    numpy 2.4 with its bundled OpenBLAS) with one BLAS thread,
    `analyze --samples 1000 --grid 201` of the general two-qubit state that
    `einbench/inputs.py --seed 3` writes took 5.7-6.4 s under ad and
    5.3-5.7 s under pd as a whole CLI process, while other tenants loaded
    the host. Tests and quick looks should shrink samples and the grid.
    """
    ps, basis = _sweep_plan(channel_family, grid, pointer_basis)
    samples, seed = _checked(matrix, samples, seed)
    return _bands(_sweeps(_draws(matrix, samples, seed), ps, basis), ps, samples, seed)


def _analysis(
    matrix: MatrixFile,
    channel_family: str,
    grid,
    *,
    gamma: float,
    samples: int,
    seed: int,
    pointer_basis: Optional[ProjectiveBasis],
):
    """sweep of the matrix file's state and, unless samples is 0, its monte_carlo_bands.

    Returns (report, bands), bands None for samples = 0. The point estimate
    and the samples are one stack of sweeps (dynamics._sweeps), the
    point estimate first, so its trajectory is read and its transition found
    in lockstep with the samples'; both results are bit for bit those of the
    separate calls. Only the point estimate's arrays become records. The
    checks run in the separate calls' order: gamma, then the grid and the
    channel family, then the std block, samples and seed.
    """
    gamma = check_gamma(gamma)
    ps, basis = _sweep_plan(channel_family, grid, pointer_basis)
    states = [matrix.state.entries]
    if samples:
        samples, seed = _checked(matrix, samples, seed)
        states = itertools.chain(states, _draws(matrix, samples, seed))
    trajectories = _sweeps(states, ps, basis)
    report = _report(matrix.state, basis, gamma, ps, *next(trajectories))
    return report, (_bands(trajectories, ps, samples, seed) if samples else None)
