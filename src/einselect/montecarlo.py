"""Monte Carlo error propagation for reconstructed density matrices.

Tomographic reconstructions come with per-entry uncertainties. The bands here
resample every matrix entry with independent Gaussian noise at its stated
standard deviation (real and imaginary parts separately), push each sample
through the physicality projection and a full sweep, and report the mean and
standard deviation per grid point for J_z, J_x, J_max, and discord, plus
statistics of the detected transition strength.

Determinism: the run seed spawns one child seed per sample index, samples are
reduced in index order, and nothing depends on wall-clock or machine state,
so identical configurations reproduce byte-identical outputs. Samples are
independent, so they could be evaluated concurrently without changing any
result; the reduction order is fixed by the sample index either way.

Independent Gaussian entries are a modeling choice: real tomography errors
are correlated through the measurement counts, but the correlation structure
is generally not published alongside the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import check_gamma
from .correlations import OptimizerSettings, ProjectiveBasis
from .dynamics import sweep
from .errors import InvalidInputError
from .matrixio import MatrixFile, project_to_physical

_QUANTITIES = ("j_z", "j_x", "j_max", "discord")


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible analysis run needs beyond the state itself."""

    channel: str = "pd"
    gamma: float = 1.0
    grid_points: int = 201
    samples: int = 1000
    seed: int = 0
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    pointer_theta: float = 0.0
    pointer_phi: float = 0.0

    def __post_init__(self):
        if self.grid_points < 2:
            raise InvalidInputError("grid needs at least 2 points")
        check_gamma(self.gamma, InvalidInputError)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_points)

    @property
    def pointer_basis(self) -> ProjectiveBasis:
        return ProjectiveBasis(self.pointer_theta, self.pointer_phi)


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


def monte_carlo_bands(matrix: MatrixFile, config: RunConfig) -> MonteCarloBands:
    """Propagate per-entry uncertainties through the sweep.

    Requires the matrix file to carry a std block and config.samples >= 2.
    Each sample adds zero-mean Gaussian noise entrywise (real and imaginary
    parts drawn independently at the entry's sigma), projects back to a
    physical state unconditionally (the 0.05 ingestion gate applies to the
    measured matrix, not to deliberately noised copies), and sweeps it.

    A full-precision run (201 grid points, 1000 samples, default optimizer)
    is minutes of work; tests and quick looks should shrink samples,
    grid_points, and the optimizer grid through RunConfig.
    """
    if matrix.std is None:
        raise InvalidInputError(
            "matrix file carries no uncertainty block; nothing to propagate"
        )
    if config.samples < 2:
        raise InvalidInputError("Monte Carlo needs at least 2 samples")

    base = matrix.raw
    grid = config.grid
    children = np.random.SeedSequence(config.seed).spawn(config.samples)
    series = {name: np.empty((config.samples, grid.size)) for name in _QUANTITIES}
    transitions = []
    for index in range(config.samples):
        rng = np.random.default_rng(children[index])
        noise = rng.normal(size=base.shape) * matrix.std
        noise = noise + 1j * (rng.normal(size=base.shape) * matrix.std)
        state, _ = project_to_physical(base + noise, max_distance=None)
        report = sweep(
            state,
            config.channel,
            grid,
            gamma=config.gamma,
            pointer_basis=config.pointer_basis,
            settings=config.optimizer,
        )
        for name in _QUANTITIES:
            series[name][index] = [getattr(r, name) for r in report.records]
        if report.transition_p is not None:
            transitions.append(report.transition_p)

    means = {name: series[name].mean(axis=0) for name in _QUANTITIES}
    stds = {name: series[name].std(axis=0) for name in _QUANTITIES}
    return MonteCarloBands(
        p=grid,
        means=means,
        stds=stds,
        samples=config.samples,
        seed=config.seed,
        transition_mean=float(np.mean(transitions)) if transitions else None,
        transition_std=float(np.std(transitions)) if transitions else None,
        transition_count=len(transitions),
    )
