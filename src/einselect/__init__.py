"""Pointer-basis emergence in a decohering two-qubit pair.

A system qubit is measured by an apparatus qubit that decoheres through a
Kraus channel. This package computes how much classical information about
the system each apparatus measurement basis retrieves, maximizes that over
all rank-1 projective bases, tracks quantum discord, detects the sudden
change where the optimal basis jumps onto the decoherence-selected pointer
basis at a finite channel strength, and verifies the governing theorems
numerically. A CLI emits reproducible CSV/JSON trajectories, closed-form
emergence times, and Monte Carlo error bands for tomographically
reconstructed input states.
"""

from .channels import (
    DecayRate,
    KrausChannel,
    amplitude_damping,
    apply_to_apparatus,
    phase_damping,
    pointer_decoherence,
)
from .correlations import (
    CorrelationRecord,
    OptimizerSettings,
    ProjectiveBasis,
    basis_distance,
    classical_correlation,
    conditional_state,
    maximize_classical_correlation,
    mutual_information,
    quantum_discord,
)
from .dynamics import (
    REGIME_CONSTANT,
    REGIME_DECAY_THEN_CONSTANT,
    REGIME_MONOTONIC_DECAY,
    REGIME_SUDDEN_CHANGE,
    EmergenceResult,
    TrajectoryReport,
    classify_regime,
    detect_transition,
    emergence_time,
    sweep,
)
from .errors import (
    DataQualityError,
    InvalidInputError,
    InvalidStateError,
    OptimizationError,
)
from .matrixio import (
    MatrixFile,
    PhysicalityReport,
    emit_report,
    parse_matrix_file,
    project_to_physical,
    write_matrix_file,
)
from .montecarlo import MonteCarloBands, RunConfig, monte_carlo_bands
from .qstate import (
    STATE_1,
    STATE_2,
    DensityMatrix,
    XStateParams,
    make_x_state,
    partial_trace,
    remark_state,
    von_neumann_entropy,
    x_state_params,
)
from .verify import (
    VerificationOutcome,
    random_basis,
    random_cq_state,
    random_density_matrix,
    random_x_state_params,
    verify_lemma1,
    verify_remark,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationRecord",
    "DataQualityError",
    "DecayRate",
    "DensityMatrix",
    "EmergenceResult",
    "InvalidInputError",
    "InvalidStateError",
    "KrausChannel",
    "MatrixFile",
    "MonteCarloBands",
    "OptimizationError",
    "OptimizerSettings",
    "PhysicalityReport",
    "ProjectiveBasis",
    "REGIME_CONSTANT",
    "REGIME_DECAY_THEN_CONSTANT",
    "REGIME_MONOTONIC_DECAY",
    "REGIME_SUDDEN_CHANGE",
    "RunConfig",
    "STATE_1",
    "STATE_2",
    "TrajectoryReport",
    "VerificationOutcome",
    "XStateParams",
    "amplitude_damping",
    "apply_to_apparatus",
    "basis_distance",
    "classical_correlation",
    "classify_regime",
    "conditional_state",
    "detect_transition",
    "emergence_time",
    "emit_report",
    "make_x_state",
    "maximize_classical_correlation",
    "monte_carlo_bands",
    "mutual_information",
    "parse_matrix_file",
    "partial_trace",
    "phase_damping",
    "pointer_decoherence",
    "project_to_physical",
    "quantum_discord",
    "random_basis",
    "random_cq_state",
    "random_density_matrix",
    "random_x_state_params",
    "remark_state",
    "sweep",
    "verify_lemma1",
    "verify_remark",
    "verify_theorem1",
    "verify_theorem2",
    "von_neumann_entropy",
    "write_matrix_file",
    "x_state_params",
]
