"""Decoherence channels on the apparatus qubit, in Kraus form.

All channels are completely positive and trace preserving, act locally on the
apparatus (second) qubit, and are parametrized by a strength p in [0, 1].

Conventions fixed here:
  - phase damping is projective decoherence onto the sigma_z pointer basis,
    rho -> (1 - p) rho + p (P0 rho P0 + P1 rho P1): it multiplies sigma_z
    coherences by exactly (1 - p) and leaves populations fixed;
  - amplitude damping decays |1> to |0> with K0 = diag(1, sqrt(1-p)),
    K1 = [[0, sqrt(p)], [0, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import ProjectiveBasis
from .errors import InvalidStateError
from .qstate import DensityMatrix

_TP_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map as a list of 2x2 Kraus operators acting on the apparatus.

    Invariant: sum_k K_k^dag K_k = I within 1e-12 (trace preservation).
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise InvalidStateError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (2, 2):
                raise InvalidStateError(f"Kraus operators must be 2x2, got {k.shape}")
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - _I2))
        if dev > _TP_TOL:
            raise InvalidStateError(
                f"channel is not trace preserving: max |sum K^dag K - I| = {dev:.3e}"
            )
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "operators", ops)


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidStateError(f"channel strength must be in [0, 1], got {p}")
    return p


def phase_damping(p: float) -> KrausChannel:
    """Dephasing in the sigma_z basis: coherences shrink by (1 - p), populations fixed.

    The sigma_z case of pointer_decoherence, with Kraus pair
    {sqrt(1 - p/2) I, sqrt(p/2) sigma_z}.
    """
    return pointer_decoherence(ProjectiveBasis.sigma_z(), p)


def amplitude_damping(p: float) -> KrausChannel:
    """Dissipative decay of the apparatus excited state |1> into |0>."""
    p = _check_p(p)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    ops = (k0,) if p == 0.0 else (k0, k1)
    return KrausChannel(operators=ops)


def pointer_decoherence(basis: ProjectiveBasis, q: float) -> KrausChannel:
    """Partial projective decoherence onto an arbitrary pointer basis.

    Realizes rho -> (1 - q) rho + q sum_i Pi_i rho Pi_i as the Kraus pair
    {sqrt(1 - q/2) I, sqrt(q/2) (Pi_0 - Pi_1)}, since averaging a state with
    its reflection through the basis axis is the same convex combination.

    Args:
        basis: a ProjectiveBasis (complete pair of orthogonal rank-1 projectors).
        q: mixing weight in [0, 1].
    """
    q = _check_p(q)
    p0, p1 = basis.projectors
    ident = np.sqrt(1.0 - q / 2.0) * _I2
    reflect = np.sqrt(q / 2.0) * (p0 - p1)
    ops = (ident,) if q == 0.0 else (ident, reflect)
    return KrausChannel(operators=ops)


def apply_to_apparatus(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to the apparatus qubit of a two-qubit state.

    Computes sum_k (I tensor K_k) rho (I tensor K_k)^dag. The system marginal
    is untouched by construction (local operation).
    """
    if rho.dim != 4:
        raise InvalidStateError(f"expected a two-qubit state, got dim {rho.dim}")
    out = np.zeros((4, 4), dtype=complex)
    for k in channel.operators:
        lifted = np.kron(_I2, k)
        out += lifted @ rho.entries @ lifted.conj().T
    return DensityMatrix(out)

