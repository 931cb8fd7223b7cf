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

from .correlations import ProjectiveBasis, _projectors
from .errors import InvalidStateError
from .qstate import DensityMatrix

_TP_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)


def _check_trace_preserving(ops: np.ndarray) -> None:
    """Raise unless every row of a (N, K, 2, 2) stack has sum_k K^dag K = I within 1e-12."""
    dev = np.abs((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=1) - _I2)
    if dev.max() > _TP_TOL:
        worst = dev.max(axis=(-2, -1))
        raise InvalidStateError(
            "channel is not trace preserving: max |sum K^dag K - I| = "
            f"{worst[np.argmax(worst > _TP_TOL)]:.3e}"
        )


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
        _check_trace_preserving(np.array(ops)[None])
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "operators", ops)


def _check_strengths(ps) -> np.ndarray:
    """Channel strengths as a float array; raises for the first one outside [0, 1]."""
    ps = np.asarray(ps, dtype=float)
    # nan fails both comparisons
    if not (ps.min() >= 0.0 and ps.max() <= 1.0):
        bad = ~((ps >= 0.0) & (ps <= 1.0))
        raise InvalidStateError(
            f"channel strength must be in [0, 1], got {float(ps[np.argmax(bad)])}"
        )
    return ps


def _damping_ops(ps: np.ndarray) -> np.ndarray:
    """Amplitude-damping pairs K0 = diag(1, sqrt(1-p)), K1 = [[0, sqrt(p)], [0, 0]].

    Returns (N, 2, 2, 2), one pair per strength.
    """
    ops = np.zeros((ps.size, 2, 2, 2), dtype=complex)
    ops[:, 0, 0, 0] = 1.0
    ops[:, 0, 1, 1] = np.sqrt(1.0 - ps)
    ops[:, 1, 0, 1] = np.sqrt(ps)
    return ops


def _dephasing_ops(kets: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Pairs {sqrt(1 - q/2) I, sqrt(q/2) (Pi_0 - Pi_1)} for each q, (N, 2, 2, 2).

    kets holds the measurement kets of one basis as (2, 2), or of one basis per
    q as (N, 2, 2).
    """
    proj = _projectors(kets)
    reflection = proj[..., 0, :, :] - proj[..., 1, :, :]
    half = qs / 2.0
    weights = np.sqrt(np.array([1.0 - half, half]).T)
    return weights[:, :, None, None] * np.stack(np.broadcast_arrays(_I2, reflection), axis=-3)


def _channel(pair: np.ndarray) -> KrausChannel:
    """The channel of one Kraus pair, without an operator that vanishes (strength 0)."""
    return KrausChannel(operators=tuple(k for k in pair if k.any()))


def phase_damping(p: float) -> KrausChannel:
    """Dephasing in the sigma_z basis: coherences shrink by (1 - p), populations fixed.

    The sigma_z case of pointer_decoherence, with Kraus pair
    {sqrt(1 - p/2) I, sqrt(p/2) sigma_z}.
    """
    return pointer_decoherence(ProjectiveBasis.sigma_z(), p)


def amplitude_damping(p: float) -> KrausChannel:
    """Dissipative decay of the apparatus excited state |1> into |0>."""
    return _channel(_damping_ops(_check_strengths([p]))[0])


def pointer_decoherence(basis: ProjectiveBasis, q: float) -> KrausChannel:
    """Partial projective decoherence onto an arbitrary pointer basis.

    Realizes rho -> (1 - q) rho + q sum_i Pi_i rho Pi_i as the Kraus pair
    {sqrt(1 - q/2) I, sqrt(q/2) (Pi_0 - Pi_1)}, since averaging a state with
    its reflection through the basis axis is the same convex combination.

    Args:
        basis: a ProjectiveBasis (complete pair of orthogonal rank-1 projectors).
        q: mixing weight in [0, 1].
    """
    return _channel(_dephasing_ops(np.array(basis.kets()), _check_strengths([q]))[0])


def kraus_stack(basis: ProjectiveBasis | np.ndarray | None, ps) -> np.ndarray:
    """One channel family's Kraus pairs at every strength in ps, as one (N, 2, 2, 2) stack.

    The family is dephasing onto basis, or amplitude damping for None; each
    pair is the one pointer_decoherence or amplitude_damping builds at that
    strength, whose second operator is zero at strength 0. basis is one
    ProjectiveBasis for every strength, or one basis per strength given as
    a (N, 2, 2) stack of its measurement kets (ProjectiveBasis.kets). Trace
    preservation is checked once over the stack.
    """
    ps = _check_strengths(ps)
    if basis is None:
        ops = _damping_ops(ps)
    elif isinstance(basis, ProjectiveBasis):
        ops = _dephasing_ops(np.array(basis.kets()), ps)
    else:
        ops = _dephasing_ops(basis, ps)
    _check_trace_preserving(ops)
    return ops


def evolve(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k (I tensor K_k) rho (I tensor K_k)^dag for each row of a (N, K, 2, 2) Kraus stack.

    states holds the two-qubit entries: one (4, 4) state that every row
    evolves, or a (N, 4, 4) stack whose row n evolves under row n of ops.
    An all-zero operator is not part of its row's channel, and its term is
    not added. Returns the N evolved entries as an unvalidated (N, 4, 4)
    array. The system marginal is untouched by construction (local
    operation).
    """
    m = np.asarray(states)
    if m.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a two-qubit state, got dim {m.shape[-1]}")
    present = ops.any(axis=(-2, -1))
    out = np.zeros((len(ops), 4, 4), dtype=complex)
    lifted = np.zeros((len(ops), 4, 4), dtype=complex)
    for k in range(ops.shape[1]):
        lifted[:, :2, :2] = lifted[:, 2:, 2:] = ops[:, k]
        term = lifted @ m @ lifted.conj().swapaxes(-1, -2)
        # The sum starts at +0.0, so the signs of exact zeros in lifted
        # (np.kron would give some -0.0) cannot reach the result.
        np.add(out, term, out=out, where=present[:, k, None, None])
    return out


def apply_to_apparatus(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to the apparatus qubit of a two-qubit state: evolve for one channel."""
    return DensityMatrix(evolve(np.array(channel.operators)[None], rho.entries)[0])
