"""Decoherence channels on the apparatus qubit, in Kraus form.

All channels are completely positive and trace preserving, act locally on the
apparatus (second) qubit, and are parametrized by a strength p in [0, 1].

Conventions fixed here:
  - phase damping is projective decoherence onto the sigma_z pointer basis,
    rho -> (1 - p) rho + p (P0 rho P0 + P1 rho P1): it multiplies sigma_z
    coherences by exactly (1 - p) and leaves populations fixed;
  - amplitude damping decays |1> to |0> with K0 = diag(1, sqrt(1-p)),
    K1 = [[0, sqrt(p)], [0, 0]].

A channel is a (K, 2, 2) array of Kraus operators. kraus_stack builds a
family's pairs over many strengths as one (N, 2, 2, 2) stack, which evolve
applies; the one-channel builders return one row of it.
"""

from __future__ import annotations

import numpy as np

from .correlations import ProjectiveBasis, _projectors
from .errors import InvalidStateError
from .qstate import DensityMatrix

_TP_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)


def _check_trace_preserving(ops: np.ndarray) -> None:
    """Raise unless a (N, K, 2, 2) stack is finite and each row has sum_k K^dag K = I (1e-12)."""
    if not np.isfinite(ops).all():
        raise InvalidStateError("Kraus operators must be finite numbers")
    dev = np.abs(np.einsum("nkji,nkjl->nil", ops.conj(), ops) - _I2)
    if dev.max() > _TP_TOL:
        worst = dev.max(axis=(-2, -1))
        raise InvalidStateError(
            "channel is not trace preserving: max |sum K^dag K - I| = "
            f"{worst[np.argmax(worst > _TP_TOL)]:.3e}"
        )


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


def phase_damping(p: float) -> np.ndarray:
    """Dephasing in the sigma_z basis: coherences shrink by (1 - p), populations fixed.

    The sigma_z case of pointer_decoherence, with Kraus pair
    {sqrt(1 - p/2) I, sqrt(p/2) sigma_z}.
    """
    return pointer_decoherence(ProjectiveBasis.sigma_z(), p)


def amplitude_damping(p: float) -> np.ndarray:
    """Dissipative decay of the apparatus excited state |1> into |0>, as a (2, 2, 2) pair."""
    return kraus_stack(None, [p])[0]


def pointer_decoherence(basis: ProjectiveBasis, q: float) -> np.ndarray:
    """Partial projective decoherence onto an arbitrary pointer basis.

    Realizes rho -> (1 - q) rho + q sum_i Pi_i rho Pi_i as the Kraus pair
    {sqrt(1 - q/2) I, sqrt(q/2) (Pi_0 - Pi_1)}, since averaging a state with
    its reflection through the basis axis is the same convex combination.
    Returns the (2, 2, 2) pair, whose second operator is zero at q = 0.

    Args:
        basis: a ProjectiveBasis (complete pair of orthogonal rank-1 projectors).
        q: mixing weight in [0, 1].
    """
    return kraus_stack(basis, [q])[0]


def kraus_stack(basis: ProjectiveBasis | np.ndarray | None, ps) -> np.ndarray:
    """One channel family's Kraus pairs at every strength in ps, as one (N, 2, 2, 2) stack.

    The family is dephasing onto basis, or amplitude damping for None, and
    pointer_decoherence and amplitude_damping are the N = 1 case. A pair's
    second operator is zero at strength 0. basis is one ProjectiveBasis for
    every strength, or one basis per strength given as a (N, 2, 2) stack of
    its measurement kets (ProjectiveBasis.kets). Finiteness and trace
    preservation are checked once over the stack.
    """
    ps = _check_strengths(ps)
    if basis is None:
        ops = _damping_ops(ps)
    elif isinstance(basis, ProjectiveBasis):
        ops = _dephasing_ops(basis.kets(), ps)
    else:
        ops = _dephasing_ops(basis, ps)
    _check_trace_preserving(ops)
    return ops


def evolve(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_k (I tensor K_k) rho (I tensor K_k)^dag for each row of a (N, K, 2, 2) Kraus stack.

    states holds the two-qubit entries: one (4, 4) state that every row
    evolves, or a (N, 4, 4) stack whose row n evolves under row n of ops.
    Returns the N evolved entries as an unvalidated (N, 4, 4) array. The
    system marginal is untouched by construction (local operation).
    """
    m = np.asarray(states)
    if m.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a two-qubit state, got dim {m.shape[-1]}")
    out = np.zeros((len(ops), 4, 4), dtype=complex)
    lifted = np.zeros((len(ops), 4, 4), dtype=complex)
    for k in range(ops.shape[1]):
        lifted[:, :2, :2] = lifted[:, 2:, 2:] = ops[:, k]
        # The sum starts at +0.0 and so never holds -0.0: zero terms of either
        # sign (zeros of lifted, an all-zero operator) change no bit.
        out += lifted @ m @ lifted.conj().swapaxes(-1, -2)
    return out


def apply_to_apparatus(ops, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel, a (K, 2, 2) array of Kraus operators, to the apparatus of rho.

    evolve for one channel. ops comes from outside, so it is checked first: at
    least one 2x2 operator, all finite, and trace preserving (InvalidStateError).
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.size == 0:
        raise InvalidStateError("a channel needs at least one Kraus operator")
    if ops.ndim != 3 or ops.shape[1:] != (2, 2):
        raise InvalidStateError(f"need a (K, 2, 2) stack of 2x2 Kraus operators, got {ops.shape}")
    _check_trace_preserving(ops[None])
    return DensityMatrix(evolve(ops[None], rho.entries)[0])
