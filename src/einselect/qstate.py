"""Exact density-matrix algebra for one- and two-qubit states.

Construction and validation of states, the X-state family, partial trace,
and von Neumann entropy (in bits). Two-qubit basis ordering is
|system> tensor |apparatus>: index (s, a) -> 2 s + a.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Eigenvalues in [-PSD_FLOOR, 0) are treated as exact zeros; anything below
# -PSD_FLOOR is an invalid state, not a rounding artifact.
PSD_FLOOR = 1e-10


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_states(m: np.ndarray) -> np.ndarray:
    """Validate a (N, d, d) stack of density matrices; return their eigenvalues.

    Each state must be finite, Hermitian within HERMITICITY_TOL, of unit trace
    within TRACE_TOL, and have no eigenvalue below -PSD_FLOOR. One eigvalsh
    covers the stack, and the ascending eigenvalues come back as (N, d). For
    the first state that fails, raises InvalidStateError with the text that
    DensityMatrix gives that state alone, which is this check on a (1, d, d)
    view.
    """
    # An inf or nan entry makes its element of m - m^dag inf or nan, which
    # fails the <= comparisons below.
    with np.errstate(invalid="ignore"):
        herm = np.abs(m - m.conj().swapaxes(-1, -2))
    tr = m.trace(axis1=-2, axis2=-1)
    if herm.max() <= HERMITICITY_TOL and np.abs(tr - 1.0).max() <= TRACE_TOL:
        vals = np.linalg.eigvalsh(m)
        if vals[:, 0].min() >= -PSD_FLOOR:
            return vals
    raise InvalidStateError(_first_failure(m, herm.max(axis=(-2, -1)), tr))


def _first_failure(m: np.ndarray, herm: np.ndarray, tr: np.ndarray) -> str:
    """Why the first failing state of a stack fails check_states."""
    early = ~(herm <= HERMITICITY_TOL) | (np.abs(tr - 1.0) > TRACE_TOL)
    # eigvalsh runs only on the states that passed the checks above.
    lowest = np.zeros(len(m))
    lowest[~early] = np.linalg.eigvalsh(m[~early])[:, 0]
    k = int(np.argmax(early | (lowest < -PSD_FLOOR)))
    if not math.isfinite(herm[k]):
        return "entries must be finite numbers"
    if herm[k] > HERMITICITY_TOL:
        return f"not Hermitian: max |m - m^dag| = {herm[k]:.3e} exceeds {HERMITICITY_TOL}"
    if early[k]:
        return f"trace = {tr[k]:.15g} differs from 1 by more than {TRACE_TOL}"
    return (
        f"not positive semidefinite: smallest eigenvalue {float(lowest[k]):.3e} "
        f"below -{PSD_FLOOR}"
    )


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite.

    Attributes:
        entries: complex (dim, dim) array; read-only.
        dim: 2 (single qubit) or 4 (system-apparatus pair).
        eigenvalues: ascending eigvalsh(entries) from the positivity check;
            read-only.
    """

    entries: np.ndarray
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        if m.shape[0] not in (2, 4):
            raise InvalidStateError(f"dim must be 2 or 4, got {m.shape[0]}")
        vals = check_states(m[None])[0]
        m.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "eigenvalues", vals)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype or complex)


@dataclass(frozen=True)
class XStateParams:
    """Parameters of the two-qubit X-state family.

    The matrix has diagonal (c, b, b, c), corner anti-diagonal coherence w,
    and center anti-diagonal coherence z. Unit trace requires 2c + 2b = 1;
    positivity requires |w| <= c and |z| <= b (eigenvalues are c +- w, b +- z).
    """

    c: float
    b: float
    z: float
    w: float

    def __post_init__(self):
        values = (self.c, self.b, self.z, self.w)
        if not all(math.isfinite(v) for v in values):
            raise InvalidStateError(f"parameters must be finite numbers, got {values}")
        if abs(2 * self.c + 2 * self.b - 1.0) > TRACE_TOL:
            raise InvalidStateError(
                f"trace invariant violated: 2c + 2b = {2 * self.c + 2 * self.b:.15g}, "
                "expected 1"
            )
        if abs(self.w) > self.c:
            raise InvalidStateError(
                f"positivity invariant violated: |w| = {abs(self.w):.15g} exceeds "
                f"c = {self.c:.15g}"
            )
        if abs(self.z) > self.b:
            raise InvalidStateError(
                f"positivity invariant violated: |z| = {abs(self.z):.15g} exceeds "
                f"b = {self.b:.15g}"
            )


# Reference states: strongly and weakly corner-coherent.
STATE_1 = XStateParams(c=0.4, b=0.1, z=0.1, w=0.4)
STATE_2 = XStateParams(c=0.4, b=0.1, z=0.1, w=0.15)


def make_x_state(params: XStateParams) -> DensityMatrix:
    """Build the X-state density matrix for the given parameters.

    Layout in the |00>, |01>, |10>, |11> basis (system qubit first):
    diagonal (c, b, b, c), entries [0,3] = [3,0] = w, [1,2] = [2,1] = z.
    """
    c, b, z, w = params.c, params.b, params.z, params.w
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = c
    m[1, 1] = m[2, 2] = b
    m[0, 3] = m[3, 0] = w
    m[1, 2] = m[2, 1] = z
    return DensityMatrix(m)


def x_state_params(rho: DensityMatrix) -> XStateParams | None:
    """Read X-state parameters back from a two-qubit state, if it has X form.

    Returns None when the matrix is not an X state (off-pattern entries above
    1e-12, non-real coherences, or diagonal not of the (c, b, b, c) shape).
    """
    if rho.dim != 4:
        return None
    m = rho.entries
    pattern = np.zeros((4, 4), dtype=bool)
    pattern[[0, 1, 2, 3], [0, 1, 2, 3]] = True
    pattern[[0, 1, 2, 3], [3, 2, 1, 0]] = True
    if np.max(np.abs(m[~pattern])) > 1e-12:
        return None
    if max(abs(m[0, 0] - m[3, 3]), abs(m[1, 1] - m[2, 2])) > 1e-12:
        return None
    if max(abs(m[0, 3].imag), abs(m[1, 2].imag)) > 1e-12:
        return None
    try:
        return XStateParams(
            c=m[0, 0].real, b=m[1, 1].real, z=m[1, 2].real, w=m[0, 3].real
        )
    except InvalidStateError:
        return None


def remark_state() -> DensityMatrix:
    """The zero-pointer-correlation counterexample state (I + sigma_x tensor sigma_x)/4.

    An equal mixture of |++><++| and |--><--|: perfectly correlated along x,
    completely uncorrelated along z.
    """
    m = np.eye(4, dtype=complex) / 4
    m[[0, 1, 2, 3], [3, 2, 1, 0]] += 0.25
    return DensityMatrix(m)


def reduced_states(m: np.ndarray, keep: str) -> np.ndarray:
    """Partial traces of a (N, 4, 4) stack of two-qubit states, as (N, 2, 2).

    Args:
        m: entries in |system> tensor |apparatus> ordering.
        keep: "system" or "apparatus".
    """
    r = m.reshape(-1, 2, 2, 2, 2)
    if keep == "system":
        return r.trace(axis1=2, axis2=4)
    if keep == "apparatus":
        return r.trace(axis1=1, axis2=3)
    raise InvalidStateError(f"keep must be 'system' or 'apparatus', got {keep!r}")


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a two-qubit state to one subsystem: reduced_states of one state.

    Args:
        rho: a 4x4 state in |system> tensor |apparatus> ordering.
        keep: "system" or "apparatus".
    """
    if rho.dim != 4:
        raise InvalidStateError(f"partial_trace needs a two-qubit state, got dim {rho.dim}")
    return DensityMatrix(reduced_states(rho.entries[None], keep)[0])


def entropies(eigenvalues: np.ndarray) -> np.ndarray:
    """Entropy -sum lambda_k log2 lambda_k in bits over the last axis, 0 log 0 = 0.

    Takes eigenvalues from check_states; those in [-PSD_FLOOR, 0) count as
    zero, and the check rejected lower ones.
    """
    x = np.clip(eigenvalues, 0.0, None)
    return -np.sum(x * np.log2(x, out=np.zeros_like(x), where=x > 0.0), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of one state in bits, from the eigenvalues its validation computed."""
    return float(entropies(rho.eigenvalues))
