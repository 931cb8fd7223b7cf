"""Exact density-matrix algebra for one- and two-qubit states.

Construction and validation of states, the X-state family, partial trace,
and von Neumann entropy (in bits). Two-qubit basis ordering is
|system> tensor |apparatus>: index (s, a) -> 2 s + a.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite.

    Attributes:
        entries: complex (dim, dim) array; read-only.
        dim: 2 (single qubit) or 4 (system-apparatus pair).
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_complex_matrix(self.entries)
        if m.shape[0] not in (2, 4):
            raise InvalidStateError(f"dim must be 2 or 4, got {m.shape[0]}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(
                f"not Hermitian: max |m - m^dag| = {herm:.3e} exceeds {HERMITICITY_TOL}"
            )
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(
                f"trace = {tr:.15g} differs from 1 by more than {TRACE_TOL}"
            )
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -PSD_FLOOR:
            raise InvalidStateError(
                f"not positive semidefinite: smallest eigenvalue {lo:.3e} "
                f"below -{PSD_FLOOR}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])

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


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a two-qubit state to one subsystem.

    Args:
        rho: a 4x4 state in |system> tensor |apparatus> ordering.
        keep: "system" or "apparatus".
    """
    if rho.dim != 4:
        raise InvalidStateError(f"partial_trace needs a two-qubit state, got dim {rho.dim}")
    r = rho.entries.reshape(2, 2, 2, 2)
    if keep == "system":
        reduced = np.trace(r, axis1=1, axis2=3)
    elif keep == "apparatus":
        reduced = np.trace(r, axis1=0, axis2=2)
    else:
        raise InvalidStateError(f"keep must be 'system' or 'apparatus', got {keep!r}")
    return DensityMatrix(reduced)


def _entropy_from_eigenvalues(vals: np.ndarray) -> float:
    vals = np.asarray(vals, dtype=float)
    lo = float(vals.min(initial=0.0))
    if lo < -PSD_FLOOR:
        raise InvalidStateError(
            f"eigenvalue {lo:.3e} below -{PSD_FLOOR}: not a valid state"
        )
    vals = np.clip(vals, 0.0, None)
    pos = vals[vals > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum lambda_k log2 lambda_k in bits, with 0 log 0 = 0.

    Eigenvalues in [-1e-10, 0) are clipped to zero; lower ones raise, since a
    state that negative was never valid.
    """
    return _entropy_from_eigenvalues(np.linalg.eigvalsh(rho.entries))

