"""Exact density-matrix algebra for one- and two-qubit states.

Construction and validation of states, the X-state family, partial trace,
and von Neumann entropy (in bits). check_states validates a stack and gives
each state's spectrum: a qubit's in closed form (_qubit_spectra, bit for bit
what eigvalsh gives, without a LAPACK call), a pair's from eigvalsh.
certify_states validates a stack of pairs whose spectra no caller reads,
with one Cholesky factorization in place of the eigensolver; it accepts
and refuses exactly what check_states does, with the same texts.
Two-qubit basis ordering is |system> tensor |apparatus>: index (s, a) ->
2 s + a.
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
    within TRACE_TOL, and have no eigenvalue below -PSD_FLOOR. The ascending
    eigenvalues come back as (N, d): for qubits from _qubit_spectra, which
    gives eigvalsh's bits without calling LAPACK, and for pairs from one
    eigvalsh over the stack. A caller that reads no spectrum of a pair
    stack runs certify_states instead. For the first state that fails,
    raises InvalidStateError with the text that DensityMatrix gives that
    state alone, which is this check on a (1, d, d) view.
    """
    herm, tr, passed = _hermitian_unit_trace(m)
    if passed:
        vals = _qubit_spectra(m) if m.shape[-1] == 2 else np.linalg.eigvalsh(m)
        # A nan eigenvalue (an overflowed qubit spectrum) fails this too.
        if vals[:, 0].min() >= -PSD_FLOOR:
            return vals
    raise InvalidStateError(_first_failure(m, herm.max(axis=1), tr))


# Cholesky of m + _CERTIFICATE_SHIFT * I succeeds only where eigvalsh's lowest
# eigenvalue of m is at least -PSD_FLOOR (certify_states).
_CERTIFICATE_SHIFT = (PSD_FLOOR - 1e-12) * np.eye(4)


def certify_states(m: np.ndarray) -> None:
    """Validate a (N, 4, 4) stack as check_states does, without computing its spectra.

    After check_states' Hermitian and trace tests, and only if every
    |m_ij| <= 1, one batched Cholesky factorization of
    m + (PSD_FLOOR - 1e-12) I certifies positivity. Every valid state has
    |m_ij| <= 1, so ||m||_2 <= 4: Cholesky's backward error (Demmel, LAPACK
    Working Note 14, 1989; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.5) is then about 2e-15 and eigvalsh's own
    error about 1e-15, both far below the 1e-12 margin, so a factorization
    that succeeds proves that check_states accepts the stack. Where the
    factorization fails, or an entry exceeds 1 in modulus, check_states
    itself runs and accepts the stack or raises its text. So the stacks
    accepted and every error text are check_states'; rank-deficient states
    (pure states, X states at p = 0) pass through the shift.
    """
    if _hermitian_unit_trace(m)[2] and np.abs(m).max() <= 1.0:
        try:
            np.linalg.cholesky(m + _CERTIFICATE_SHIFT)
            return
        except np.linalg.LinAlgError:
            pass
    check_states(m)


def _hermitian_unit_trace(m: np.ndarray):
    """The Hermitian and trace tests of a (N, d, d) stack.

    Returns each state's deviations (_hermitian_deviations), each trace,
    and whether every state is Hermitian within HERMITICITY_TOL and of
    unit trace within TRACE_TOL; a nan or inf entry fails.
    """
    herm = _hermitian_deviations(m)
    tr = m.trace(axis1=-2, axis2=-1)
    return herm, tr, herm.max() <= HERMITICITY_TOL and np.abs(tr - 1.0).max() <= TRACE_TOL


def _upper_pairs(d: int):
    """Flat indices of each entry (i, j), i <= j, of a d x d matrix, then of each (j, i).

    Also returns how many entries have i <= j. Built in Python: np.triu_indices
    would page in numpy code that nothing else runs (64 KiB of resident memory).
    """
    upper = [(i, j) for i in range(d) for j in range(i, d)]
    flat = [i * d + j for i, j in upper] + [j * d + i for i, j in upper]
    return np.array(flat), len(upper)


_UPPER_PAIRS = {d: _upper_pairs(d) for d in (2, 4)}


def _hermitian_deviations(m: np.ndarray) -> np.ndarray:
    """|m_ij - conj(m_ji)| for each i <= j of a (N, d, d) stack, d = 2 or 4.

    Each off-diagonal pair is compared once, since |a - conj(b)| and
    |b - conj(a)| are the same float, and each diagonal entry with its own
    conjugate, so each state's maximum has the bits of the full
    max |m - m^dag|. An inf or nan entry gives inf or nan (a real inf on the
    diagonal gives inf - inf), which fails the <= comparisons of check_states.
    Returns (N, d(d + 1)/2).
    """
    pairs, half = _UPPER_PAIRS[m.shape[-1]]
    both = m.reshape(len(m), -1)[:, pairs]
    upper, lower = both[:, :half], both[:, half:]
    with np.errstate(invalid="ignore"):
        np.conjugate(lower, out=lower)
        np.subtract(upper, lower, out=lower)
        return np.abs(lower)


# LAPACK's dlamch('E') and zlarfg's threshold dlamch('S') / dlamch('E').
_EPS = 2.0**-53
_SAFMIN = 2.0**-969


def _qubit_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (N, 2, 2) Hermitian stack, bit for bit eigvalsh's.

    Repeats the arithmetic of LAPACK zheevd (jobz 'N', lower triangle), which
    np.linalg.eigvalsh runs on each matrix: zhetd2 (_tridiagonal), then
    dsterf's two split tests and dlae2. It assumes what check_states checks,
    a trace near 1: no zheevd or dsterf rescaling (|m[1, 0]| below about
    1e146) and no dlae2 branch for a trace <= 0. Past about |m[1, 0]| =
    1e154 the lowest eigenvalue comes out nan.
    """
    out = np.empty((len(m), 2))
    a = m[:, 0, 0].real
    with np.errstate(all="ignore"):
        c, e = _tridiagonal(m)
        abs_a = np.abs(a)
        abs_c = np.abs(c)
        split = np.abs(e) <= np.sqrt(abs_a) * np.sqrt(abs_c) * _EPS
        e2 = np.multiply(e, e, out=e)
        split |= e2 <= _EPS * _EPS * np.abs(a * c)
        # dlae2 on (a, sqrt(e^2), c); rt is sqrt((a - c)^2 + 4 e^2) as dlae2 scales it.
        rte = np.sqrt(e2, out=e2)
        adf = np.abs(a - c)
        ab = rte + rte
        rt = np.maximum(adf, ab)
        rt *= np.sqrt(1.0 + (np.minimum(adf, ab, out=adf) / rt) ** 2)
        rt1 = 0.5 * ((a + c) + rt)
        a_max = abs_a > abs_c
        rt2 = (np.where(a_max, a, c) / rt1) * np.where(a_max, c, a) - (rte / rt1) * rte
        low = np.where(split, a, rt2)
        high = np.where(split, c, rt1)
        np.minimum(low, high, out=out[:, 0])
        np.maximum(low, high, out=out[:, 1])
    return out


def _tridiagonal(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zhetd2's tridiagonal form of a (N, 2, 2) stack: its m[1, 1] and off-diagonal.

    zlarfg reflects b = m[1, 0] onto the real axis, rescaling a b below
    _SAFMIN, and the reflection rounds m[1, 1]. A real b is left as it is.
    The off-diagonal's sign, which dsterf never reads, may differ.
    """
    c = m[:, 1, 1].real
    b = m[:, 1, 0]
    # zlarfg's beta is -sign(dlapy3(Re b, Im b, 0), Re b) of b scaled by s;
    # beta here is minus that, so tau = (1 + Re b / beta, Im b / beta).
    w = np.maximum(np.abs(b.real), np.abs(b.imag))
    s = np.where(w < _SAFMIN, 1.0 / _SAFMIN, 1.0)
    bs = b * s
    beta = np.copysign((w * s) * np.sqrt((b.real / w) ** 2 + (b.imag / w) ** 2), b.real)
    tau_r = (beta + bs.real) / beta
    tau_i = bs.imag / beta
    # zhemv, zdotc, zaxpy and zher2 on the 1 x 1 trailing block.
    x_r = tau_r * c
    w_r = x_r + ((-0.5 * tau_r) * x_r + (-0.5 * tau_i) * (tau_i * c))
    real = b.imag == 0
    return np.where(real, c, (c - w_r) - w_r), np.where(real, b.real, beta / s)


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
        eigenvalues: ascending eigenvalues from the positivity check, bit
            for bit eigvalsh(entries); read-only.
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


def _x_entries(params: XStateParams) -> np.ndarray:
    """The (4, 4) complex entries of the X state with the given parameters, unchecked.

    Layout in the |00>, |01>, |10>, |11> basis (system qubit first):
    diagonal (c, b, b, c), entries [0,3] = [3,0] = w, [1,2] = [2,1] = z.
    """
    c, b, z, w = params.c, params.b, params.z, params.w
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = c
    m[1, 1] = m[2, 2] = b
    m[0, 3] = m[3, 0] = w
    m[1, 2] = m[2, 1] = z
    return m


def make_x_state(params: XStateParams) -> DensityMatrix:
    """Build the X-state density matrix for the given parameters (_x_entries)."""
    return DensityMatrix(_x_entries(params))


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

    Takes eigenvalues from check_states (a qubit's closed form or a pair's
    eigvalsh); those in [-PSD_FLOOR, 0) count as zero, and the check
    rejected lower ones.
    """
    x = np.clip(eigenvalues, 0.0, None)
    return -np.sum(x * np.log2(x, out=np.zeros_like(x), where=x > 0.0), axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of one state in bits, from the eigenvalues its validation computed."""
    return float(entropies(rho.eigenvalues))
