"""Classical correlation, its maximization over apparatus measurements, and discord.

The classical correlation of a two-qubit state for a given rank-1 projective
measurement {Pi_0, Pi_1} on the apparatus is

    J = S(rho_s) - sum_i p_i S(rho_s | outcome i)        (bits)

i.e. the information about the system retrievable from that measurement.
Its maximum over all projective bases is computed by one fixed search: the
exact Pauli axes and a Fibonacci lattice on the hemisphere, then
derivative-free compass refinement in a tangent-plane chart around the best
of them; quantum discord is mutual information minus that maximum.

Measurement kets are parametrized as
    |u_0> = (cos(theta/2), e^{i phi} sin(theta/2)),
    |u_1> = (sin(theta/2), -e^{i phi} cos(theta/2)),
so (theta, phi) and (pi - theta, phi + pi) describe the same basis, whose
axis is n = (sin theta cos phi, sin theta sin phi, cos theta).

The maximizer evaluates J on the Bloch form of the state,

    rho = (I x I + r.sigma x I + I x s.sigma + sum_ij T_ij sigma_i x sigma_j) / 4,

with r, s and T read off in one Pauli contraction (bloch_forms). Measuring
the apparatus along +-n leaves the system block
((1 +- s.n) I + (r +- T n).sigma)/4: outcome probability p+- = (1 +- s.n)/2,
block eigenvalues p+-/2 +- |r +- T n|/4, i.e. a conditional system state of
Bloch length |r +- T n| / (1 +- s.n). Since sum p+- = 1,

    J = S(rho_s) - 1 + sum_+- p+- (1 - H((1 + length+-)/2)),

real 3-vector arithmetic with no eigensolver, and each outcome's term keeps
its relative accuracy (see _bloch_information). s.n and T n are written as
explicit three-term sums, so every value depends only on its own state and
axis, never on the rest of the batch. The search (_maximize) is _coarse,
the 515-axis pass over blocks of 8 states, then _ascend, the compass
refinement from those axes in lockstep over all states; both take each
state's best candidate through one step (_best_candidates).
maximize_classical_correlation is its one-state case. It keeps each axis
as a 3-vector and converts to (theta, phi) only for the result.

J at a fixed basis (j_z, j_x), mutual information and S(rho_s) come from the
density matrices themselves: a stack of states gives its reduced states and,
from one einsum, both outcomes' conditional states in each of its K bases,
and one check_states call (one eigvalsh) covers all of them. The bases are
measurement kets, a (K, 2, 2) set shared by the stack or a (N, K, 2, 2) set
with one per state, so one pass can read each state in its own bases. The
sign tolerance runs once over each resulting array. classical_correlations
and correlation_records take such a stack; classical_correlation,
conditional_state, mutual_information, correlation_record and
maximize_classical_correlation are their one-state cases, and give bit for
bit the same values as the stack. The one-state cases reuse the eigenvalues
that DensityMatrix computed, so they do not check the state again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidStateError, OptimizationError
from .qstate import DensityMatrix, check_states, entropies, reduced_states

# Probability below which a measurement outcome never happens and its
# conditioned state is undefined (contributes zero to the entropy average).
OUTCOME_FLOOR = 1e-14

# |J| below this is floating-point dust on a mathematically nonnegative value.
_NEGATIVE_J_TOL = 1e-9

DISCORD_CLAMP = 1e-6

_LN2 = math.log(2.0)


def _nonnegative(values, tol: float, label: str) -> np.ndarray:
    """An array of a mathematically nonnegative quantity, with its sign tolerance applied.

    A negative value within tol is rounding dust and becomes +0.0; every
    other value, -0.0 included, is kept bit for bit. The first value below
    -tol in row-major order raises OptimizationError naming the quantity (label).
    """
    values = np.asarray(values, dtype=float)
    below = np.flatnonzero(values < -tol)
    if below.size:
        raise OptimizationError(f"{label} evaluated to {values.flat[below[0]]:.3e}, below -{tol}")
    return np.where(values < 0.0, 0.0, values)


@dataclass(frozen=True)
class ProjectiveBasis:
    """A complete pair of orthogonal rank-1 projectors on the apparatus qubit.

    Parametrized by the Bloch angles of the first projector's axis. The pairs
    (theta, phi) and (pi - theta, phi + pi) denote the same basis; comparisons
    should use basis_distance, which identifies antipodal axes.
    """

    theta: float
    phi: float

    def __post_init__(self):
        th = float(self.theta)
        ph = float(self.phi)
        for name, value in (("theta", th), ("phi", ph)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be a finite number, got {value}")
        if th < -1e-9 or th > math.pi + 1e-9:
            raise InvalidInputError(f"theta must lie in [0, pi], got {th}")
        th = min(max(th, 0.0), math.pi)
        ph = ph % (2.0 * math.pi)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)

    @classmethod
    def sigma_z(cls) -> "ProjectiveBasis":
        return cls(0.0, 0.0)

    @classmethod
    def sigma_x(cls) -> "ProjectiveBasis":
        return cls(math.pi / 2.0, 0.0)

    @classmethod
    def sigma_y(cls) -> "ProjectiveBasis":
        return cls(math.pi / 2.0, math.pi / 2.0)

    @property
    def axis(self) -> np.ndarray:
        """Bloch vector of the first projector."""
        return np.array(
            [
                math.sin(self.theta) * math.cos(self.phi),
                math.sin(self.theta) * math.sin(self.phi),
                math.cos(self.theta),
            ]
        )

    def kets(self) -> np.ndarray:
        """The two orthonormal measurement kets, as the rows |u_0>, |u_1> of a (2, 2) array."""
        c = math.cos(self.theta / 2.0)
        s = math.sin(self.theta / 2.0)
        e = complex(math.cos(self.phi), math.sin(self.phi))
        return np.array([[c, e * s], [s, -e * c]], dtype=complex)

    @property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        p0, p1 = _projectors(self.kets())
        return (p0, p1)


# The kets of no basis, and of sigma_z then sigma_x, shared by a stack.
_NO_BASES = np.empty((0, 2, 2), dtype=complex)
_SIGMA_ZX = np.array([ProjectiveBasis.sigma_z().kets(), ProjectiveBasis.sigma_x().kets()])


def _projectors(kets: np.ndarray) -> np.ndarray:
    """|u_i><u_i| for each ket of a (..., 2, 2) array of kets, as (..., 2, 2, 2)."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def basis_distance(a: ProjectiveBasis, b: ProjectiveBasis) -> float:
    """Angle between two measurement axes, identifying antipodal directions."""
    dot = abs(float(np.dot(a.axis, b.axis)))
    return math.acos(min(dot, 1.0))


# A compass move is taken only if it gains more than this many bits, a few
# rounding units of J <= 1; otherwise the step halves. Below MIN_STEP no move
# can gain that much any more, and MAX_REFINE_STEPS bounds the batches.
MOVE_GAIN = 4.0 * np.finfo(float).eps
MIN_STEP = 1e-8
MAX_REFINE_STEPS = 400


@dataclass(frozen=True)
class CorrelationRecord:
    """All correlation quantities of one state along a sweep, in bits."""

    p: float
    j_z: float
    j_x: float
    j_max: float
    opt_theta: float
    opt_phi: float
    mutual_info: float
    discord: float

    def __post_init__(self):
        if self.j_max < -_NEGATIVE_J_TOL or self.j_max > self.mutual_info + DISCORD_CLAMP:
            raise OptimizationError(
                f"record at p = {self.p}: j_max = {self.j_max:.12g} outside "
                f"[0, mutual_info = {self.mutual_info:.12g}]"
            )
        if self.discord < -DISCORD_CLAMP:
            raise OptimizationError(
                f"record at p = {self.p}: discord = {self.discord:.3e} below -{DISCORD_CLAMP}"
            )


def _bloch_information(x: np.ndarray) -> np.ndarray:
    """1 - H((1 + x)/2) in bits: what a qubit of Bloch length x lacks in entropy.

    Below x = 1/2 it is evaluated as (2 x artanh x + ln(1 - x^2)) / (2 ln 2),
    above as ((1 + x) ln(1 + x) + (1 - x) ln(1 - x)) / (2 ln 2), where 1 - x
    is exact. Either way the error stays within a few ulp of the value, with
    no cancellation against the O(1) entropies that the eigenvalue form
    xlog2x(p) - xlog2x(lambda_hi) - xlog2x(lambda_lo) subtracts. Lengths are
    clipped to [0, 1]; x = 1 (a pure conditional state) gives 1.
    """
    x = np.clip(x, 0.0, 1.0)
    out = np.ones_like(x)
    low = x < 0.5
    t = x[low]
    out[low] = (t * np.arctanh(t) + 0.5 * np.log1p(-t * t)) / _LN2
    high = ~low & (x < 1.0)
    t = x[high]
    out[high] = ((1.0 + t) * np.log1p(t) + (1.0 - t) * np.log1p(-t)) / (2.0 * _LN2)
    return out


# sigma_a x sigma_b for a, b in (I, x, y, z), as a (4, 4, 4, 4) array [a, b, row, col].
_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
_PAULI_PAIRS = np.einsum("aij,bkl->abikjl", _PAULIS, _PAULIS).reshape(4, 4, 4, 4)


def bloch_forms(m: np.ndarray) -> np.ndarray:
    """The real (N, 4, 4) matrices C[a, b] = Tr(rho sigma_a x sigma_b) of a (N, 4, 4) stack."""
    return np.einsum("abji,sij->sab", _PAULI_PAIRS, m).real


def bloch_form(rho: DensityMatrix) -> np.ndarray:
    """The real (4, 4) matrix C[a, b] = Tr(rho sigma_a x sigma_b), sigma_0 = I.

    C[0, 0] = 1, the system Bloch vector r = C[1:, 0], the apparatus Bloch
    vector s = C[0, 1:] and the correlation matrix T = C[1:, 1:].
    """
    return bloch_forms(rho.entries[None])[0]


def _bloch_correlation(form: np.ndarray, s_entropy, nx, ny, nz) -> np.ndarray:
    """Classical correlation for apparatus measurement axes (nx, ny, nz).

    J = S(rho_s) - 1 + sum_+- p+- (1 - H(conditional state)), where the
    conditional Bloch length is |r +- T n| / (1 +- s.n). form[a, b] and
    s_entropy broadcast elementwise against the axis arrays: one state's
    (4, 4) form against a batch of axes, or per-state columns against a
    (states, axes) block.
    """
    sn = form[0, 1] * nx + form[0, 2] * ny + form[0, 3] * nz
    tn = [form[i, 1] * nx + form[i, 2] * ny + form[i, 3] * nz for i in (1, 2, 3)]
    total = s_entropy - 1.0
    for sign in (1.0, -1.0):
        prob = (1.0 + sign * sn) / 2.0
        x = form[1, 0] + sign * tn[0]
        y = form[2, 0] + sign * tn[1]
        z = form[3, 0] + sign * tn[2]
        length = np.sqrt(x * x + y * y + z * z)
        # An outcome that never happens (prob <= 0) contributes nothing.
        ratio = np.divide(length, 2.0 * prob, out=np.zeros_like(length), where=prob > 0.0)
        total = total + prob * _bloch_information(ratio)
    return total


def _search_axes(points: int) -> np.ndarray:
    """The coarse pass's axes as x, y, z rows: sigma_z, sigma_x, sigma_y, then lattice.

    The lattice is a Fibonacci spiral of `points` axes on the upper
    hemisphere (Gonzalez, Math. Geosci. 42, 49, 2010), which covers every
    basis once since J(n) = J(-n). The array is read-only.
    """
    k = np.arange(points) + 0.5
    z = 1.0 - k / points
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    lattice = np.stack([r * np.cos(phi), r * np.sin(phi), z])
    axes = np.concatenate([[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], lattice], axis=1)
    axes.setflags(write=False)
    return axes


_SEARCH_AXES = _search_axes(512)
# Compass moves in the tangent-plane chart: +e1, -e1, +e2, -e2.
_MOVES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
# The first compass step: about the lattice's nearest-neighbour spacing.
_FIRST_STEP = 0.1


def _chart_axes(n0, e1, e2, a, b) -> list:
    """x, y, z of normalize(n0 + a e1 + b e2); n0, e1, e2 index their xyz last."""
    v = n0 + a[..., None] * e1 + b[..., None] * e2
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    norm = np.sqrt(x * x + y * y + z * z)
    return [x / norm, y / norm, z / norm]


# The stand-in for the conditional state of an outcome that never happens.
_HALF_I2 = np.eye(2, dtype=complex) / 2.0

# States per block of the maximizer's coarse pass. Its intermediates are
# (states, 515) arrays; blocks of 8 run a sweep as fast as blocks of 16 do,
# and keep its peak memory near that of one state at a time.
_COARSE_BLOCK = 8


def _conditional_states(m: np.ndarray, kets: np.ndarray):
    """Both outcomes' probabilities and conditioned system states in every basis of a stack.

    m is a (N, 4, 4) stack and kets a (N, K, 2, 2) array of measurement kets,
    K bases per state: kets[s, b, i] is |u_i> of state s's basis b. Bases
    shared by the stack are their kets broadcast to (N, K, 2, 2). One einsum
    gives every outcome block <u_i| rho |u_i>; each state is its block over
    its trace. Returns (probs, states), (N, K, 2) and (N, K, 2, 2, 2). An
    outcome below OUTCOME_FLOOR never happens: its probability is 0.0 and
    I/2 stands in for its undefined state, so a stacked check still sees a
    valid state there.
    """
    if kets.ndim != 4 or kets.shape[0] != len(m) or kets.shape[2:] != (2, 2):
        raise InvalidStateError(
            f"expected a ({len(m)}, K, 2, 2) stack of measurement kets, got {kets.shape}"
        )
    blocks = np.einsum("sbij,smjnk,sbik->sbimn", kets.conj(), m.reshape(-1, 2, 2, 2, 2), kets)
    probs = blocks.trace(axis1=-2, axis2=-1).real
    possible = probs >= OUTCOME_FLOOR
    states = blocks / np.where(possible, probs, 1.0)[..., None, None]
    return (
        np.where(possible, probs, 0.0),
        np.where(possible[..., None, None], states, _HALF_I2),
    )


def _local_terms(m: np.ndarray, eigenvalues: np.ndarray, kets: np.ndarray):
    """S(rho_s), mutual information and J in each basis, for a stack of valid states.

    m is (N, 4, 4) and eigenvalues (N, 4), as check_states gives them. kets
    holds K bases per state as (N, K, 2, 2) measurement kets, or K bases
    shared by the stack as (K, 2, 2); K may be 0. Mutual information is
    S(rho_s) + S(rho_a) - S(rho), and J = S(rho_s) - sum_i p_i S(rho_s | i),
    to which an outcome that never happens adds nothing. One check and one
    eigvalsh cover both reduced states and every conditional state, in the
    order rho_s, rho_a, then each basis's two outcomes. Returns (s_system,
    mutual, j): (N,), (N,) and (N, K), before any sign tolerance.
    """
    if kets.ndim == 3:
        kets = np.broadcast_to(kets, (len(m),) + kets.shape)
    probs, conditional = _conditional_states(m, kets)
    parts = [reduced_states(m, side)[:, None] for side in ("system", "apparatus")]
    parts = np.concatenate(parts + [conditional.reshape(len(m), -1, 2, 2)], axis=1)
    ent = entropies(check_states(parts.reshape(-1, 2, 2))).reshape(len(m), -1)
    cond = ent[:, 2:].reshape(probs.shape)
    j = ent[:, :1] - probs[..., 0] * cond[..., 0] - probs[..., 1] * cond[..., 1]
    mutual = ent[:, 0] + ent[:, 1] - entropies(eigenvalues)
    return ent[:, 0], mutual, j


def _one_state(rho: DensityMatrix):
    """rho's entries and eigenvalues as a one-state stack; only two-qubit states pass."""
    if rho.dim != 4:
        raise InvalidStateError(f"expected a two-qubit state, got dim {rho.dim}")
    return rho.entries[None], rho.eigenvalues[None]


def _two_qubit_stack(states) -> tuple[np.ndarray, np.ndarray]:
    """A (N, 4, 4) stack of two-qubit states as a complex array, with its eigenvalues.

    The stack is checked as DensityMatrix checks each state (check_states).
    """
    m = np.asarray(states, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4) or len(m) == 0:
        raise InvalidStateError(
            f"expected a (N, 4, 4) stack of N >= 1 two-qubit states, got {m.shape}"
        )
    return m, check_states(m)


def conditional_state(rho: DensityMatrix, basis: ProjectiveBasis, outcome: int):
    """Probability of a measurement outcome and the conditioned system state.

    Returns (p_i, rho_s_given_i). An outcome with probability below 1e-14
    never occurs: the probability is reported as 0.0 and the conditioned state
    as None (undefined; its entropy term contributes nothing).
    """
    m, _ = _one_state(rho)
    if outcome not in (0, 1):
        raise InvalidInputError(f"outcome must be 0 or 1, got {outcome}")
    probs, states = _conditional_states(m, basis.kets()[None, None])
    prob = float(probs[0, 0, outcome])
    if prob < OUTCOME_FLOOR:
        return 0.0, None
    return prob, DensityMatrix(states[0, 0, outcome])


def classical_correlations(states, kets: np.ndarray) -> np.ndarray:
    """J of each state of a (N, 4, 4) stack in each of K fixed bases, in bits, as (N, K).

    The bases are measurement kets (ProjectiveBasis.kets): one (K, 2, 2) set
    shared by the stack, or (N, K, 2, 2) with one set per state. The stack is
    checked as DensityMatrix checks each state; one more check covers every
    reduced and conditional state. classical_correlation is the (1, 1) case,
    and every value is bit for bit its one-state value.
    """
    _, _, j = _local_terms(*_two_qubit_stack(states), kets)
    return _nonnegative(j, _NEGATIVE_J_TOL, "classical correlation")


def classical_correlation(rho: DensityMatrix, basis: ProjectiveBasis) -> float:
    """J for one fixed measurement basis, in bits. Lies in [0, S(rho_s)]."""
    _, _, j = _local_terms(*_one_state(rho), basis.kets()[None])
    return float(_nonnegative(j[0, 0], _NEGATIVE_J_TOL, "classical correlation"))


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations S(rho_s) + S(rho_a) - S(rho_sa), in bits."""
    _, mutual, _ = _local_terms(*_one_state(rho), _NO_BASES)
    return float(_nonnegative(mutual[0], _NEGATIVE_J_TOL, "mutual information"))


def _best_candidates(forms: np.ndarray, s_entropy: np.ndarray, nx, ny, nz):
    """Each state's best candidate axis: J on its axes, then the first argmax.

    forms is (N, 4, 4) and s_entropy (N,); nx, ny, nz are candidate axes
    shared by the states, (C,), or one row per state, (N, C). Returns the
    best values (N,) and their candidate indices (N,).
    """
    values = _bloch_correlation(forms.transpose(1, 2, 0)[..., None], s_entropy[:, None], nx, ny, nz)
    k = np.argmax(values, axis=1)
    return values[np.arange(k.size), k], k


def _coarse(forms: np.ndarray, s_entropy: np.ndarray):
    """The coarse pass: each state's best of the 515 search axes, in blocks of _COARSE_BLOCK.

    Returns the best values (N,) and axes (N, 3). On exact ties the first of
    sigma_z, sigma_x, sigma_y, then lattice order, wins.
    """
    values, axes = np.empty(len(forms)), np.empty((len(forms), 3))
    for start in range(0, len(forms), _COARSE_BLOCK):
        block = slice(start, start + _COARSE_BLOCK)
        values[block], k = _best_candidates(forms[block], s_entropy[block], *_SEARCH_AXES)
        axes[block] = _SEARCH_AXES[:, k].T
    return values, axes


def _ascend(forms: np.ndarray, s_entropy: np.ndarray, values: np.ndarray, axes: np.ndarray):
    """Compass ascent of each state from its start axis, in lockstep over the stack.

    values (N,) are J at the start axes (N, 3) and are not modified. Each
    state moves in the chart normalize(n0 + a e1 + b e2) around its start
    axis n0, which reaches every basis without a pole. The frame (e1, e2) is
    built from the coordinate axis least aligned with n0, so an exact Pauli
    axis gets an exact frame. A move is taken only if it gains more than
    MOVE_GAIN; otherwise the state's step halves, and it stops below
    MIN_STEP. Each state has its own chart, step and stopping rule, and every
    evaluation is elementwise, so each result is bit for bit its one-state
    result. Returns the final values (N,) and axes (N, 3).
    """
    e1 = np.cross(axes, np.eye(3)[np.argmin(np.abs(axes), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axes, e1)
    best = np.array(values, dtype=float)
    chart = np.zeros((len(forms), 2))
    step = np.full(len(forms), _FIRST_STEP)
    for _ in range(MAX_REFINE_STEPS):
        live = np.flatnonzero(step >= MIN_STEP)
        if live.size == 0:
            break
        cand = chart[live, None, :] + step[live, None, None] * _MOVES
        n = _chart_axes(axes[live, None], e1[live, None], e2[live, None], cand[..., 0], cand[..., 1])
        top, k = _best_candidates(forms[live], s_entropy[live], *n)
        up = top - best[live] > MOVE_GAIN
        best[live[up]] = top[up]
        chart[live[up]] = cand[np.arange(live.size), k][up]
        step[live[~up]] /= 2.0
    return best, np.stack(_chart_axes(axes, e1, e2, chart[:, 0], chart[:, 1]), axis=1)


def _maximize(m: np.ndarray, s_entropy: np.ndarray) -> list[tuple[float, ProjectiveBasis]]:
    """maximize_classical_correlation for each state of a valid stack with known S(rho_s).

    The coarse pass, then the compass ascent from its best axes; each result
    is bit for bit its state's one-state result.
    """
    forms = bloch_forms(m)
    best, axes = _ascend(forms, s_entropy, *_coarse(forms, s_entropy))
    best = _nonnegative(best, _NEGATIVE_J_TOL, "maximal classical correlation")
    return [
        (value, ProjectiveBasis(math.atan2(math.hypot(x, y), z), math.atan2(y, x)))
        for value, (x, y, z) in zip(best.tolist(), axes.tolist())
    ]


def maximize_classical_correlation(rho: DensityMatrix) -> tuple[float, ProjectiveBasis]:
    """Maximum classical correlation over all rank-1 projective bases.

    Deterministic: a coarse pass (_coarse) over the exact sigma_z, sigma_x
    and sigma_y axes (so the result never falls below those by more than
    rounding) and a 512-point Fibonacci lattice on the upper hemisphere, then
    a compass ascent (_ascend) in the tangent-plane chart
    n = normalize(n0 + a e1 + b e2) around the best candidate n0, which has
    no pole. The objective has entropy kinks where conditional eigenvalues
    cross, so the ascent is derivative-free. A move is taken only if it
    gains more than MOVE_GAIN, so an exact-axis optimum with a flat
    neighbourhood stays exact. On exactly degenerate maxima the first of
    sigma_z, sigma_x, sigma_y, then lattice order, wins.
    """
    m, eigenvalues = _one_state(rho)
    return _maximize(m, _local_terms(m, eigenvalues, _NO_BASES)[0])[0]


def correlation_records(states, ps) -> list[CorrelationRecord]:
    """correlation_record for each state of a (N, 4, 4) stack, labelled with ps.

    One check covers the stack, one more its reduced and conditional states,
    and the maximizer reads S(rho_s) from the same pass; the records equal
    the one-state records bit for bit.
    """
    return _records(*_two_qubit_stack(states), ps)


def _records(m: np.ndarray, eigenvalues: np.ndarray, ps) -> list[CorrelationRecord]:
    """correlation_records on a stack of valid states with known eigenvalues."""
    measured = _measure(m, eigenvalues, _SIGMA_ZX)
    discords = _nonnegative([mi - j_max for j_max, _, mi, _ in measured], DISCORD_CLAMP, "discord")
    return [
        CorrelationRecord(
            p=p,
            j_z=j_z,
            j_x=j_x,
            j_max=j_max,
            opt_theta=argmax.theta,
            opt_phi=argmax.phi,
            mutual_info=mi,
            discord=discord,
        )
        for p, (j_max, argmax, mi, (j_z, j_x)), discord in zip(ps, measured, discords.tolist())
    ]


def _measure(m: np.ndarray, eigenvalues: np.ndarray, kets: np.ndarray) -> list:
    """Per state of a valid stack: (j_max, argmax, mutual information, J in each basis).

    kets are the fixed bases, shared or per state (_local_terms). One
    _local_terms pass gives the mutual information, the J values and the
    S(rho_s) that the maximizer reads; the sign tolerance runs once over the
    maxima, then over the mutual information, then over J.
    """
    s_system, mutual, j = _local_terms(m, eigenvalues, kets)
    maxima = _maximize(m, s_system)
    mutual = _nonnegative(mutual, _NEGATIVE_J_TOL, "mutual information")
    j = _nonnegative(j, _NEGATIVE_J_TOL, "classical correlation")
    return [(*maximum, mi, row) for maximum, mi, row in zip(maxima, mutual.tolist(), j.tolist())]


def correlation_record(rho: DensityMatrix, p: float = 0.0) -> CorrelationRecord:
    """Every correlation quantity of one state, labelled with channel strength p.

    J in the sigma_z and sigma_x bases, the maximum with its argmax angles,
    mutual information, and discord.
    """
    return _records(*_one_state(rho), [p])[0]


def quantum_discord(rho: DensityMatrix) -> float:
    """Mutual information minus maximal classical correlation, in bits.

    The discord of correlation_record(rho), from one pass over the state.
    Values in [-1e-6, 0) are rounded to 0 (optimizer tolerance); anything
    below that signals an optimizer failure and raises.
    """
    return correlation_record(rho).discord
