"""Classical correlation, its maximization over apparatus measurements, and discord.

The classical correlation of a two-qubit state for a given rank-1 projective
measurement {Pi_0, Pi_1} on the apparatus is

    J = S(rho_s) - sum_i p_i S(rho_s | outcome i)        (bits)

i.e. the information about the system retrievable from that measurement.
Its maximum over all projective bases is computed by one fixed search: the
exact Pauli axes and a Fibonacci lattice on the hemisphere, then Newton
steps on J's closed-form chart gradient and Hessian from the best of them,
within a step radius that halves when a step would lower J; quantum discord
is mutual information minus that maximum.

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
the 515-axis pass, then _ascend, the refinement from those axes in lockstep
over all states: safeguarded Newton steps in a tangent-plane chart, whose
gradient and Hessian are the same 3-vector algebra (_chart_derivatives; the
stationarity conditions of Girolami and Adesso, PRA 83, 052108, 2011). The
coarse pass bounds J before it evaluates it, as branch and bound does: two
float32 matrix products and one table lookup per block of 16 states give an
upper bound on J at every axis, within 0.23% of J - S(rho_s) + 1 and a
derived float32 error budget (_survivors), and only the axes whose bound
reaches the largest lower bound, less that budget, go to the kernel (0.81%
of them on the benchmark's X-state sweeps), so its values and axes are bit
for bit those of J on all 515. Every J value comes from
the kernel through one step that takes each state's best candidate
(_best_candidates).
The stacked search and measurement (_maximize, _measure) return arrays:
values and argmax axes as 3-vectors. _angles alone turns an axis into the
stored (theta, phi), with phi in [0, 2 pi) (_phi), and stored angles turn
back into axes and measurement kets by one stacked formula each (_axes,
_kets), whose N = 1 cases are ProjectiveBasis.axis and .kets; the angle
between axes is _axis_distances' (basis_distance). A record's arrays are
_record_arrays': _measure's, then the checked discord. Only the public edge
wraps them: _records builds the CorrelationRecords of a returned trajectory
from those arrays, and maximize_classical_correlation, the one-state case,
builds the ProjectiveBasis of its result.

A record's j_z, j_x, S(rho_s) and S(rho_a) come from the same forms
(_fixed_terms): a qubit of Bloch length x has entropy 1 - g(x), g =
_bloch_information, and j_z and j_x are the kernel's J at the search's
exact sigma_z and sigma_x axes, so never above j_max. That pass checks the
reduced and conditional states by Bloch length (check_bloch_lengths). The
density-matrix J stays public: classical_correlations, over K bases given
as kets, certifies its pair stack (certify_states) and checks its qubit
states (check_states); classical_correlation and conditional_state are
its one-state cases. A one-state function gives its stack's bits, reusing
a DensityMatrix's eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidStateError, OptimizationError
from .qstate import DensityMatrix, certify_states, check_bloch_lengths, check_states, entropies
from .qstate import reduced_states

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


def _phi(phi: float) -> float:
    """phi reduced to [0, 2 pi), the one rule for a stored azimuth.

    A % that rounds up to 2 pi (phi just below 0) gives 0.0, so each axis
    has one stored phi.
    """
    phi %= 2.0 * math.pi
    return phi if phi < 2.0 * math.pi else 0.0


def _stored_angles(theta, phi) -> tuple[float, float]:
    """The (theta, phi) that a basis with these angles stores, the one check of a basis's angles.

    Raises InvalidInputError unless both are finite and theta lies in
    [0, pi] within 1e-9; theta is then clamped to [0, pi] and phi reduced
    to [0, 2 pi) (_phi). ProjectiveBasis keeps its angles through it, and
    detect_transition its records'.
    """
    th, ph = float(theta), float(phi)
    for name, value in (("theta", th), ("phi", ph)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be a finite number, got {value}")
    if th < -1e-9 or th > math.pi + 1e-9:
        raise InvalidInputError(f"theta must lie in [0, pi], got {th}")
    return min(max(th, 0.0), math.pi), _phi(ph)


def _mapped(f, *args) -> np.ndarray:
    """f of each element of the float sequences args, one at a time, as a float array."""
    return np.fromiter(map(f, *args), float, len(args[0]))


def _axes(theta, phi) -> np.ndarray:
    """The axis (sin theta cos phi, sin theta sin phi, cos theta) of each stored angle pair, (N, 3).

    The one axis formula: each sine and cosine comes from math, one angle at
    a time; ProjectiveBasis.axis is the N = 1 case.
    """
    sin_theta = _mapped(math.sin, theta)
    columns = sin_theta * _mapped(math.cos, phi), sin_theta * _mapped(math.sin, phi)
    return np.stack([*columns, _mapped(math.cos, theta)], axis=-1)


def _kets(theta, phi) -> np.ndarray:
    """The measurement kets of each stored angle pair, as (N, 2, 2) rows |u_0>, |u_1>.

    The one kets formula: the rows are |u_0> = (c, e s) and |u_1> = (s, -e c),
    with c and s the cosine and sine of theta / 2 and e = e^{i phi}, each
    from math; numpy forms e s and -e c as Python's complex product does.
    ProjectiveBasis.kets is the N = 1 case.
    """
    half = (np.asarray(theta, dtype=float) / 2.0).tolist()
    phi = np.asarray(phi, dtype=float).tolist()
    c, s = _mapped(math.cos, half), _mapped(math.sin, half)
    e = np.empty(len(half), dtype=complex)
    e.real, e.imag = _mapped(math.cos, phi), _mapped(math.sin, phi)
    return np.stack([c, e * s, s, -e * c], axis=-1).reshape(-1, 2, 2)


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
        for name, value in zip(("theta", "phi"), _stored_angles(self.theta, self.phi)):
            object.__setattr__(self, name, value)

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
        """Bloch vector of the first projector, the N = 1 case of _axes."""
        return _axes([self.theta], [self.phi])[0]

    def kets(self) -> np.ndarray:
        """The two orthonormal measurement kets, as the rows |u_0>, |u_1> of a (2, 2) array.

        The N = 1 case of _kets.
        """
        return _kets([self.theta], [self.phi])[0]

    @property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        p0, p1 = _projectors(self.kets())
        return (p0, p1)


def _projectors(kets: np.ndarray) -> np.ndarray:
    """|u_i><u_i| for each ket of a (..., 2, 2) array of kets, as (..., 2, 2, 2)."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def _axis_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The angle between the axes of each row pair of (N, 3) a and b, antipodes identified.

    The one rule, acos(min(|a . b|, 1)): each dot product is np.dot's of the
    two rows and each acos is math's.
    """
    dots = np.abs(a[:, None, :] @ b[:, :, None]).ravel()
    return _mapped(math.acos, np.minimum(dots, 1.0).tolist())


def basis_distance(a: ProjectiveBasis, b: ProjectiveBasis) -> float:
    """Angle between two measurement axes, identifying antipodal directions (_axis_distances)."""
    return _axis_distances(a.axis[None], b.axis[None]).item()


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


def _bloch_correlation(form: np.ndarray, s_entropy, nx, ny, nz, lengths=None) -> np.ndarray:
    """Classical correlation for apparatus measurement axes (nx, ny, nz).

    J = S(rho_s) - 1 + sum_+- p+- (1 - H(conditional state)), where the
    conditional Bloch length is |r +- T n| / (1 +- s.n). form[a, b] and
    s_entropy broadcast elementwise against the axis arrays: one state's
    (4, 4) form against a batch of axes, or per-state columns against a
    (states, axes) block. A list lengths receives each outcome's length, +
    then -, where p+- >= OUTCOME_FLOOR, and 0 elsewhere.
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
        if lengths is not None:
            lengths.append(np.where(prob >= OUTCOME_FLOOR, ratio, 0.0))
    return total


def _fixed_terms(forms: np.ndarray, axes: np.ndarray):
    """S(rho_s), S(rho_s) + S(rho_a) and J at fixed axes, from a valid stack's Bloch forms.

    axes are K axes shared by the stack, (K, 3), or K per state, (N, K, 3).
    A qubit of Bloch vector x has entropy 1 - g(|x|), g = _bloch_information,
    and J is the kernel's, bit for bit _best_candidates' at the same axis.
    The reduced states, then each axis's conditional states, are checked by
    Bloch length (check_bloch_lengths). Returns (N,), (N,) and (N, K) arrays,
    before any sign tolerance.
    """
    local = np.sqrt(np.stack([_dot(v, v) for v in (forms[:, 1:, 0].T, forms[:, 0, 1:].T)], 1))
    entropy, lengths = 1.0 - _bloch_information(local), []
    form = forms.transpose(1, 2, 0)[..., None]
    j = _bloch_correlation(form, entropy[:, :1], *np.moveaxis(axes, -1, 0), lengths)
    check_bloch_lengths(np.concatenate([local, np.stack(lengths, -1).reshape(len(forms), -1)], 1))
    return entropy[:, 0], entropy[:, 0] + entropy[:, 1], j


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
_NO_AXES = np.empty((0, 3))

# The coarse pass bounds J before it evaluates it. 1 - H((1 + x)/2) =
# x^2 phi(x^2), where phi(u) = sum_k u^(k-1) / (2k (2k - 1) ln 2) has positive
# coefficients: it increases on [0, 1], from 1/(2 ln 2) to 1. So on each
# interval between the knots i / _KNOTS, phi lies between its values at the
# two ends.
_KNOTS = 1024


def _phi_at_knots(knots: int) -> np.ndarray:
    """phi at u = i / knots for i = 0, ..., knots; phi(0) = 1/(2 ln 2) is its limit."""
    u = np.arange(1, knots + 1) / knots
    return np.concatenate([[0.5 / _LN2], _bloch_information(np.sqrt(u)) / u])


_PHI = _phi_at_knots(_KNOTS)
# The bound reads u scaled by _KNOTS, which gives the knot index as is, and
# phi and 2p each scaled by 1/_ROOT; _ROOT^2 = _KNOTS, and every scale is a
# power of two, so no scale rounds.
_ROOT = math.isqrt(_KNOTS)


def _rounded_up(table: np.ndarray) -> np.ndarray:
    """table as float32, each entry that the cast rounds down raised by one ulp."""
    low = table.astype(np.float32)
    return np.where(low < table, np.nextafter(low, np.float32(np.inf)), low)


# phi at the knot above each interval, and phi(1) = 1 for u = 1 itself, over
# _ROOT, in float32 and never below the float64 values. On interval i, phi is
# at least _PHI[i], so the table exceeds it by a factor of at most 1 + _SLACK
# (0.23%, on the last interval, where phi rises fastest).
_PHI_ABOVE = _rounded_up(np.append(_PHI[1:], 1.0) / _ROOT)
_SLACK = float(np.max(_ROOT * _PHI_ABOVE / _PHI)) - 1.0


def _information_above(scaled: np.ndarray) -> np.ndarray:
    """_ROOT times a bound on 1 - H((1 + sqrt u)/2), from scaled = _KNOTS u.

    u >= 0 is the square of a Bloch length. u is clipped to 1, as the kernel
    clips the length, and NaN reads as 1; the float array scaled is clipped
    in place. The bound, u times phi at the knot above u, is at least the
    information of length sqrt(u) and at most (1 + _SLACK) times it; the
    integer part of scaled is u's own interval. The table's float32 entries
    are multiplied in scaled's dtype.
    """
    np.fmin(scaled, _KNOTS, out=scaled)
    bound = _PHI_ABOVE[scaled.astype(np.intp)].astype(scaled.dtype, copy=False)
    bound *= scaled
    return bound


# The bound runs in float32, whose unit roundoff is _U; this is its error
# budget in the standard model (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., ch. 2-3; gamma_k = k _U / (1 - k _U)). Per outcome,
# P = 2p, x = |v| / P <= 1 is the conditional Bloch length and P I(x) the
# information, I(x) = 1 - H((1 + x)/2); 2G = sum P I(x) = 2 (J - S(rho_s) + 1).
# - The casts of the form and of the axis and the K = 4 products give 2p and
#   each row of v as sum a_j b_j (1 + theta_6): |e_P| <= gamma_6 (1 + |s|),
#   |e_v| <= gamma_6 (|r| + ||T||_F), and a state's |r|^2 + |s|^2 + ||T||_F^2
#   <= 3 gives |e_P| + |e_v| <= 4 gamma_6 = _ETA.
# - |v|^2, w^2 and the division round u by (1 + theta_5), so x by at most
#   3 _U, relative; clipping u to 1 only moves x toward its exact value.
# - The table bounds u phi on the computed u's own interval, so a knot index
#   misread next to a knot costs only I(computed x) - I(x). Where P > 4 _ETA,
#   the computed P exceeds 3P/4 and P |dx| <= _BETA = (4/3) _ETA (1 + 3 _U)
#   + 6 _U. I' = artanh(x) / ln 2 grows toward x = 1, where it has no bound,
#   yet I(1) - I(1 - d) = H(d / 2) (binary entropy), so P |dI| <=
#   P H(_BETA / (2P)): since P dx = O(_U), the cost stays O(_U log(1/_U))
#   as 2p -> 0 and u -> 1. P H(_BETA / (2P)) is concave in P and P+ + P- =
#   2, so both outcomes lose at most 2 H(_BETA / 2), plus |e_P| each on
#   I <= 1. Where P <= 4 _ETA, the computed and exact terms both lie in
#   [0, 5 _ETA]. In every case the two outcomes together miss 2G by at most
#   _LOSS.
# - The lookup's two products and the outcomes' sum: (1 + theta_3) on at
#   most (1 + _SLACK) 2(G + _LOSS) < 2.01.
# - Form entries below 2^-121 lose relative precision, and |v|^2 underflows:
#   each moves a term by less than 1e-30.
# So the float32 doubled bound d lies in [2G - _BOUND_ERROR, (1 + _SLACK) 2G
# + _BOUND_ERROR], 5.6e-5. An axis is pruned where d + _PRUNE_MARGIN lies
# below max d / (1 + _SLACK), each side rounded once more (the sum by _U of
# 2.01, the floor, with its cast of 1 + _SLACK, by 3 _U of 2.01). Then 2G at
# the axis lies below 2G at the axis of the largest bound by at least
# _PRUNE_MARGIN - 2 _BOUND_ERROR - 4 _U 2.01 = 4 _KERNEL_ROUNDING, and the
# kernel's J, far more accurate than that, keeps the order of the two.
# _PRUNE_MARGIN is 1.1e-4, in the doubled units that _survivors compares.
_U = 2.0**-24


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


_ETA = 4.0 * _gamma(6)
_BETA = 4.0 * _ETA * (1.0 + 3.0 * _U) / 3.0 + 6.0 * _U
_LOSS = 5.0 * _ETA + 2.0 * float(entropies(np.array([_BETA / 2.0, 1.0 - _BETA / 2.0])))
_BOUND_ERROR = (1.0 + _SLACK) * ((1.0 + _gamma(3)) * _LOSS + 2.01 * _gamma(3))
_KERNEL_ROUNDING = 1e-12
_PRUNE_MARGIN = 2.0 * _BOUND_ERROR + 4.0 * _U * 2.01 + 4.0 * _KERNEL_ROUNDING
# Every search axis as [1; n], then as [1; -n], a (4, 1030) float32 array.
_SIGNED_AXES = np.concatenate(
    [np.ones((1, 2 * _SEARCH_AXES.shape[1])), np.concatenate([_SEARCH_AXES, -_SEARCH_AXES], axis=1)]
).astype(np.float32)
# A Bloch form's rows, [1, s] first, then [r, T], the first scaled by 1/_ROOT.
_ROW_SCALE = np.array([1.0 / _ROOT, 1.0, 1.0, 1.0], dtype=np.float32)[:, None, None]


def _chart_axes(n0, e1, e2, a, b) -> list:
    """x, y, z of normalize(n0 + a e1 + b e2); n0, e1, e2 index their xyz last."""
    v = n0 + a[..., None] * e1 + b[..., None] * e2
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    norm = np.sqrt(x * x + y * y + z * z)
    return [x / norm, y / norm, z / norm]


# The stand-in for the conditional state of an outcome that never happens.
_HALF_I2 = np.eye(2, dtype=complex) / 2.0

# States per block of the coarse pass's bound. Its float32 v product takes
# 197,760 bytes at 16 states, what the float64 one took at 8, and over 1005
# states blocks of 16 take about a sixth less time than blocks of 8. Holding
# all four rows' product and its temporaries at once makes a workload
# process grow its heap again at the first block of each sweep (tens of
# minor faults a sweep, where glibc has trimmed the heap); freeing v's
# product before any other temporary and clipping in place keep a block's
# peak near 330 KiB, the gather's intp indices the largest part of it. J is
# then evaluated on the surviving pairs of whole states, at most
# _COARSE_PAIRS at a time, which bounds the kernel's temporaries however
# many axes survive.
_COARSE_BLOCK = 16
_COARSE_PAIRS = 1024


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


def _local_terms(m: np.ndarray, kets: np.ndarray):
    """S(rho_s), S(rho_a) and J in each basis, for a (N, 4, 4) stack of valid states.

    kets holds K bases per state as (N, K, 2, 2) measurement kets, or K bases
    shared by the stack as (K, 2, 2); K may be 0. J = S(rho_s) - sum_i p_i
    S(rho_s | i), to which an outcome that never happens adds nothing. One
    check_states call validates and gives the spectra of rho_s, rho_a, then
    each basis's two conditional states; no pair spectrum is read. Returns
    (s_system, s_apparatus, j): (N,), (N,) and (N, K), before any sign
    tolerance.
    """
    if kets.ndim == 3:
        kets = np.broadcast_to(kets, (len(m),) + kets.shape)
    probs, conditional = _conditional_states(m, kets)
    parts = [reduced_states(m, side)[:, None] for side in ("system", "apparatus")]
    parts = np.concatenate(parts + [conditional.reshape(len(m), -1, 2, 2)], axis=1)
    ent = entropies(check_states(parts.reshape(-1, 2, 2))).reshape(len(m), -1)
    cond = ent[:, 2:].reshape(probs.shape)
    j = ent[:, :1] - probs[..., 0] * cond[..., 0] - probs[..., 1] * cond[..., 1]
    return ent[:, 0], ent[:, 1], j


def _one_state(rho: DensityMatrix):
    """rho's entries and eigenvalues as a one-state stack; only two-qubit states pass."""
    if rho.dim != 4:
        raise InvalidStateError(f"expected a two-qubit state, got dim {rho.dim}")
    return rho.entries[None], rho.eigenvalues[None]


def _two_qubit_array(states) -> np.ndarray:
    """A (N, 4, 4) stack of N >= 1 two-qubit states as a complex array, shape checked only."""
    m = np.asarray(states, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4) or len(m) == 0:
        raise InvalidStateError(
            f"expected a (N, 4, 4) stack of N >= 1 two-qubit states, got {m.shape}"
        )
    return m


def _two_qubit_stack(states) -> tuple[np.ndarray, np.ndarray]:
    """A (N, 4, 4) stack of two-qubit states as a complex array, with its eigenvalues.

    The stack is checked as DensityMatrix checks each state (check_states).
    """
    m = _two_qubit_array(states)
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
    shared by the stack, or (N, K, 2, 2) with one set per state. The stack
    is accepted or refused as DensityMatrix would each state, by
    certify_states, which computes no spectrum, since J reads none of the
    pair's; one more check covers every reduced and conditional state.
    classical_correlation is the (1, 1) case, and every value is bit for bit
    its one-state value.
    """
    m = _two_qubit_array(states)
    certify_states(m)
    _, _, j = _local_terms(m, kets)
    return _nonnegative(j, _NEGATIVE_J_TOL, "classical correlation")


def classical_correlation(rho: DensityMatrix, basis: ProjectiveBasis) -> float:
    """J for one fixed measurement basis, in bits. Lies in [0, S(rho_s)]."""
    _, _, j = _local_terms(_one_state(rho)[0], basis.kets()[None])
    return float(_nonnegative(j[0, 0], _NEGATIVE_J_TOL, "classical correlation"))


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations S(rho_s) + S(rho_a) - S(rho_sa), in bits, _measure's."""
    m, eigenvalues = _one_state(rho)
    mutual = _fixed_terms(bloch_forms(m), _NO_AXES)[1] - entropies(eigenvalues)
    return float(_nonnegative(mutual[0], _NEGATIVE_J_TOL, "mutual information"))


def _best_candidates(forms: np.ndarray, s_entropy: np.ndarray, owner: np.ndarray, nx, ny, nz):
    """Each state's best candidate axis: J on its candidates, then the first maximum.

    forms is (N, 4, 4) and s_entropy (N,). Candidate i is the axis (nx[i],
    ny[i], nz[i]) of state owner[i]; owner is nondecreasing and names each
    of the N states at least once. Returns the best values (N,) and the
    indices (N,) of their candidates. On exact ties the first candidate wins.
    """
    form = forms.transpose(1, 2, 0)[..., owner]
    values = _bloch_correlation(form, s_entropy[owner], nx, ny, nz)
    starts = np.searchsorted(owner, np.arange(len(forms)))
    top = np.maximum.reduceat(values, starts)[owner]
    at_top = np.where(values == top, np.arange(values.size), values.size)
    first = np.minimum.reduceat(at_top, starts)
    return values[first], first


def _doubled_bounds(forms: np.ndarray) -> np.ndarray:
    """A float32 bound 2 c(n) on 2 (J - S(rho_s) + 1), for each state of a block and search axis.

    The (B, 4, 4) forms are cast to float32 once, and products of their rows
    with _SIGNED_AXES give, for each state and search axis n, both outcomes'
    2p+- = 1 +- s.n, scaled by 1/_ROOT, and v+- = r +- T n. With the weight
    w+- = max(2p+-, 0)/_ROOT, |v+-|^2 / w+-^2 is _KNOTS u+-, where u+- is the
    square of the conditional Bloch length. c(n) = sum p+- (information
    above u+-), where an outcome with 2p+- <= 0 counts zero, satisfies
    c/(1 + _SLACK) <= J - S(rho_s) + 1 <= c in exact arithmetic, and the
    float32 value of 2c lies within _BOUND_ERROR of that bracket. Returns
    (B, 515).
    """
    rows = np.multiply(forms.transpose(1, 0, 2), _ROW_SCALE, dtype=np.float32, order="C")
    v = (rows[1:].reshape(-1, 4) @ _SIGNED_AXES).reshape(3, len(forms), -1)
    scaled = np.einsum("ask,ask->sk", v, v)
    # Freed before the other temporaries, which keeps a block's peak low
    # (see _COARSE_BLOCK).
    del v
    weight = rows[0] @ _SIGNED_AXES
    np.maximum(weight, 0.0, out=weight)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # 2p = 0 gives inf or NaN (0/0); both read as u = 1, weighted by 0.
        scaled /= weight * weight
    term = _information_above(scaled)
    term *= weight
    axes = _SEARCH_AXES.shape[1]
    return term[:, :axes] + term[:, axes:]


def _survivors(forms: np.ndarray) -> np.ndarray:
    """The (state, axis) pairs of a block of states that a bound on J cannot rule out.

    An axis whose doubled bound (_doubled_bounds) lies more than
    _PRUNE_MARGIN below the state's largest doubled bound over 1 + _SLACK
    is below the state's maximum J, and cannot tie it: the margin covers the
    bound's float32 rounding and the kernel's. Returns the other pairs as
    flat indices state * 515 + axis, in increasing order; an axis whose
    bound is NaN is kept.
    """
    doubled = _doubled_bounds(forms)
    floor = doubled.max(axis=1, keepdims=True) / (1.0 + _SLACK)
    doubled += _PRUNE_MARGIN
    return np.flatnonzero(~(doubled < floor))


def _survivor_groups(forms: np.ndarray):
    """The pairs that survive the bound (_survivors), in groups of whole states.

    Blocks of _COARSE_BLOCK states are bounded in turn, and each block's
    pairs join the pending ones as flat indices state * 515 + axis. A group
    is cut off once more than _COARSE_PAIRS pairs are pending, at the last
    state that fits, so no group holds more (a state has at most 515).
    Yields (states, owner, axis): the group's slice of the stack and its
    pairs' state (counted from the slice's start) and axis indices.
    """
    axes = _SEARCH_AXES.shape[1]
    done, pairs = 0, np.empty(0, dtype=np.intp)
    for start in range(0, len(forms), _COARSE_BLOCK):
        picked = _survivors(forms[start : start + _COARSE_BLOCK]) + start * axes
        pairs = np.concatenate([pairs, picked])
        while pairs.size > _COARSE_PAIRS:
            end = int(pairs[_COARSE_PAIRS]) // axes
            cut = np.searchsorted(pairs, end * axes)
            owner, axis = np.divmod(pairs[:cut], axes)
            yield slice(done, end), owner - done, axis
            done, pairs = end, pairs[cut:]
    if pairs.size:
        owner, axis = np.divmod(pairs, axes)
        yield slice(done, len(forms)), owner - done, axis


def _coarse(forms: np.ndarray, s_entropy: np.ndarray):
    """The coarse pass: each state's best of the 515 search axes, bound, then evaluated.

    Blocks of _COARSE_BLOCK states first rule out the axes whose bound on J
    lies below the state's maximum (_survivors); J is then evaluated on the
    other axes of a few blocks at a time (_survivor_groups). The values (N,)
    and axes (N, 3) are bit for bit those of J evaluated on all 515 axes. On
    exact ties the first of sigma_z, sigma_x, sigma_y, then lattice order, wins.
    """
    values, axes = np.empty(len(forms)), np.empty((len(forms), 3))
    for states, owner, axis in _survivor_groups(forms):
        values[states], k = _best_candidates(
            forms[states], s_entropy[states], owner, *_SEARCH_AXES[:, axis]
        )
        axes[states] = _SEARCH_AXES[:, axis[k]].T
    return values, axes


def _frame(axes: np.ndarray):
    """Each axis's tangent frame (e1, e2), both (N, 3), for the chart around it.

    e1 is the axis crossed with the coordinate axis least aligned with it,
    normalized, and e2 = axis x e1, so an exact Pauli axis gets an exact frame.
    """
    e1 = np.cross(axes, np.eye(3)[np.argmin(np.abs(axes), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, np.cross(axes, e1)


# The ascent's first step radius, about the lattice's nearest-neighbour spacing.
# A state stops once J's chart gradient falls below _STATIONARY, or once a
# refused step would have gained no more than _ROUNDING bits to first order, a
# few rounding units of J <= 1; every state stops after _ROUNDS rounds.
_FIRST_STEP = 0.1
_STATIONARY = 1e-12
_ROUNDING = 4.0 * np.finfo(float).eps
_ROUNDS = 100
# The two measurement outcomes, +n then -n, as a column against (N,) rows.
_SIGNS = np.array([[1.0], [-1.0]])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _chart_derivatives(forms: np.ndarray, n, e1, e2):
    """Gradient and Hessian of J in the chart around each unit axis n, where J is smooth.

    n, e1 and e2 are x, y, z lists of (N,) rows. With p+- = (1 +- s.n)/2,
    v+- = r +- T n and L+- = |v+-| / (2 p+-), J = S(rho_s) - 1 + sum p+- f(L+-),
    f(x) = 1 - H((1 + x)/2), f'(x) = artanh(x)/ln 2, f''(x) = 1/((1 - x^2) ln 2).
    Along a direction e its gradient is
        dJ.e = sum +-(s.e (f - L f') + f' u.(T e)) / 2,   u = v/|v|,
    and its Hessian
        e.H.e' = sum f'' a.e a.e' / (4 p) + f' ((T e).(T e') - u.(T e) u.(T e')) / (2 |v|),
    with a.e = u.(T e) - L s.e. At the centre of normalize(n + a e1 + b e2)
    the chart Hessian is E^T H E - (dJ.n) I. Returns (smooth, g1, g2, h11,
    h12, h22), all (N,): J is smooth where p+- > 0, |v+-| > 0 and L+- < 1,
    and the rest is finite there. Every operation is elementwise.
    """
    r = [forms[:, i, 0] for i in (1, 2, 3)]
    s = [forms[:, 0, j] for j in (1, 2, 3)]

    def t_times(e):
        return [
            forms[:, i, 1] * e[0] + forms[:, i, 2] * e[1] + forms[:, i, 3] * e[2] for i in (1, 2, 3)
        ]

    tn, t1, t2 = t_times(n), t_times(e1), t_times(e2)
    prob = (1.0 + _SIGNS * _dot(s, n)) / 2.0
    v = [r[i] + _SIGNS * tn[i] for i in range(3)]
    length = np.sqrt(_dot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = length / (2.0 * prob)
        smooth = np.all((prob > 0.0) & (length > 0.0) & (ratio < 1.0), axis=0)
        # Rows outside the smooth region are read at a harmless stand-in.
        ratio = np.where(smooth, ratio, 0.5)
        length = np.where(smooth, length, 1.0)
        prob = np.where(smooth, prob, 0.5)
        u = [x / length for x in v]
    d1 = np.arctanh(ratio) / _LN2
    d2 = 1.0 / ((1.0 - ratio * ratio) * _LN2)
    level = _bloch_information(ratio) - ratio * d1
    ut1, ut2 = _dot(u, t1), _dot(u, t2)
    a1 = ut1 - ratio * _dot(s, e1)
    a2 = ut2 - ratio * _dot(s, e2)
    curve = d2 / (4.0 * prob)
    bend = d1 / (2.0 * length)

    def total(x):
        return x[0] + x[1]

    def slope(se, ute):
        return total(_SIGNS * (se * level + d1 * ute)) / 2.0

    radial = slope(_dot(s, n), _dot(u, tn))
    h11 = total(curve * a1 * a1 + bend * (_dot(t1, t1) - ut1 * ut1)) - radial
    h12 = total(curve * a1 * a2 + bend * (_dot(t1, t2) - ut1 * ut2))
    h22 = total(curve * a2 * a2 + bend * (_dot(t2, t2) - ut2 * ut2)) - radial
    return smooth, slope(_dot(s, e1), ut1), slope(_dot(s, e2), ut2), h11, h12, h22


def _ascend(forms: np.ndarray, s_entropy: np.ndarray, values: np.ndarray, axes: np.ndarray):
    """Newton ascent of each state from its start axis, in lockstep over the stack.

    values (N,) are J at the start axes (N, 3) and are not modified. Each
    round re-centres every live state's chart normalize(n0 + a e1 + b e2) at
    its current axis n0 (_frame) and reads J's chart gradient g and Hessian
    H in closed form (_chart_derivatives). A state stops where J is not
    smooth or |g| is below _STATIONARY, whatever H is. Otherwise it steps:
    Newton's -H^-1 g where H is negative definite, g itself elsewhere,
    either cut to the state's radius, which starts at _FIRST_STEP. The step
    is kept if J does not fall; a refused step halves the radius, and ends
    the ascent if its first-order gain g.s is within _ROUNDING. Every state
    stops after _ROUNDS rounds. An exact Pauli axis with an exact-zero
    gradient gets an exact frame and stays exact. Every operation is
    elementwise, so each result is bit for bit its one-state result.
    Returns the final values (N,) and axes (N, 3).
    """
    best = np.array(values, dtype=float)
    axes = np.array(axes, dtype=float)
    radius = np.full(len(forms), _FIRST_STEP)
    live = np.arange(len(forms))
    for _ in range(_ROUNDS):
        if not live.size:
            break
        n = axes[live]
        e1, e2 = _frame(n)
        smooth, g1, g2, h11, h12, h22 = _chart_derivatives(forms[live], n.T, e1.T, e2.T)
        det = h11 * h22 - h12 * h12
        newton = (h11 < 0.0) & (det > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(newton, (h12 * g2 - h22 * g1) / det, g1)
            b = np.where(newton, (h12 * g1 - h11 * g2) / det, g2)
            cut = np.minimum(1.0, radius[live] / np.sqrt(a * a + b * b))
            a, b = a * cut, b * cut
        step = smooth & (np.sqrt(g1 * g1 + g2 * g2) >= _STATIONARY)
        rows = live[step]
        moved = np.stack(_chart_axes(n[step], e1[step], e2[step], a[step], b[step]), axis=1)
        top, _ = _best_candidates(forms[rows], s_entropy[rows], np.arange(rows.size), *moved.T)
        kept = top >= best[rows]
        best[rows[kept]] = top[kept]
        axes[rows[kept]] = moved[kept]
        radius[rows[~kept]] /= 2.0
        live = rows[kept | ((g1 * a + g2 * b)[step] > _ROUNDING)]
    return best, axes


def _maximize(forms: np.ndarray, s_entropy: np.ndarray):
    """maximize_classical_correlation for a valid stack's (N, 4, 4) Bloch forms and S(rho_s).

    The coarse pass, then the ascent (_ascend) from its best axes, then the
    sign tolerance on the maxima. Returns the values (N,) and the argmax axes
    (N, 3), each row bit for bit its state's one-state result; _angles turns
    the axes into the stored (theta, phi).
    """
    best, axes = _ascend(forms, s_entropy, *_coarse(forms, s_entropy))
    return _nonnegative(best, _NEGATIVE_J_TOL, "maximal classical correlation"), axes


def _angles(axes: np.ndarray) -> list[tuple[float, float]]:
    """The stored (theta, phi) of each (N, 3) axis row, theta in [0, pi] and phi in [0, 2 pi).

    These are the angles ProjectiveBasis keeps for the pair (atan2(hypot(x,
    y), z), atan2(y, x)), computed per row with math, not numpy, whose atan2
    and hypot can differ in the last bit. An atan2 just below 0 gives phi =
    0.0, as it does in ProjectiveBasis (_phi).
    """
    return [(math.atan2(math.hypot(x, y), z), _phi(math.atan2(y, x))) for x, y, z in axes.tolist()]


def maximize_classical_correlation(rho: DensityMatrix) -> tuple[float, ProjectiveBasis]:
    """Maximum classical correlation over all rank-1 projective bases.

    Deterministic: a coarse pass (_coarse) over the exact sigma_z, sigma_x
    and sigma_y axes (so the result never falls below those by more than
    rounding) and a 512-point Fibonacci lattice on the upper hemisphere,
    which evaluates J only where a bound on J does not rule the axis out, then
    an ascent (_ascend) in the tangent-plane chart
    n = normalize(n0 + a e1 + b e2) around the best candidate n0, which has
    no pole. Where J is smooth (both outcomes possible, neither conditional
    state pure or maximally mixed) the ascent takes Newton steps on J's
    closed-form gradient and Hessian, or gradient steps where the Hessian is
    not negative definite, each within a radius that halves when a step
    would lower J, until the chart gradient is below 1e-12 or a refused
    step's predicted gain is below J's rounding. Where J is not smooth the
    ascent stops. An exact-axis optimum has an exactly zero gradient or a
    flat neighbourhood, so it stays exact. On exactly
    degenerate maxima the first of sigma_z, sigma_x, sigma_y, then lattice
    order, wins.
    """
    values, axes, _, _ = _measure(*_one_state(rho), _NO_AXES)
    return float(values[0]), ProjectiveBasis(*_angles(axes)[0])


def correlation_records(states, ps) -> list[CorrelationRecord]:
    """correlation_record for each state of a (N, 4, 4) stack, labelled with ps.

    One check covers the stack, and one pass over its Bloch forms (_measure)
    gives every record field; the records equal the one-state records bit
    for bit.
    """
    return _records(ps, *_record_arrays(*_two_qubit_stack(states)))


def _record_arrays(m: np.ndarray, eigenvalues: np.ndarray):
    """The arrays of a valid stack's records: (j_max, axes, mutual, j, discord).

    The first four are _measure's at the search's exact sigma_z and sigma_x
    axes, j as (N, 2) rows (j_z, j_x). The one rule for the discord: the
    mutual information less j_max, with its sign tolerance, run after
    _measure's. So j_max lies within CorrelationRecord's bounds: at least 0
    after _maximize's sign tolerance, and at most I + DISCORD_CLAMP up to
    one rounding.
    """
    j_max, axes, mutual, j = _measure(m, eigenvalues, _SEARCH_AXES[:, :2].T)
    return j_max, axes, mutual, j, _nonnegative(mutual - j_max, DISCORD_CLAMP, "discord")


def _records(ps, j_max, axes, mutual, j, discord) -> list[CorrelationRecord]:
    """The records, labelled with ps, of a stack's _record_arrays; the angles are _angles'."""
    return [
        CorrelationRecord(p, j_z, j_x, value, theta, phi, mi, d)
        for p, (j_z, j_x), value, (theta, phi), mi, d in zip(
            ps, j.tolist(), j_max.tolist(), _angles(axes), mutual.tolist(), discord.tolist()
        )
    ]


def _measure(m: np.ndarray, eigenvalues: np.ndarray, axes: np.ndarray):
    """The maximizer's and the fixed axes' results for a valid stack, as arrays.

    eigenvalues are the pair spectrum that the mutual information reads, and
    axes the fixed axes (_fixed_terms). The stack's Bloch forms, built once,
    give _fixed_terms' reads and the maximizer's. The sign tolerance runs
    once over the maxima, then over the mutual information, then over J.
    Returns (j_max, axes, mutual, j): (N,), the argmax axes (N, 3), (N,)
    and (N, K).
    """
    forms = bloch_forms(m)
    s_system, local, j = _fixed_terms(forms, axes)
    j_max, best = _maximize(forms, s_system)
    mutual = _nonnegative(local - entropies(eigenvalues), _NEGATIVE_J_TOL, "mutual information")
    return j_max, best, mutual, _nonnegative(j, _NEGATIVE_J_TOL, "classical correlation")


def correlation_record(rho: DensityMatrix, p: float = 0.0) -> CorrelationRecord:
    """Every correlation quantity of one state, labelled with channel strength p.

    J in the sigma_z and sigma_x bases, the maximum with its argmax angles,
    mutual information, and discord.
    """
    return _records([p], *_record_arrays(*_one_state(rho)))[0]


def quantum_discord(rho: DensityMatrix) -> float:
    """Mutual information minus maximal classical correlation, in bits.

    The discord of correlation_record(rho), from one pass over the state.
    Values in [-1e-6, 0) are rounded to 0 (optimizer tolerance); anything
    below that signals an optimizer failure and raises.
    """
    return correlation_record(rho).discord
