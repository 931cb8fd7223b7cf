"""Classical correlation, its maximization over apparatus measurements, and discord.

The classical correlation of a two-qubit state for a given rank-1 projective
measurement {Pi_0, Pi_1} on the apparatus is

    J = S(rho_s) - sum_i p_i S(rho_s | outcome i)        (bits)

i.e. the information about the system retrievable from that measurement.
Its maximum over all projective bases is computed by a deterministic coarse
grid over the Bloch angles followed by derivative-free compass refinement;
quantum discord is mutual information minus that maximum.

Measurement kets are parametrized as
    |u_0> = (cos(theta/2), e^{i phi} sin(theta/2)),
    |u_1> = (sin(theta/2), -e^{i phi} cos(theta/2)),
so (theta, phi) and (pi - theta, phi + pi) describe the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OptimizationError
from .qstate import DensityMatrix, partial_trace, von_neumann_entropy

# Probability below which a measurement outcome never happens and its
# conditioned state is undefined (contributes zero to the entropy average).
OUTCOME_FLOOR = 1e-14

# |J| below this is floating-point dust on a mathematically nonnegative value.
_NEGATIVE_J_TOL = 1e-9

DISCORD_CLAMP = 1e-6


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
        if th < -1e-9 or th > math.pi + 1e-9:
            raise OptimizationError(f"theta must lie in [0, pi], got {th}")
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

    def kets(self) -> tuple[np.ndarray, np.ndarray]:
        """The two orthonormal measurement kets."""
        c = math.cos(self.theta / 2.0)
        s = math.sin(self.theta / 2.0)
        e = complex(math.cos(self.phi), math.sin(self.phi))
        return (
            np.array([c, e * s], dtype=complex),
            np.array([s, -e * c], dtype=complex),
        )

    @property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        k0, k1 = self.kets()
        return (np.outer(k0, k0.conj()), np.outer(k1, k1.conj()))


def basis_distance(a: ProjectiveBasis, b: ProjectiveBasis) -> float:
    """Angle between two measurement axes, identifying antipodal directions."""
    dot = abs(float(np.dot(a.axis, b.axis)))
    return math.acos(min(dot, 1.0))


# Compass refinement halves its step once a move gains less than this many
# bits, and gives up after MAX_REFINE_STEPS candidate batches.
REFINE_GAIN = 1e-10
MAX_REFINE_STEPS = 400


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for maximize_classical_correlation.

    n_theta x n_phi is the coarse grid (theta in [0, pi] inclusive, phi in
    [0, 2 pi) exclusive). Refinement stops once its step falls below min_step.
    """

    n_theta: int = 64
    n_phi: int = 128
    min_step: float = 1e-10

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 2:
            raise OptimizationError("grid must have at least 2 points per angle")


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


def _xlog2x(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, None)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * np.log2(t[pos])
    return out


def _batch_correlation(r4: np.ndarray, s_entropy: float, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Classical correlation for a batch of measurement bases.

    r4 is the state reshaped to (2, 2, 2, 2) with axes (s, a, s', a').
    Conditional 2x2 blocks are reduced in one einsum per outcome and their
    eigenvalues taken in closed form, so the cost is O(batch) with tiny
    constants. Evaluation order of the batch does not affect any result.
    """
    half_t = thetas / 2.0
    ct, st = np.cos(half_t), np.sin(half_t)
    e = np.exp(1j * phis)
    kets0 = np.stack([ct.astype(complex), e * st], axis=1)
    kets1 = np.stack([st.astype(complex), -e * ct], axis=1)

    conditional = np.zeros(thetas.shape, dtype=float)
    for kets in (kets0, kets1):
        m = np.einsum("gj,mjnk,gk->gmn", kets.conj(), r4, kets)
        a = m[:, 0, 0].real
        d = m[:, 1, 1].real
        prob = a + d
        radius = np.sqrt(((a - d) / 2.0) ** 2 + np.abs(m[:, 0, 1]) ** 2)
        lam_hi = (a + d) / 2.0 + radius
        lam_lo = (a + d) / 2.0 - radius
        # p H(lambda / p) = xlog2x(p) - xlog2x(lambda_hi) - xlog2x(lambda_lo)
        conditional += _xlog2x(prob) - _xlog2x(lam_hi) - _xlog2x(lam_lo)
    return s_entropy - conditional


def conditional_state(rho: DensityMatrix, basis: ProjectiveBasis, outcome: int):
    """Probability of a measurement outcome and the conditioned system state.

    Returns (p_i, rho_s_given_i). An outcome with probability below 1e-14
    never occurs: the probability is reported as 0.0 and the conditioned state
    as None (undefined; its entropy term contributes nothing).
    """
    if rho.dim != 4:
        raise OptimizationError(f"expected a two-qubit state, got dim {rho.dim}")
    if outcome not in (0, 1):
        raise OptimizationError(f"outcome must be 0 or 1, got {outcome}")
    ket = rho.entries.reshape(2, 2, 2, 2)
    u = basis.kets()[outcome]
    block = np.einsum("j,mjnk,k->mn", u.conj(), ket, u)
    prob = float(block.trace().real)
    if prob < OUTCOME_FLOOR:
        return 0.0, None
    return prob, DensityMatrix(block / prob)


def classical_correlation(rho: DensityMatrix, basis: ProjectiveBasis) -> float:
    """J for one fixed measurement basis, in bits. Lies in [0, S(rho_s)]."""
    total = von_neumann_entropy(partial_trace(rho, "system"))
    for outcome in (0, 1):
        prob, cond = conditional_state(rho, basis, outcome)
        if cond is not None:
            total -= prob * von_neumann_entropy(cond)
    if total < 0.0:
        if total < -_NEGATIVE_J_TOL:
            raise OptimizationError(
                f"classical correlation evaluated to {total:.3e} < 0"
            )
        total = 0.0
    return float(total)


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations S(rho_s) + S(rho_a) - S(rho_sa), in bits."""
    if rho.dim != 4:
        raise OptimizationError(f"expected a two-qubit state, got dim {rho.dim}")
    total = (
        von_neumann_entropy(partial_trace(rho, "system"))
        + von_neumann_entropy(partial_trace(rho, "apparatus"))
        - von_neumann_entropy(rho)
    )
    if total < 0.0:
        if total < -_NEGATIVE_J_TOL:
            raise OptimizationError(f"mutual information evaluated to {total:.3e} < 0")
        total = 0.0
    return float(total)


def maximize_classical_correlation(
    rho: DensityMatrix, settings: OptimizerSettings | None = None
) -> tuple[float, ProjectiveBasis]:
    """Maximum classical correlation over all rank-1 projective bases.

    Deterministic: a coarse theta x phi grid (augmented with the exact
    sigma_x, sigma_y and sigma_z axes, so the result never falls below those
    by more than rounding), then compass-search refinement from the best
    candidate. The objective has entropy kinks where conditional eigenvalues
    cross, so refinement is derivative-free. On exactly degenerate maxima the
    first candidate in (theta, phi) lexicographic order wins.
    """
    cfg = settings or OptimizerSettings()
    r4 = rho.entries.reshape(2, 2, 2, 2)
    s_entropy = von_neumann_entropy(partial_trace(rho, "system"))

    theta_grid = np.linspace(0.0, math.pi, cfg.n_theta)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, cfg.n_phi, endpoint=False)
    thetas = np.concatenate([np.repeat(theta_grid, cfg.n_phi), [0.0, math.pi / 2, math.pi / 2]])
    phis = np.concatenate([np.tile(phi_grid, cfg.n_theta), [0.0, 0.0, math.pi / 2]])
    values = _batch_correlation(r4, s_entropy, thetas, phis)
    best_idx = int(np.argmax(values))
    best = float(values[best_idx])
    theta = float(thetas[best_idx])
    phi = float(phis[best_idx])

    step = max(math.pi / (cfg.n_theta - 1), 2.0 * math.pi / cfg.n_phi)
    for _ in range(MAX_REFINE_STEPS):
        if step < cfg.min_step:
            break
        cand_t = np.clip([theta + step, theta - step, theta, theta], 0.0, math.pi)
        cand_p = np.mod([phi, phi, phi + step, phi - step], 2.0 * math.pi)
        vals = _batch_correlation(r4, s_entropy, np.asarray(cand_t), np.asarray(cand_p))
        k = int(np.argmax(vals))
        gain = float(vals[k]) - best
        if gain > 0.0:
            best = float(vals[k])
            theta = float(cand_t[k])
            phi = float(cand_p[k])
            if gain < REFINE_GAIN:
                step /= 2.0
        else:
            step /= 2.0

    if best < 0.0:
        if best < -_NEGATIVE_J_TOL:
            raise OptimizationError(f"optimizer produced negative maximum {best:.3e}")
        best = 0.0
    return best, ProjectiveBasis(theta, phi)


def correlation_record(
    rho: DensityMatrix, p: float = 0.0, settings: OptimizerSettings | None = None
) -> CorrelationRecord:
    """Every correlation quantity of one state, labelled with channel strength p.

    J in the sigma_z and sigma_x bases, the maximum with its argmax angles,
    mutual information, and discord.
    """
    j_max, argmax = maximize_classical_correlation(rho, settings)
    mi = mutual_information(rho)
    return CorrelationRecord(
        p=p,
        j_z=classical_correlation(rho, ProjectiveBasis.sigma_z()),
        j_x=classical_correlation(rho, ProjectiveBasis.sigma_x()),
        j_max=j_max,
        opt_theta=argmax.theta,
        opt_phi=argmax.phi,
        mutual_info=mi,
        discord=clamp_discord(mi - j_max),
    )


def quantum_discord(rho: DensityMatrix, settings: OptimizerSettings | None = None) -> float:
    """Mutual information minus maximal classical correlation, in bits.

    Values in [-1e-6, 0) are rounded to 0 (optimizer tolerance); anything
    below that signals an optimizer failure and raises.
    """
    j_max, _ = maximize_classical_correlation(rho, settings)
    return clamp_discord(mutual_information(rho) - j_max)


def clamp_discord(delta: float) -> float:
    """Apply the discord sign tolerance: tiny negatives are zero, big ones raise."""
    if delta < 0.0:
        if delta < -DISCORD_CLAMP:
            raise OptimizationError(
                f"discord = {delta:.3e} below -{DISCORD_CLAMP}: optimizer failure"
            )
        return 0.0
    return float(delta)
