"""Independent reference values for einselect outputs.

Nothing here imports einselect or copies its code. Two kinds of reference:

* Closed forms for Bell-diagonal X states under phase damping of the
  apparatus (Luo, PRA 77, 042303, 2008). An X state with diagonal
  (c, b, b, c) and real anti-diagonal coherences w (corner) and z (centre)
  has maximally mixed marginals and correlation vector
  (c1, c2, c3) = (2(w + z)(1 - p), 2(z - w)(1 - p), 2(c - b)) after
  dephasing at strength p. Its classical correlation along an apparatus
  axis n is 1 - h((1 + |T n|) / 2) with T = diag(c1, c2, c3), so
  J_max = 1 - h((1 + max|c_i|) / 2), attained on the Pauli axis of the
  largest |c_i|.
* A brute-force maximizer for any two-qubit state: J on a dense Fibonacci
  sphere of apparatus axes, then a shrinking local grid around the best
  candidates. It works in the Bloch form (r, s, T) with its own 2x2
  eigenvalue formula, so it shares no arithmetic path with the program's
  ket-and-einsum optimizer.

Conventions follow the program's documented ones: basis order |system> x
|apparatus>, entropies in bits, the measurement axis of (theta, phi) is
(sin theta cos phi, sin theta sin phi, cos theta).
"""

from __future__ import annotations

import math

import numpy as np

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1j], [1j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
I2 = np.eye(2, dtype=complex)

AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)

REGIME_CONSTANT = "constant"
REGIME_DECAY_THEN_CONSTANT = "decay-then-constant"
REGIME_MONOTONIC_DECAY = "monotonic-decay"


def xlog2x(t):
    """Elementwise t log2 t with 0 log 0 = 0 and tiny negatives treated as 0."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, None)
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * np.log2(t[pos])
    return out


def entropy_bits(eigenvalues) -> float:
    """Shannon entropy of a spectrum, in bits."""
    return float(-np.sum(xlog2x(eigenvalues)))


def binary_entropy(x: float) -> float:
    return entropy_bits([x, 1.0 - x])


def luo_j(length: float) -> float:
    """Classical correlation 1 - h((1 + |c|) / 2) of a Bell-diagonal state."""
    return 1.0 - binary_entropy((1.0 + abs(length)) / 2.0)


# --- Bell-diagonal X states under phase damping -----------------------------


def bell_vector(c: float, b: float, z: float, w: float, p: float) -> np.ndarray:
    """Correlation vector (c1, c2, c3) of the X state dephased at strength p."""
    return np.array([2.0 * (w + z) * (1.0 - p), 2.0 * (z - w) * (1.0 - p), 2.0 * (c - b)])


def x_state_point(c: float, b: float, z: float, w: float, p: float) -> dict:
    """Every correlation quantity of one dephased X state, in closed form.

    `axis` is the optimal apparatus axis and `gap` the margin of the largest
    |c_i| over the next one; where the gap is tiny the optimal axis is not
    unique and a program's argmax is a tie-break.
    """
    vec = np.abs(bell_vector(c, b, z, w, p))
    order = np.argsort(vec)[::-1]
    j_max = luo_j(vec[order[0]])
    eigs = [c + w * (1.0 - p), c - w * (1.0 - p), b + z * (1.0 - p), b - z * (1.0 - p)]
    mutual = 2.0 - entropy_bits(eigs)
    return {
        "j_z": luo_j(vec[2]),
        "j_x": luo_j(vec[0]),
        "j_max": j_max,
        "mutual_info": mutual,
        "discord": max(mutual - j_max, 0.0),
        "axis": AXES[order[0]],
        "gap": float(vec[order[0]] - vec[order[1]]),
    }


def x_state_transition(c: float, b: float, z: float, w: float):
    """Regime label and transition strength p* of an X state under dephasing.

    The pointer value |c3| = 2|c - b| competes with the transverse value
    max(|c1|, |c2|) = 2(|z| + |w|)(1 - p); they cross at
    p* = 1 - |c - b| / (|z| + |w|). Returns (regime, p*) with p* None when
    the optimal basis never jumps.
    """
    gap = abs(c - b)
    transverse = abs(z) + abs(w)
    if gap == 0.0:
        return (REGIME_MONOTONIC_DECAY if transverse > 0.0 else REGIME_CONSTANT), None
    if transverse <= gap:
        return REGIME_CONSTANT, None
    return REGIME_DECAY_THEN_CONSTANT, 1.0 - gap / transverse


# --- general two-qubit states -----------------------------------------------


def x_matrix(c: float, b: float, z: float, w: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = c
    m[1, 1] = m[2, 2] = b
    m[0, 3] = m[3, 0] = w
    m[1, 2] = m[2, 1] = z
    return m


def bloch_form(rho: np.ndarray):
    """System Bloch vector r, apparatus Bloch vector s, correlation matrix T."""
    rho = np.asarray(rho, dtype=complex)
    r = np.array([np.trace(rho @ np.kron(P, I2)).real for P in PAULI])
    s = np.array([np.trace(rho @ np.kron(I2, P)).real for P in PAULI])
    t = np.array([[np.trace(rho @ np.kron(P, Q)).real for Q in PAULI] for P in PAULI])
    return r, s, t


def correlation_along(rho: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Classical correlation J for measuring the apparatus along each row of axes."""
    return _correlation_bloch(bloch_form(rho), axes)


def _correlation_bloch(form, axes: np.ndarray) -> np.ndarray:
    """J from the Bloch form (r, s, T) for each axis.

    Outcome +-1 has probability (1 +- s.n)/2 and leaves the system with the
    unnormalized Bloch vector (r +- T n)/2, whose 2x2 block has eigenvalues
    (1 +- s.n +- |r +- T n|) / 4.
    """
    r, s, t = form
    axes = np.atleast_2d(np.asarray(axes, dtype=float))
    sn = axes @ s
    tn = axes @ t.T
    r_len = float(np.linalg.norm(r))
    total = np.full(axes.shape[0], entropy_bits([(1.0 + r_len) / 2.0, (1.0 - r_len) / 2.0]))
    for sign in (1.0, -1.0):
        weight = 1.0 + sign * sn
        radius = np.linalg.norm(r[None, :] + sign * tn, axis=1)
        total -= xlog2x(weight / 2.0) - xlog2x((weight + radius) / 4.0) - xlog2x((weight - radius) / 4.0)
    return total


def mutual_information(rho: np.ndarray) -> float:
    rho = np.asarray(rho, dtype=complex)
    r4 = rho.reshape(2, 2, 2, 2)
    rho_s = np.einsum("iaja->ij", r4)
    rho_a = np.einsum("aiaj->ij", r4)
    return (
        entropy_bits(np.linalg.eigvalsh(rho_s))
        + entropy_bits(np.linalg.eigvalsh(rho_a))
        - entropy_bits(np.linalg.eigvalsh(rho))
    )


def fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    cos_t = 1.0 - 2.0 * k / n
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)


def _tangent_frame(n: np.ndarray):
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n, e1)


def brute_force_jmax(rho: np.ndarray, points: int = 20000, starts: int = 4):
    """Maximal J over apparatus axes: dense sphere plus local grid zoom.

    Returns (j_max, axis). The zoom refines each of the `starts` best sphere
    points on a 5 x 5 tangent-plane grid whose spacing halves from 0.02 rad
    to below 1e-9 rad, so the value is accurate far beyond 1e-10 bits.
    """
    form = bloch_form(rho)
    sphere = fibonacci_sphere(points)
    values = _correlation_bloch(form, sphere)
    offsets = np.linspace(-2.0, 2.0, 5)
    du, dv = (a.ravel() for a in np.meshgrid(offsets, offsets))
    best_value, best_axis = -math.inf, None
    for idx in np.argsort(values)[::-1][:starts]:
        axis, value = sphere[idx], float(values[idx])
        step = 0.02
        while step > 1e-9:
            e1, e2 = _tangent_frame(axis)
            cand = axis[None, :] + step * (du[:, None] * e1 + dv[:, None] * e2)
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            vals = _correlation_bloch(form, cand)
            k = int(np.argmax(vals))
            if vals[k] > value:
                axis, value = cand[k], float(vals[k])
            else:
                step /= 2.0
        if value > best_value:
            best_value, best_axis = value, axis
    return best_value, best_axis


def axis_of(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def axis_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two measurement axes, identifying antipodal ones."""
    return math.acos(min(abs(float(np.dot(a, b))), 1.0))


# --- channels on the apparatus and the physicality projection ---------------


def dephase(rho: np.ndarray, p: float) -> np.ndarray:
    """Phase damping: apparatus coherences (a != a') shrink by 1 - p."""
    r4 = np.array(rho, dtype=complex).reshape(2, 2, 2, 2)
    r4[:, 0, :, 1] *= 1.0 - p
    r4[:, 1, :, 0] *= 1.0 - p
    return r4.reshape(4, 4)


def amplitude_damp(rho: np.ndarray, p: float) -> np.ndarray:
    """Amplitude damping of the apparatus, |1> -> |0> with probability p."""
    k0 = np.kron(I2, np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]]))
    k1 = np.kron(I2, np.array([[0.0, math.sqrt(p)], [0.0, 0.0]]))
    return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T


CHANNELS = {"pd": dephase, "ad": amplitude_damp}


def project_physical(raw: np.ndarray):
    """Nearest-state projection as documented for matrix-file ingestion.

    Symmetrize, divide by the trace, clip negative eigenvalues, renormalize.
    Returns (state, deviations) with the deviations keyed as in the
    program's `analyze` JSON.
    """
    m = np.asarray(raw, dtype=complex)
    sym = 0.5 * (m + m.conj().T)
    trace = float(np.trace(sym).real)
    vals, vecs = np.linalg.eigh(sym / trace)
    clipped = np.clip(vals, 0.0, None)
    clipped /= clipped.sum()
    state = (vecs * clipped) @ vecs.conj().T
    return state, {
        "hermiticity": float(np.max(np.abs(m - m.conj().T))),
        "trace": abs(trace - 1.0),
        "min_eigenvalue": float(vals[0]),
        "projection_distance": float(np.max(np.abs(m - state))),
    }
