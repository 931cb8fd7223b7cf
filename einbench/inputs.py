"""Seeded inputs for the einselect benchmark.

The same seed always gives the same inputs. The program receives only what
this module generates: X-state parameter strings for `sweep --state` and a
matrix file for `analyze --matrix-file`.

Regenerate and inspect them with

    python3 einbench/inputs.py --seed 7 --out einbench/out
"""

from __future__ import annotations

import argparse
import math
import os

import numpy as np

import oracle

# c, b, z, w of the paper's reference states and of the c = b counterexample
# (I + sigma_x x sigma_x) / 4; they run on every seed.
FIXED_X_STATES = (
    ("STATE_1", (0.4, 0.1, 0.1, 0.4)),
    ("STATE_2", (0.4, 0.1, 0.1, 0.15)),
    ("remark", (0.25, 0.25, 0.25, 0.25)),
)


def _draw_x_state(rng: np.random.Generator, sign: float):
    """An X state whose coherences have z * w of the given sign.

    Drawn until the state has a sudden change at p* in [0.1, 0.9] and keeps
    every competing correlation at least 0.02 apart, so the optimal axis is
    unique on most of the sweep and the detected transition is not a tie.
    """
    while True:
        c = round(float(rng.uniform(0.05, 0.45)), 6)
        b = 0.5 - c
        w = round(float(rng.uniform(-0.95 * c, 0.95 * c)), 6)
        z = round(math.copysign(float(rng.uniform(0.0, 0.95 * b)), sign * w), 6)
        regime, p_star = oracle.x_state_transition(c, b, z, w)
        if (
            min(abs(z), abs(w), abs(c - b)) >= 0.02
            and p_star is not None
            and 0.1 <= p_star <= 0.9
        ):
            return c, b, z, w


def x_states(seed: int):
    """(name, (c, b, z, w)) for the sweep-xstate workload, in sweep order."""
    rng = np.random.default_rng([seed, 1])
    drawn = (
        ("drawn_zw_pos", _draw_x_state(rng, 1.0)),
        ("drawn_zw_neg", _draw_x_state(rng, -1.0)),
    )
    return drawn + FIXED_X_STATES


def state_flag(params) -> str:
    return ",".join(repr(float(v)) for v in params)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def tomography_matrix(seed: int):
    """A reconstructed-looking two-qubit state for the analyze-mc workload.

    A rank-3 state in a random eigenbasis (so it is not an X state), plus
    small non-Hermitian noise and a trace error, redrawn until the smallest
    eigenvalue of the symmetrized matrix is negative (the projection has
    work to do) and the projection moves it by less than 0.03 in max-norm
    (well under the 0.05 ingestion gate). Returns (raw, std).
    """
    rng = np.random.default_rng([seed, 2])
    spectrum = np.sort(rng.dirichlet([2.0, 2.0, 2.0]))[::-1]
    u = _random_unitary(rng, 4)
    state = (u[:, :3] * spectrum) @ u[:, :3].conj().T
    while True:
        noise = rng.normal(scale=0.003, size=(4, 4)) + 1j * rng.normal(scale=0.003, size=(4, 4))
        raw = state * (1.0 + float(rng.uniform(-0.01, 0.01))) + noise
        _, dev = oracle.project_physical(raw)
        if dev["min_eigenvalue"] < 0.0 and dev["projection_distance"] < 0.03:
            break
    std = 0.002 + 0.004 * rng.random(size=(4, 4))
    return raw, std


def matrix_file_text(raw: np.ndarray, std: np.ndarray, comment: str) -> str:
    def rows(block):
        return [" ".join(repr(float(v)) for v in row) for row in block]

    lines = [f"# {comment}", f"dim {raw.shape[0]}", "real"]
    lines += rows(raw.real) + ["imag"] + rows(raw.imag) + ["std"] + rows(std)
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=os.path.join("einbench", "out"))
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name, params in x_states(args.seed):
        print(f"{name:14s} --state {state_flag(params)}")
    raw, std = tomography_matrix(args.seed)
    path = os.path.join(args.out, f"tomography-seed{args.seed}.mat")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_file_text(raw, std, f"analyze-mc input, seed {args.seed}"))
    print(f"matrix file    {path}")


if __name__ == "__main__":
    main()
