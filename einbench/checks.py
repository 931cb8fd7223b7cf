"""Output checks for the benchmark's CLI calls.

Each check takes the parsed JSON a CLI call wrote and returns a list of
problems; an empty list means the output is right. The references come from
`oracle` and from properties the method must have, never from a stored copy
of an earlier run's output.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

REGIMES = ("constant", "decay-then-constant", "monotonic-decay", "sudden-change-no-plateau")

# Closed forms and the program agree to ~1e-15 on values and ~1e-12 on the
# bisected transition; these bounds leave room for reordered arithmetic.
VALUE_TOL = 1e-9
TRANSITION_TOL = 1e-9
# The optimal axis is checked only where the largest |c_i| leads the next by
# AXIS_GAP; there the grid holds the exact axis and refinement stays on it.
AXIS_GAP = 1e-3
AXIS_TOL = 1e-6
# Away from the sigma_z pole the program's compass refinement stops within
# ~1e-12 bits of the maximum (near the pole it does not; see README.md).
BRUTE_TOL = 1e-8
# j_max may not rise along p: J read on the apparatus cannot grow under a
# further channel on it, and both pd(p) and ad(p) compose into themselves.
MONOTONE_SLACK = 1e-9

# The suites' own pass thresholds (the paper's theorems, as the program
# documents them) and their default seeds.
SUITE_DEFAULT_SEED = {"theorem1": 42, "lemma1": 3, "theorem2": 7}
SUITE_WORST_LIMIT = {"theorem1": 1e-10, "lemma1": 0.0, "theorem2": 0.0}

RECORD_KEYS = ("p", "j_z", "j_x", "j_max", "opt_theta", "opt_phi", "mutual_info", "discord")
QUANTITIES = ("j_z", "j_x", "j_max", "discord")


def _grid_problems(ps, points: int, where: str) -> list:
    expected = np.linspace(0.0, 1.0, points)
    if len(ps) != points:
        return [f"{where}: {len(ps)} grid points, expected {points}"]
    if np.max(np.abs(np.asarray(ps, dtype=float) - expected)) > 1e-15:
        return [f"{where}: strength grid is not linspace(0, 1, {points})"]
    return []


def _report_shape(report: dict, points: int) -> list:
    problems = []
    if report.get("regime") not in REGIMES:
        problems.append(f"unknown regime {report.get('regime')!r}")
    if report.get("gamma") != 1.0 or report.get("tau_d") != 1.0:
        problems.append("gamma and tau_d must both be 1 at the default decay rate")
    records = report.get("records") or []
    if any(set(r) != set(RECORD_KEYS) for r in records):
        problems.append("a record does not carry exactly the documented fields")
        return problems
    problems += _grid_problems([r["p"] for r in records], points, "records")
    return problems


def check_sweep(payload: dict, params, points: int = 201) -> list:
    """A `sweep --format json` trajectory of an X state under phase damping."""
    c, b, z, w = params
    problems = _report_shape(payload, points)
    if problems:
        return problems
    for rec in payload["records"]:
        ref = oracle.x_state_point(c, b, z, w, rec["p"])
        for key in ("j_z", "j_x", "j_max", "mutual_info", "discord"):
            if abs(rec[key] - ref[key]) > VALUE_TOL:
                problems.append(
                    f"p={rec['p']}: {key}={rec[key]!r}, closed form {ref[key]!r}"
                )
        if ref["gap"] >= AXIS_GAP and ref["j_max"] > 1e-9:
            angle = oracle.axis_angle(oracle.axis_of(rec["opt_theta"], rec["opt_phi"]), ref["axis"])
            if angle > AXIS_TOL:
                problems.append(f"p={rec['p']}: optimal axis is {angle:.3g} rad off the Pauli axis")
    regime, p_star = oracle.x_state_transition(c, b, z, w)
    if payload["regime"] != regime:
        problems.append(f"regime {payload['regime']!r}, closed form {regime!r}")
    got = payload["transition_p"]
    if (got is None) != (p_star is None) or (
        p_star is not None and abs(got - p_star) > TRANSITION_TOL
    ):
        problems.append(f"transition_p={got!r}, closed form {p_star!r}")
    # emergence_time uses |z + w|, which equals |z| + |w| only when z w >= 0;
    # the z w < 0 case is a known fault of the program, reported separately.
    if z * w >= 0.0:
        tau, p_e = payload["emergence_time"], payload["p_e"]
        if p_star is None:
            if tau is not None or p_e is not None:
                problems.append(f"emergence_time={tau!r} where no transition exists")
        elif (
            tau is None
            or p_e is None
            or abs(p_e - p_star) > TRANSITION_TOL
            or abs(tau + math.log1p(-p_star)) > TRANSITION_TOL
        ):
            problems.append(f"emergence p_e={p_e!r}, tau={tau!r}; closed form p*={p_star!r}")
    return problems


def check_suite(payload: dict, suite: str, trials: int) -> list:
    """A `verify --suite <suite> --format json` outcome."""
    problems = []
    expected = {
        "theorem_id": suite,
        "trials": trials,
        "failures": 0,
        "seed": SUITE_DEFAULT_SEED[suite],
        "passed": True,
    }
    for key, value in expected.items():
        if payload.get(key) != value:
            problems.append(f"{suite}: {key}={payload.get(key)!r}, expected {value!r}")
    worst = payload.get("worst_violation")
    if not isinstance(worst, float) or not 0.0 <= worst <= SUITE_WORST_LIMIT[suite]:
        problems.append(f"{suite}: worst_violation={worst!r} above {SUITE_WORST_LIMIT[suite]}")
    return problems


def _band_problems(bands: dict, channel: str, points: int, samples: int, seed: int) -> list:
    problems = []
    if bands.get("samples") != samples or bands.get("seed") != seed:
        problems.append("bands carry the wrong samples or seed")
    problems += _grid_problems(bands.get("p") or [], points, "bands")
    means = {k: np.asarray(bands["means"][k], dtype=float) for k in QUANTITIES}
    stds = {k: np.asarray(bands["stds"][k], dtype=float) for k in QUANTITIES}
    if any(v.shape != (points,) for v in list(means.values()) + list(stds.values())):
        return problems + ["band arrays have the wrong length"]
    j_max = means["j_max"]
    if np.max(np.diff(j_max)) > MONOTONE_SLACK:
        problems.append(f"j_max mean rises by {np.max(np.diff(j_max)):.3g} along p")
    for key in ("j_z", "j_x"):
        if np.min(j_max - means[key]) < -MONOTONE_SLACK:
            problems.append(f"j_max mean falls below the {key} mean")
    if np.min(means["discord"]) < 0.0 or min(np.min(s) for s in stds.values()) < 0.0:
        problems.append("negative discord mean or negative std")
    if channel == "pd":
        for band in (means["j_z"], stds["j_z"]):
            if np.ptp(band) > VALUE_TOL:
                problems.append(f"j_z band moves by {np.ptp(band):.3g} under dephasing")
    if channel == "ad":
        last = max(abs(means[k][-1]) for k in QUANTITIES)
        if last > VALUE_TOL:
            problems.append(f"a mean is {last:.3g}, not 0, at p = 1 under amplitude damping")
    count = bands.get("transition_count")
    if not isinstance(count, int) or not 0 <= count <= samples:
        problems.append(f"transition_count={count!r} outside [0, {samples}]")
    return problems


def check_analyze(
    payload: dict, raw: np.ndarray, channel: str, points: int, samples: int, seed: int
) -> list:
    """An `analyze --format json` report with Monte Carlo bands."""
    state, deviations = oracle.project_physical(raw)
    problems = []
    for key, value in deviations.items():
        if abs(payload["deviations"][key] - value) > 1e-10:
            problems.append(f"deviation {key}={payload['deviations'][key]!r}, recomputed {value!r}")
    report = payload["report"]
    problems += _report_shape(report, points)
    if problems:
        return problems
    records = report["records"]
    j_max = np.array([r["j_max"] for r in records])
    if np.max(np.diff(j_max)) > MONOTONE_SLACK:
        problems.append("point-estimate j_max rises along p")
    for index in (0, points // 4, points // 2, (3 * points) // 4):
        rec = records[index]
        evolved = oracle.CHANNELS[channel](state, rec["p"])
        best, _ = oracle.brute_force_jmax(evolved)
        if abs(rec["j_max"] - best) > BRUTE_TOL:
            problems.append(f"p={rec['p']}: j_max={rec['j_max']!r}, brute force {best!r}")
        fixed = oracle.correlation_along(evolved, [oracle.AXES[2], oracle.AXES[0]])
        for key, ref in (("j_z", fixed[0]), ("j_x", fixed[1]), ("mutual_info", oracle.mutual_information(evolved))):
            if abs(rec[key] - ref) > VALUE_TOL:
                problems.append(f"p={rec['p']}: {key}={rec[key]!r}, recomputed {ref!r}")
    if report["emergence_time"] is not None:
        problems.append("emergence_time reported for a state that is not an X state")
    bands = payload.get("bands")
    if bands is None:
        return problems + ["no Monte Carlo bands in the report"]
    return problems + _band_problems(bands, channel, points, samples, seed)
