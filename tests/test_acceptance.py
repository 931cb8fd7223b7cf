"""End-to-end checks, one per shipped guarantee.

Each test is a single pass/fail gate over the public API: emergence
detection speed and location, the three verification suites at full
trial counts, regime classification of the four reference runs,
discord behaviour through the transition, the counterexample family,
optimizer accuracy against a dense brute-force grid, the timescale
comparison, and byte-level determinism of the CLI.
"""

import math

import numpy as np
import pytest

from einselect import (
    STATE_1,
    STATE_2,
    XStateParams,
    apply_to_apparatus,
    emergence_time,
    make_x_state,
    maximize_classical_correlation,
    phase_damping,
    random_density_matrix,
    remark_state,
    sweep,
    verify_lemma1,
    verify_theorem1,
    verify_theorem2,
)
from einselect.cli import main

PLATEAU = 0.2780719051126377


def brute_force_jmax(rho, n_theta=512, n_phi=1024):
    # Independent oracle: dense angular grid with the closed-form eigenvalues
    # (a + d)/2 +- sqrt(((a - d)/2)^2 + |b|^2) of each Hermitian conditional
    # block [[a, b], [b*, d]], no shared code with the library optimizer.
    r4 = np.asarray(rho).reshape(2, 2, 2, 2)
    # <u| rho |u>[m, n] = sum_jk conj(u_j) u_k rho[m j, n k]: rows of outer(conj u, u)
    # times this (4, 4) matrix, indexed [(j, k), (m, n)].
    r_jk_mn = r4.transpose(1, 3, 0, 2).reshape(4, 4)
    thetas = np.repeat(np.linspace(0.0, np.pi, n_theta), n_phi)
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False), n_theta)
    ct, st = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    ph = np.exp(1j * phis)
    kets = [
        np.stack([ct.astype(complex), ph * st], axis=1),
        np.stack([st.astype(complex), -ph * ct], axis=1),
    ]
    rho_s = np.trace(r4, axis1=1, axis2=3)
    sv = np.linalg.eigvalsh(rho_s)
    sv = sv[sv > 0.0]
    s_entropy = float(-np.sum(sv * np.log2(sv)))
    avg = np.zeros(thetas.shape)
    for u in kets:
        blocks = ((u.conj()[:, :, None] * u[:, None, :]).reshape(-1, 4) @ r_jk_mn).reshape(-1, 2, 2)
        a, d, b = blocks[:, 0, 0].real, blocks[:, 1, 1].real, blocks[:, 0, 1]
        mean = (a + d) / 2.0
        radius = np.sqrt(((a - d) / 2.0) ** 2 + (b.real**2 + b.imag**2))
        lam = np.clip(np.stack([mean - radius, mean + radius], axis=1), 0.0, None)
        prob = lam.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(lam > 0.0, lam * np.log2(lam), 0.0)
            pl = np.where(prob > 0.0, prob * np.log2(prob), 0.0)
        avg += pl - plogp.sum(axis=1)
    return float(np.max(s_entropy - avg))


def test_criterion_01_emergence_point(pd_state1_run):
    assert pd_state1_run.seconds < 5.0
    report = pd_state1_run.report
    assert report.transition_p == pytest.approx(0.4, abs=1e-6)
    assert report.p_e == pytest.approx(0.4, abs=1e-6)


def test_criterion_02_measurement_invariance_suite():
    outcome = verify_theorem1()
    assert outcome.passed
    assert outcome.trials == 1000
    assert outcome.failures == 0
    assert outcome.worst_violation < 1e-10


def test_criterion_03_plateau_suite():
    outcome = verify_theorem2()
    assert outcome.passed
    assert outcome.trials == 200
    assert outcome.failures == 0


def test_criterion_04_zero_discord_argmax_suite():
    outcome = verify_lemma1()
    assert outcome.passed
    assert outcome.trials == 500
    assert outcome.failures == 0


def test_criterion_05_regime_reproduction(pd_state1_run):
    report = pd_state1_run.report
    assert report.regime == "decay-then-constant"
    plateau = [r.j_max for r in report.records if r.p >= report.transition_p - 1e-12]
    np.testing.assert_allclose(plateau, PLATEAU, rtol=0.0, atol=1e-6)

    flat = sweep(make_x_state(STATE_2), "pd", np.linspace(0.0, 1.0, 101))
    assert flat.regime == "constant"
    assert flat.transition_p is None

    drain = sweep(make_x_state(STATE_1), "ad", np.linspace(0.0, 1.0, 101))
    assert drain.regime == "monotonic-decay"
    assert drain.transition_p is None

    jump = sweep(make_x_state(STATE_2), "ad", np.linspace(0.0, 1.0, 101))
    assert jump.regime == "sudden-change-no-plateau"
    assert jump.transition_p is not None


def test_criterion_06_discord_stays_positive(pd_state1_run):
    records = pd_state1_run.report.records
    for r in records:
        if r.p < 1.0:
            assert r.discord > 0.0
        if r.p <= 0.985:
            assert r.discord > 1e-4
        if abs(r.p - 0.99) < 1e-9:
            # The exact discord here is 7.21e-5, already below 1e-4, so
            # the floor loosens to 1e-5 for the last pre-unit stretch.
            assert r.discord > 1e-5
    tail = [r.discord for r in records if r.p >= 0.4 - 1e-12]
    assert all(b - a < 1e-12 for a, b in zip(tail, tail[1:]))


def test_criterion_07_counterexample_family():
    report = sweep(remark_state(), "pd", np.linspace(0.0, 1.0, 201))
    j_z = [r.j_z for r in report.records]
    j_max = [r.j_max for r in report.records]
    assert max(j_z) < 1e-12
    # The sigma_z correlation vanishes identically while the maximum
    # starts at a full bit and drains smoothly: 1 - H(0.75) at p = 0.5.
    assert j_max[0] == pytest.approx(1.0, abs=1e-9)
    assert j_max[100] == pytest.approx(0.188722, abs=1e-6)
    assert all(b < a for a, b in zip(j_max, j_max[1:]))
    assert j_max[-1] < 1e-9
    assert report.regime == "monotonic-decay"


def test_criterion_08_optimizer_matches_brute_force():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        rho = random_density_matrix(rng)
        j_opt, _ = maximize_classical_correlation(rho)
        j_brute = brute_force_jmax(rho.entries)
        worst = max(worst, abs(j_opt - j_brute))
    assert worst <= 1e-4


def test_optimizer_reaches_brute_force_near_the_sigma_z_pole():
    # Strong dephasing pulls a general state's optimal axis toward sigma_z;
    # the search must not stall there below an independent grid.
    rng = np.random.default_rng(5)
    for _ in range(12):
        rho = random_density_matrix(rng)
        for p in (0.95, 0.975, 0.99):
            evolved = apply_to_apparatus(phase_damping(p), rho)
            j_opt, _ = maximize_classical_correlation(evolved)
            j_brute = brute_force_jmax(evolved.entries, n_theta=128, n_phi=256)
            assert j_opt >= j_brute - 1e-9, p


def test_criterion_09_timescale_comparison():
    threshold = 1.0 - math.exp(-1.0)

    early = emergence_time(STATE_1)
    assert early.p_e == pytest.approx(0.4, abs=1e-12)
    assert early.p_e < threshold

    # Ratio (z+w)/|c-b| = 3 > e pushes the plateau past the 1/gamma mark.
    late = emergence_time(XStateParams(c=0.3, b=0.2, z=0.05, w=0.25))
    assert late.p_e == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert late.p_e > threshold


def test_criterion_10_determinism(tmp_path):
    sweeps = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        argv = ["sweep", "--state", "0.4,0.1,0.1,0.4", "--grid", "101",
                "--out", str(path)]
        assert main(argv) == 0
        sweeps.append(path.read_bytes())
    assert sweeps[0] == sweeps[1]

    verifies = []
    for name in ("v1.csv", "v2.csv"):
        path = tmp_path / name
        argv = ["verify", "--suite", "lemma1", "--trials", "40",
                "--out", str(path)]
        assert main(argv) == 0
        verifies.append(path.read_bytes())
    assert verifies[0] == verifies[1]
