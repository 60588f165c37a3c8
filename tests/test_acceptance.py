"""Acceptance suite.

Each test prints one verdict line (run with `pytest -s` to see them all).
The checks pin the agreed bounds. The rate-gap factor (C2) and the area
trend (C4) run at the reference preset density n_h = n_v = 100 (L = 40,000
presets, drawn from the plane-wave field model). C2 passes there. C4 is
expected to read FAIL with its measured values: under this channel model
even the best placement per draw gains only about +2.4% from 1 to 16 m^2 at
this density, far below the +10% bound. See the repository README for the
readings and how to rerun individual criteria.
"""

import numpy as np
import pytest

from fires.channel import correlation_matrix, synthesize_channel
from fires.cli import main as cli_main
from fires.geometry import partition_surface
from fires.harness import (
    ExperimentConfig,
    dbm_to_watts,
    run_sweep,
    run_trial,
    trial_links,
    wavelength,
)
from fires.pso import PsoConfig, optimize
from helpers import (
    brute_force_oracle,
    channel_rates,
    optimal_phases,
    optimal_split,
    sinc_matrix,
    snr,
)

WL = wavelength(3.5e9)
P40 = dbm_to_watts(40.0)
NOISE = dbm_to_watts(-90.0)

# fixed instance for the oracle-equivalence check (swarm behavior on tiny
# lattices varies realization to realization; the ledger records the spread)
ORACLE_INSTANCE_SEED = 4


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c1_oracle_equivalence():
    geom = partition_surface(2.0, 2.0, 2, WL, n_h=3, n_v=3, grid=(2, 1))
    corr = correlation_matrix(geom)
    rng = np.random.default_rng(np.random.SeedSequence(ORACLE_INSTANCE_SEED, spawn_key=(0,)))
    links = trial_links(ExperimentConfig(), rng)
    realization = synthesize_channel(geom, *links, rng=rng, corr=corr)
    _, oracle_rate = brute_force_oracle(realization, geom, P40, NOISE)
    hits = 0
    for seed in range(20):
        _, report, _ = optimize(realization, geom, PsoConfig(seed=seed), P40, NOISE)
        hits += report.effective >= 0.99 * oracle_rate
    ok = hits >= 19  # 95% of 20 seeds
    assert _verdict(
        "C1 oracle equivalence", ok, f"{hits}/20 seeds reached 99% of the lattice optimum"
    )


@pytest.mark.slow
def test_c2_rate_gap_over_fixed_baseline():
    cfg = ExperimentConfig(power_dbm=35.0, n_h=100, n_v=100, n_trials=100, seed=0)
    records = [run_trial(cfg, t) for t in range(cfg.n_trials)]
    fires = np.mean([r.fires_rate for r in records])
    base = np.mean([r.baseline_rate for r in records])
    ratio = fires / base
    ok = ratio >= 1.3
    assert _verdict(
        "C2 rate gap", ok,
        f"mean fluid {fires:.3f} vs fixed {base:.3f} bits/s/Hz, ratio {ratio:.3f} (bound 1.3)",
    )


def test_c3_power_monotonicity_and_element_scaling():
    means = {}
    for m in (4, 9):
        cfg = ExperimentConfig(
            n_subareas=m, m_hat=m, sweep="power",
            power_sweep_dbm=(20.0, 30.0, 40.0), n_trials=100, seed=0,
        )
        means[m] = [rec.fires_mean for rec in run_sweep(cfg)]
    increasing = all(means[m][0] < means[m][1] < means[m][2] for m in (4, 9))
    scaling = means[9][2] > means[4][2]
    ok = increasing and scaling
    assert _verdict(
        "C3 power monotonicity", ok,
        f"M=4 {np.round(means[4], 3).tolist()} / M=9 {np.round(means[9], 3).tolist()} "
        f"bits/s/Hz over 20/30/40 dBm; M=9 above M=4 at 40 dBm: {scaling}",
    )


@pytest.mark.slow
def test_c4_area_trend():
    cfg = ExperimentConfig(
        sweep="area", area_sweep_m2=(1.0, 4.0, 16.0), n_h=100, n_v=100, n_trials=100, seed=0
    )
    records = run_sweep(cfg)
    means = [rec.fires_mean for rec in records]
    nondecreasing = means[0] <= means[1] <= means[2]
    total_gain = means[2] / means[0] - 1.0
    ok = nondecreasing and total_gain >= 0.10
    assert _verdict(
        "C4 area trend", ok,
        f"means {np.round(means, 4).tolist()} bits/s/Hz over 1/4/16 m^2, "
        f"total increase {100 * total_gain:.2f}% (bound +10%)",
    )


def test_c5_convergence_profile():
    cfg = ExperimentConfig(n_trials=50, seed=0)
    histories = []
    for t in range(cfg.n_trials):
        rec = run_trial(cfg, t)
        assert np.all(np.diff(rec.history) >= 0), f"trial {t} best-so-far decreased"
        histories.append(rec.history)
    mean_hist = np.mean(histories, axis=0)
    total = mean_hist[-1] - mean_hist[0]
    half = mean_hist[len(mean_hist) // 2] - mean_hist[0]
    share = half / total if total > 0 else 1.0
    ok = share >= 0.80
    assert _verdict(
        "C5 convergence", ok,
        f"every history nondecreasing; {100 * share:.1f}% of the improvement "
        f"inside the first half of iterations (bound 80%)",
    )


@pytest.mark.slow
def test_c6_channel_statistics():
    geom = partition_surface(WL, WL, 1, WL, n_h=5, n_v=5)  # L = 25, quarter-wave pitch
    corr = correlation_matrix(geom)
    r = sinc_matrix(geom)
    assert np.array_equal(r, r.T)
    assert np.all(np.diag(r) == 1.0)

    rng = np.random.default_rng(60)
    draws = corr.draw(rng, size=100_000)
    sample = draws.conj().T @ draws / draws.shape[0]
    cov_err = np.linalg.norm(sample - r) / np.linalg.norm(r)

    cfg = ExperimentConfig()
    links = trial_links(cfg, rng)
    l_f = cfg.d_f**-cfg.alpha
    l_u = cfg.d_u**-cfg.alpha
    acc = np.zeros((3, geom.n_presets))
    n_draws = 100_000
    for _ in range(n_draws):
        real = synthesize_channel(geom, *links, rng=rng, corr=corr)
        acc[0] += np.abs(real.h_f) ** 2
        acc[1] += np.abs(real.h_r) ** 2
        acc[2] += np.abs(real.h_t) ** 2
    acc /= n_draws
    power_err = max(
        np.max(np.abs(acc[0] / l_f - 1.0)),
        np.max(np.abs(acc[1] / l_u - 1.0)),
        np.max(np.abs(acc[2] / l_u - 1.0)),
    )
    ok = cov_err < 0.05 and power_err < 0.03
    assert _verdict(
        "C6 channel statistics", ok,
        f"covariance error {100 * cov_err:.2f}% (bound 5%), "
        f"worst per-entry power error {100 * power_err:.2f}% (bound 3%)",
    )


def test_c7_phase_and_split_optimality():
    rng = np.random.default_rng(70)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    worst_gap = np.inf
    for _ in range(100):
        mag = rng.uniform(0.2, 2.0, size=(3, 6))
        ph = rng.uniform(0, 2 * np.pi, size=(3, 6))
        h_f, h_r, h_t = (mag * np.exp(1j * ph))
        aligned = snr(h_f, h_r, optimal_phases(h_f, h_r), 1.0, 1.0, 1.0)
        random_phases = rng.uniform(0, 2 * np.pi, size=(200, 6))
        contenders = snr(h_f, h_r, random_phases, 1.0, 1.0, 1.0)
        assert np.all(aligned >= contenders), "a random phase vector beat the aligned one"
        report = channel_rates(h_f, h_r, h_t, 1.0, 1.0)
        gap = abs(float(report.rate_r) - float(report.rate_t))
        assert gap < 1e-9, f"equalized rates differ by {gap}"
        g_r = float(np.sum(np.abs(h_f) * np.abs(h_r))) ** 2
        g_t = float(np.sum(np.abs(h_f) * np.abs(h_t))) ** 2
        beta = optimal_split(g_r, g_t)
        closed = min(beta * g_r, (1 - beta) * g_t)
        assert np.max(np.minimum(grid * g_r, (1 - grid) * g_t)) <= closed
        worst_gap = min(worst_gap, float(np.min(aligned - contenders)))
    assert _verdict(
        "C7 phase and split optimality", True,
        f"alignment dominated 100x200 random phase vectors "
        f"(narrowest margin {worst_gap:.3e}); splits equalize to <1e-9 and beat the 1e-3 grid",
    )


def test_c8_reproducible_sweep(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"n_h": 4, "n_v": 4, "n_particles": 15, "n_iterations": 20, "n_trials": 5}'
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(
            ["sweep-power", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _verdict(
        "C8 reproducibility", ok,
        f"two end-to-end sweep runs wrote byte-identical CSV ({len(outputs[0])} bytes)",
    )
