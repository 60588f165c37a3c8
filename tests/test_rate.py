import dataclasses
import math

import numpy as np
import pytest

from fires import harness, rate
from fires.channel import ChannelRealization, correlation_matrix, synthesize_channel
from fires.geometry import partition_surface, snap_to_subarea_presets
from fires.baseline import evaluate_baseline
from fires.harness import ExperimentConfig, run_sweep
from fires.pso import PsoConfig, optimize
from fires.rate import amplitude_weights, lattice_rates, split_and_rates
from helpers import (
    WL,
    assert_near_exact,
    channel_rates,
    complex_rows,
    default_links,
    evaluate,
    optimal_phases,
    optimal_split,
    snr,
)


def random_channels(rng, m):
    mag = rng.uniform(0.2, 2.0, size=(3, m))
    ph = rng.uniform(0, 2 * np.pi, size=(3, m))
    h = mag * np.exp(1j * ph)
    return h[0], h[1], h[2]


class TestSnr:
    def test_unit_everything(self):
        assert np.isclose(snr([1.0], [1.0], [0.0], 1.0, 1.0, 1.0), 1.0)

    def test_destructive_cancellation(self):
        val = snr([1.0, 1.0], [1.0, -1.0], [0.0, 0.0], 1.0, 1.0, 1.0)
        assert np.isclose(val, 0.0, atol=1e-24)

    def test_coherent_sum_of_two_unit_terms(self):
        val = snr([1.0, 1.0], [1.0, 1.0], [0.0, 0.0], 1.0, 1.0, 1.0)
        assert np.isclose(val, 4.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            snr([1.0, 1.0], [1.0], [0.0], 1.0, 1.0, 1.0)


class TestOptimalPhases:
    def test_real_positive_already_aligned(self):
        ph = optimal_phases([1.0, 2.0], [3.0, 0.5])
        assert np.allclose(ph, 0.0)

    def test_phase_bookkeeping(self):
        h_f = np.array([np.exp(1j * np.pi / 3)])
        h_u = np.array([np.exp(1j * np.pi / 6)])
        ph = optimal_phases(h_f, h_u)
        assert np.isclose(ph[0], -np.pi / 6)
        term = np.conj(h_u[0]) * np.exp(1j * ph[0]) * h_f[0]
        assert term.real > 0 and np.isclose(term.imag, 0.0, atol=1e-15)

    def test_beats_random_phases(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h_f, h_u, _ = random_channels(rng, 6)
            best = snr(h_f, h_u, optimal_phases(h_f, h_u), 1.0, 1.0, 1.0)
            for _ in range(200):
                rand = rng.uniform(0, 2 * np.pi, size=6)
                assert best >= snr(h_f, h_u, rand, 1.0, 1.0, 1.0)

    def test_zero_entries_get_zero_phase(self):
        ph = optimal_phases([0.0, 1.0], [0.0, 1.0])
        assert ph[0] == 0.0


class TestAlignedRate:
    def test_snr_one_gives_one_bit(self):
        # S = 1 per user, power 2 split evenly: beta * P * S^2 / sigma2 = 1
        report = channel_rates([1.0], [1.0], [1.0], 2.0, 1.0)
        assert np.isclose(report.rate_r, 1.0) and np.isclose(report.rate_t, 1.0)
        assert np.isclose(report.effective, 1.0)

    def test_two_unit_elements(self):
        report = channel_rates([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 2.0, 1.0)
        assert np.isclose(report.effective, np.log2(5.0))
        assert np.isclose(report.effective, 2.321928094887362)

    def test_zero_split_zero_rate(self):
        # a user without gain gets no energy and rate 0; the other gets all
        report = channel_rates([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], 1.0, 1.0)
        assert report.rate_r == 0.0 and report.effective == 0.0
        assert np.isclose(report.rate_t, np.log2(5.0))

    def test_matches_snr_under_optimal_phases(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            h_f, h_r, h_t = random_channels(rng, 5)
            p, s2 = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
            ph_r, ph_t = optimal_phases(h_f, h_r), optimal_phases(h_f, h_t)
            beta = optimal_split(snr(h_f, h_r, ph_r, 1.0, p, s2), snr(h_f, h_t, ph_t, 1.0, p, s2))
            report = channel_rates(h_f, h_r, h_t, p, s2)
            assert np.isclose(report.snr_r, snr(h_f, h_r, ph_r, beta, p, s2), rtol=1e-10)
            assert np.isclose(report.snr_t, snr(h_f, h_t, ph_t, 1 - beta, p, s2), rtol=1e-10)

    def test_monotone_in_power_split_and_elements(self):
        rng = np.random.default_rng(33)
        h_f, h_r, h_t = random_channels(rng, 4)
        r1 = channel_rates(h_f, h_r, h_t, 1.0, 1.0).effective
        assert channel_rates(h_f, h_r, h_t, 2.0, 1.0).effective > r1
        bigger = channel_rates(*(np.append(h, 1.0) for h in (h_f, h_r, h_t)), 1.0, 1.0)
        assert bigger.effective > r1
        ph = optimal_phases(h_f, h_r)
        assert snr(h_f, h_r, ph, 0.6, 1.0, 1.0) > snr(h_f, h_r, ph, 0.5, 1.0, 1.0)


class TestOptimalSplit:
    def test_symmetry(self):
        assert optimal_split(2.0, 2.0) == 0.5

    def test_equalizing_point(self):
        beta = optimal_split(1.0, 3.0)
        assert np.isclose(beta, 0.75)
        assert np.isclose(beta * 1.0, (1 - beta) * 3.0)
        assert np.isclose(beta * 1.0, 0.75)

    def test_grid_search_never_beats_closed_form(self):
        rng = np.random.default_rng(34)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        for _ in range(100):
            g_r, g_t = rng.uniform(0.01, 10.0, size=2)
            beta = optimal_split(g_r, g_t)
            best = min(beta * g_r, (1 - beta) * g_t)
            over_grid = np.minimum(grid * g_r, (1 - grid) * g_t)
            assert best >= over_grid.max()

    def test_degenerate_cases(self):
        assert optimal_split(0.0, 0.0) == 0.5
        assert optimal_split(1.0, 0.0) == 1.0
        assert optimal_split(0.0, 1.0) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            g_r, g_t = rng.uniform(0.01, 5.0, size=2)
            c = rng.uniform(0.1, 100.0)
            assert np.isclose(optimal_split(c * g_r, c * g_t), optimal_split(g_r, g_t), rtol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            optimal_split(-1.0, 1.0)


class TestEvaluate:
    @pytest.fixture()
    def setup(self):
        geom = partition_surface(2.0, 2.0, 4, WL, n_h=3, n_v=3)
        corr = correlation_matrix(geom)
        real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(13), corr=corr)
        centers = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        return geom, real, centers

    def test_rates_equalized(self, setup):
        geom, real, placement = setup
        report = evaluate(amplitude_weights(real), placement, geom, power=10.0, noise_power=1e-12)
        assert abs(report.rate_r - report.rate_t) < 1e-9
        assert report.effective == min(report.rate_r, report.rate_t)

    def test_vanishing_power(self, setup):
        geom, real, placement = setup
        report = evaluate(amplitude_weights(real), placement, geom, power=1e-30, noise_power=1e-12)
        assert report.effective < 1e-6

    def test_beats_fixed_half_split(self, setup):
        geom, real, placement = setup
        idx = snap_to_subarea_presets(placement, geom)
        h_f, h_r, h_t = real.h_f[idx], real.h_r[idx], real.h_t[idx]
        p, s2 = 10.0, 1e-12
        report = evaluate(amplitude_weights(real), placement, geom, p, s2)
        fixed = min(
            np.log2(1.0 + snr(h_f, h_u, optimal_phases(h_f, h_u), 0.5, p, s2)) for h_u in (h_r, h_t)
        )
        assert report.effective >= fixed - 1e-12

    def test_split_config_carries_wrapped_phases(self, setup):
        geom, real, placement = setup
        idx = snap_to_subarea_presets(placement, geom)
        h_f, h_r, h_t = real.h_f[idx], real.h_r[idx], real.h_t[idx]
        p, s2 = 10.0, 1e-12
        report = evaluate(amplitude_weights(real), placement, geom, p, s2)
        ph_r, ph_t = optimal_phases(h_f, h_r), optimal_phases(h_f, h_t)
        beta_r = optimal_split(snr(h_f, h_r, ph_r, 1.0, p, s2), snr(h_f, h_t, ph_t, 1.0, p, s2))
        assert 0.0 <= beta_r <= 1.0
        # the optimal phases wrapped into (0, 2*pi], with the optimal split,
        # reproduce the report through the generic SNR path
        wrapped_r = 2 * np.pi - np.mod(-ph_r, 2 * np.pi)
        wrapped_t = 2 * np.pi - np.mod(-ph_t, 2 * np.pi)
        assert np.all((wrapped_r > 0) & (wrapped_r <= 2 * np.pi))
        got_r = snr(h_f, h_r, wrapped_r, beta_r, p, s2)
        got_t = snr(h_f, h_t, wrapped_t, 1.0 - beta_r, p, s2)
        assert np.isclose(got_r, report.snr_r, rtol=1e-10)
        assert np.isclose(got_t, report.snr_t, rtol=1e-10)

    def test_batch_shapes(self, setup):
        geom, real, _ = setup
        rng = np.random.default_rng(36)
        h = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        g = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        k = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        report = channel_rates(h, g, k, 1.0, 1.0)
        assert report.effective.shape == (7,)
        # each batch row equals the scalar path
        for i in range(7):
            row = channel_rates(h[i], g[i], k[i], 1.0, 1.0)
            assert np.isclose(report.effective[i], row.effective)


class TestLatticeRates:
    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_equals_split_and_rates_bit_for_bit(self, m):
        rng = np.random.default_rng(40 + m)
        h = rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60))
        h[1, :10] = 0.0  # presets 0-9: no reflect gain
        h[2, 10:20] = 0.0  # presets 10-19: no transmit gain
        h[1:, 20:25] = 0.0  # presets 20-24: neither
        real = ChannelRealization(h_f=h[0], h_r=h[1], h_t=h[2])
        idx = np.concatenate(
            [
                rng.integers(0, 60, size=(200, m)),
                rng.integers(0, 10, size=(5, m)),
                rng.integers(10, 20, size=(5, m)),
                rng.integers(20, 25, size=(5, m)),
            ]
        )
        w_r, w_t = amplitude_weights(real)
        for power, noise in ((1.0, 1.0), (10.0, 1e-12), (0.1, 1e-12)):
            got = lattice_rates((w_r, w_t), idx, power, noise)
            assert np.array_equal(got, split_and_rates(w_r[idx], w_t[idx], power, noise))
            assert_near_exact(got, w_r[idx], w_t[idx], power, noise)
        assert np.all(got[-15:] == 0.0)


@pytest.mark.parametrize("m", [1, 4, 9])
def test_split_and_rates_is_the_closed_form_max_min_rate(m):
    # the equalizing split leaves each user (P/N) Sr^2 St^2 / (Sr^2 + St^2),
    # with Sr and St the two amplitude sums; pytest makes any RuntimeWarning
    # (a 0/0 on the zero-gain rows, an overflow) an error. Rows 300 on are
    # Rayleigh products, where one user's gain may dwarf the other's. The
    # last power and noise are 40 dBm over -3000 dBm, which a config loads:
    # P/N = 1e304, where (P/N) Sr^2 St^2 would overflow.
    rng = np.random.default_rng(50 + m)
    h = np.concatenate(
        [rng.uniform(0.2, 2.0, size=(3, 300, m)), np.abs(complex_rows(rng, (3, 300, m)))], axis=1
    )
    a_r, a_t = h[0] * h[1], h[0] * h[2]
    a_r[:10] = 0.0  # no reflect gain
    a_t[10:20] = 0.0  # no transmit gain
    a_r[20:25] = a_t[20:25] = 0.0  # neither
    ulp = 16 * np.finfo(float).eps
    for power, noise in ((1.0, 1.0), (10.0, 1e-12), (0.1, 1e-12), (10.0, 1e-303)):
        got = split_and_rates(a_r, a_t, power, noise)
        assert_near_exact(got, a_r, a_t, power, noise)
        assert np.array_equal(split_and_rates(a_t, a_r, power, noise), got)
        rounding = ulp * np.maximum(got, 1.0)
        assert np.all(np.abs(split_and_rates(a_r, a_t, 37.0 * power, 37.0 * noise) - got) <= rounding)
        assert np.all(got[:25] == 0.0) and np.all(got[25:] > 0.0)
        # as lattice_rates of the elements in another order, row by row
        weights = (a_r.ravel(), a_t.ravel())
        order = np.arange(a_r.size).reshape(a_r.shape)
        assert np.array_equal(lattice_rates(weights, order, power, noise), got)
        permuted = lattice_rates(weights, rng.permuted(order, axis=-1), power, noise)
        assert np.all(np.abs(permuted - got) <= rounding)
        # a larger product of one element, on either side, never lowers the rate
        rows, raised = np.arange(len(got)), rng.integers(0, m, size=len(got))
        for side in (0, 1):
            bumped = [a_r.copy(), a_t.copy()]
            bumped[side][rows, raised] += rng.uniform(0.0, 2.0, size=len(got))
            assert np.all(split_and_rates(*bumped, power, noise) >= got - rounding)


@pytest.mark.parametrize("scorer", ["optimize", "evaluate_baseline"])
def test_every_scorer_rejects_weights_of_another_geometry(scorer):
    # more weights than presets index without error, so only the check sees them
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=3, n_v=3)
    coarse = partition_surface(2.0, 2.0, 4, WL, n_h=2, n_v=2)
    real = ChannelRealization(*complex_rows(np.random.default_rng(8), (3, geom.n_presets)))
    w = amplitude_weights(real)
    score = {
        "optimize": lambda: optimize(w, coarse, PsoConfig(n_particles=2, n_iterations=1), 1.0, 1.0),
        "evaluate_baseline": lambda: evaluate_baseline(w, coarse, 1.0, 1.0),
    }[scorer]
    with pytest.raises(ValueError, match="^weights cover 36 presets, geometry has 16$"):
        score()


# The benchmark's tracer (perfbench/tracer.py) spans `rate.split_and_rates`
# and counts the placements of each call as the leading shape of its first
# positional argument, so every score must pass through that name with the
# amplitude products positional.
@pytest.mark.parametrize("sweep", ["power", "area", "none"])
def test_every_placement_is_scored_through_split_and_rates(monkeypatch, sweep):
    cfg = ExperimentConfig(sweep=sweep, n_trials=2, n_particles=5, n_iterations=3)
    unwrapped = run_sweep(cfg)
    calls, swarms = [], []
    primitive, optimize = rate.split_and_rates, harness.optimize

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return primitive(*args, **kwargs)

    def counted(*args, **kwargs):
        start = len(calls)
        result = optimize(*args, **kwargs)
        swarms.append(calls[start:])
        return result

    monkeypatch.setattr(rate, "split_and_rates", recorded)
    monkeypatch.setattr(harness, "optimize", counted)
    records = run_sweep(cfg)
    assert [dataclasses.astuple(r) for r in records] == [
        dataclasses.astuple(r) for r in unwrapped
    ]
    assert calls and swarms
    for args, kwargs in calls:
        assert kwargs == {} and len(args) == 4
        a_r, a_t = args[:2]
        assert np.shape(a_r) == np.shape(a_t)
        assert np.shape(a_r)[-1] == cfg.n_subareas
    for swarm in swarms:
        scored = sum(math.prod(np.shape(args[0])[:-1]) for args, _ in swarm)
        assert scored >= cfg.n_particles * (cfg.n_iterations + 1)
