import itertools
import math

import numpy as np
import pytest

from fires import pso
from fires.baseline import evaluate_baseline, fixed_surface_presets
from fires.channel import ChannelRealization, correlation_matrix, synthesize_channel
from fires.geometry import (
    clamp_to_subareas,
    pair_violation_counts,
    partition_surface,
    preset_points,
    snap_to_subarea_presets,
    subarea_corners,
)
from fires.harness import ExperimentConfig, _field_model, geometry_from_config, trial_links
from fires.pso import (
    PsoConfig,
    best_response,
    init_swarm,
    optimize,
    repair_spacing,
    update_velocity,
)
from fires.rate import amplitude_weights, lattice_rates
from helpers import (
    WL,
    assert_near_exact,
    brute_force_oracle,
    complex_rows,
    default_links,
    evaluate,
    fitness,
    placement_in_subareas,
    preset_grid,
)

P, S2 = 10.0, 1e-12


def close_pairs(positions, geom):
    """Pairs of the (M, 2) positions closer than d_min."""
    return int(pair_violation_counts(positions[None], geom.d_min)[0])


def assert_spaced(presets, geom):
    """The (M,) flat presets are each one of its own subarea's, and they are
    pairwise at least d_min apart."""
    points = preset_points(geom, presets)
    assert np.array_equal(presets, snap_to_subarea_presets(points, geom))
    assert close_pairs(points, geom) == 0


class OnesRng:
    """Stand-in generator whose uniform draws are all 1."""

    def random(self, size=None):
        return np.ones(size) if size is not None else 1.0


def tiny_instance(seed=0, d_min=None):
    geom = partition_surface(2.0, 2.0, 2, WL, n_h=3, n_v=3, grid=(2, 1), d_min=d_min)
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(seed), corr=corr)
    return geom, amplitude_weights(real)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("n_particles", 0, "at least one particle"),
        ("n_iterations", 0, "at least one particle and one iteration"),
        ("w", -0.1, "nonnegative"),
        ("c1", -0.5, "nonnegative"),
        ("c2", -0.5, "nonnegative"),
        ("tau", 0.0, "penalty coefficient"),
    ],
)
def test_bad_swarm_config_rejected(field, value, match):
    with pytest.raises(ValueError, match=match):
        PsoConfig(**{field: value})


class TestUpdates:
    def test_velocity_vanishes_without_terms(self):
        cfg = PsoConfig(w=0.0, c1=0.0, c2=0.0)
        v = update_velocity(1.0, 0.5, 1.0, 2.0, cfg, np.random.default_rng(0))
        assert v == 0.0

    def test_stationary_at_optimum(self):
        cfg = PsoConfig()
        v = update_velocity(0.0, 1.0, 1.0, 1.0, cfg, np.random.default_rng(0))
        assert v == 0.0

    def test_scalar_arithmetic(self):
        cfg = PsoConfig(w=0.4, c1=0.5, c2=0.5)
        v = update_velocity(1.0, 0.0, 1.0, 2.0, cfg, OnesRng())
        assert np.isclose(float(v), 1.9)

    def test_position_identity_with_zero_velocity(self):
        geom, _ = tiny_instance()
        pos = np.array([[0.5, 0.5], [1.5, 0.5]])
        assert np.allclose(clamp_to_subareas(pos + np.zeros_like(pos), geom), pos)

    def test_position_clamps_to_boundary(self):
        geom, _ = tiny_instance()
        pos = np.array([[0.9, 0.5], [1.5, 0.5]])
        vel = np.array([[0.5, 0.0], [0.0, 0.0]])  # would exit subarea 1 at x=1
        moved = clamp_to_subareas(pos + vel, geom)
        assert np.allclose(moved[0], [1.0, 0.5])

    def test_interior_move_is_plain_addition(self):
        geom, _ = tiny_instance()
        pos = np.array([[0.10, 0.5], [1.5, 0.5]])
        vel = np.array([[0.05, 0.0], [0.0, 0.0]])
        assert np.allclose(clamp_to_subareas(pos + vel, geom)[0, 0], 0.15)

    def test_velocity_draws_r1_then_r2(self):
        cfg = PsoConfig(w=0.4, c1=0.5, c2=0.7)
        v, pos, p_best, g_best = np.random.default_rng(1).random((4, 6, 3, 2))
        got = update_velocity(v, pos, p_best, g_best, cfg, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        r1 = rng.random(pos.shape)
        r2 = rng.random(pos.shape)
        expect = cfg.w * v + cfg.c1 * r1 * (p_best - pos) + cfg.c2 * r2 * (g_best - pos)
        assert np.array_equal(got, expect)


class TestInit:
    def test_particles_start_inside_subareas(self):
        geom, _ = tiny_instance()
        cfg = PsoConfig(n_particles=50)
        positions, velocities = init_swarm(geom, cfg, np.random.default_rng(1))
        assert positions.shape == velocities.shape == (50, 2, 2)
        lo, hi = subarea_corners(geom)
        for m in (1, 2):
            (x_lo, y_lo), (x_hi, y_hi) = lo[m - 1], hi[m - 1]
            xs, ys = positions[:, m - 1, 0], positions[:, m - 1, 1]
            assert np.all((xs >= x_lo) & (xs <= x_hi))
            assert np.all((ys >= y_lo) & (ys <= y_hi))

    def test_same_seed_same_swarm(self):
        geom, _ = tiny_instance()
        cfg = PsoConfig(n_particles=7)
        a = init_swarm(geom, cfg, np.random.default_rng(9))
        b = init_swarm(geom, cfg, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_velocity_scale(self):
        geom, _ = tiny_instance()
        _, velocities = init_swarm(geom, PsoConfig(n_particles=200), np.random.default_rng(2))
        assert np.all(np.abs(velocities[..., 0]) <= 0.1 * geom.subarea_w)
        assert np.all(np.abs(velocities[..., 1]) <= 0.1 * geom.subarea_h)


class TestFitness:
    def test_feasible_placement_fitness_is_effective_rate(self):
        geom, w = tiny_instance()
        pl = np.array([[0.5, 1.0], [1.5, 1.0]])
        cfg = PsoConfig()
        idx = snap_to_subarea_presets(pl, geom)
        rate = lattice_rates(w, idx, P, S2)
        assert fitness(pl, w, geom, P, S2, cfg) == rate
        assert_near_exact(rate, w[0][idx], w[1][idx], P, S2)

    def test_violation_dominates(self):
        geom, w = tiny_instance(d_min=0.5)
        pl = np.array([[0.9, 1.0], [1.1, 1.0]])  # 0.2 m apart
        cfg = PsoConfig(tau=1e6)
        eff = evaluate(w, pl, geom, P, S2).effective
        assert fitness(pl, w, geom, P, S2, cfg) <= eff - 1e6


class TestOracle:
    def test_single_subarea_argmax(self):
        geom = partition_surface(1.0, 1.0, 1, WL, n_h=3, n_v=3)
        corr = correlation_matrix(geom)
        real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(3), corr=corr)
        w = amplitude_weights(real)
        pl, rate = brute_force_oracle(w, geom, P, S2)
        rates = [
            evaluate(w, preset_grid(geom, 1)[k : k + 1], geom, P, S2).effective
            for k in range(9)
        ]
        assert np.isclose(rate, max(rates), rtol=1e-12)

    def test_matches_exhaustive_reference(self):
        geom, w = tiny_instance(seed=5)
        pl, rate = brute_force_oracle(w, geom, P, S2)
        # independent reference: plain double loop over all 81 combos
        best = -1.0
        for a, b in itertools.product(preset_grid(geom, 1), preset_grid(geom, 2)):
            if math.dist(a, b) < geom.d_min:
                continue
            cand = evaluate(w, np.stack([a, b]), geom, P, S2).effective
            best = max(best, cand)
        assert np.isclose(rate, best, rtol=1e-12)
        assert placement_in_subareas(pl, geom)

    def test_cap_enforced(self):
        geom, w = tiny_instance()
        with pytest.raises(ValueError, match="cap"):
            brute_force_oracle(w, geom, P, S2, cap=10)


class TestOptimize:
    def test_history_nondecreasing_and_deterministic(self):
        geom, w = tiny_instance(seed=11)
        cfg = PsoConfig(n_particles=20, n_iterations=30, seed=4)
        pl_a, rate_a, hist_a = optimize(w, geom, cfg, P, S2)
        pl_b, rate_b, hist_b = optimize(w, geom, cfg, P, S2)
        assert np.array_equal(pl_a, pl_b)
        assert np.array_equal(hist_a, hist_b)
        assert rate_a == rate_b
        assert len(hist_a) == cfg.n_iterations + 1
        assert np.all(np.diff(hist_a) >= 0)
        assert_spaced(pl_a, geom)

    def test_positions_stay_feasible(self):
        geom, w = tiny_instance(seed=12)
        cfg = PsoConfig(n_particles=15, n_iterations=25, seed=1)
        pl, _, _ = optimize(w, geom, cfg, P, S2)
        assert placement_in_subareas(preset_points(geom, pl), geom)
        assert_spaced(pl, geom)

    def test_oracle_dominates_pso(self):
        geom, w = tiny_instance(seed=13)
        _, oracle_rate = brute_force_oracle(w, geom, P, S2)
        for seed in range(5):
            pl, rate, _ = optimize(
                w, geom, PsoConfig(n_particles=20, n_iterations=40, seed=seed), P, S2
            )
            assert rate <= oracle_rate + 1e-12
            assert_spaced(pl, geom)

    def test_injection_lower_bounds_result(self):
        geom, w = tiny_instance(seed=14)
        anchor = np.array([[0.5, 1.0], [1.5, 1.0]])
        anchor_rate = evaluate(w, anchor, geom, P, S2).effective
        pl, rate, _ = optimize(
            w, geom, PsoConfig(n_particles=10, n_iterations=5, seed=2), P, S2,
            initial_presets=snap_to_subarea_presets(anchor[None], geom),
        )
        assert rate >= anchor_rate - 1e-9
        assert_spaced(pl, geom)

    def test_too_many_injections_rejected(self):
        geom, w = tiny_instance()
        anchors = np.repeat(fixed_surface_presets(geom)[None], 3, axis=0)
        with pytest.raises(ValueError, match="3 injected placements for 2 particles"):
            optimize(w, geom, PsoConfig(n_particles=2, n_iterations=1), P, S2,
                     initial_presets=anchors)

    @pytest.mark.parametrize(
        "seeds, match",
        [
            pytest.param(lambda fixed: fixed, r"\(k, 2\) array", id="one-dimensional"),
            pytest.param(lambda fixed: fixed[None, :1], r"\(k, 2\) array", id="too-few-elements"),
            pytest.param(lambda fixed: fixed[None][:0], r"\(k, 2\) array", id="no-rows"),
            pytest.param(lambda fixed: fixed[None] + 0.0, "integer preset indices", id="float"),
            # each element's preset, but in the other element's place
            pytest.param(
                lambda fixed: fixed[None, ::-1], r"\[0, 0\] = \d+ is not a preset of subarea 1", id="other-subarea"
            ),
            # numpy would wrap these onto presets of subarea 1
            pytest.param(lambda fixed: fixed[None] - [18, 0], r"\[0, 0\] = -\d+ is not", id="negative"),
            pytest.param(lambda fixed: fixed[None] + [18, 0], r"\[0, 0\] = \d+ is not", id="out-of-range"),
        ],
    )
    def test_bad_initial_presets_rejected(self, seeds, match):
        geom, w = tiny_instance()  # 6 x 3 lattice, 18 presets
        with pytest.raises(ValueError, match=match):
            optimize(w, geom, PsoConfig(n_particles=2, n_iterations=1), P, S2,
                     initial_presets=seeds(fixed_surface_presets(geom)))

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({}, id="default"),
            # geometries where the subarea centers snap elsewhere than the
            # fixed surface's presets: 9 of 25 and 5 of 9 elements
            pytest.param({"n_subareas": 25, "m_hat": 25}, id="2m-M25-10x10"),
            pytest.param(
                {"a_h": 3.0, "a_v": 3.0, "n_subareas": 9, "m_hat": 9, "n_h": 16, "n_v": 16}, id="3m-M9-16x16"
            ),
        ],
    )
    def test_injected_fixed_surface_scores_the_baseline(self, overrides):
        # one particle on the fixed surface's presets: the swarm's first
        # fitness is the baseline's rate, on every draw
        cfg = ExperimentConfig(**overrides)
        geom = geometry_from_config(cfg)
        seeds = fixed_surface_presets(geom)[None]
        for draw in range(10):
            rng = np.random.default_rng(draw)
            real = synthesize_channel(geom, *trial_links(cfg, rng), rng=rng, corr=_field_model(geom))
            w = amplitude_weights(real)
            cfg_1 = PsoConfig(n_particles=1, n_iterations=1, seed=draw)
            _, _, history = optimize(w, geom, cfg_1, P, S2, initial_presets=seeds)
            assert history[0] == evaluate_baseline(w, geom, P, S2), draw

    @pytest.mark.parametrize(
        "d_min, seed, positions, history",
        [
            (
                0.9, 3,
                [[0.0, 0.5454545454545454], [2.0, 0.36363636363636365],
                 [0.7272727272727273, 1.0909090909090908], [1.4545454545454546, 1.8181818181818183]],
                [47.54185772496969, 47.9716857679309, 48.047057667335075,
                 48.20933760846858, 48.716193485353074, 48.716193485353074],
            ),
            (  # every particle starts infeasible, and the best needs repair
                1.2, 1,
                [[0.0, 0.0], [1.2727272727272727, 0.7272727272727273],
                 [0.18181818181818182, 1.8181818181818183], [1.4545454545454546, 2.0]],
                [-1999951.8402464825, -1999951.8402464825, -999952.1769210094,
                 -999952.1769210094, -999952.1769210094, -999952.1769210094],
            ),
        ],
    )
    def test_pinned_run(self, d_min, seed, positions, history):
        # a small run pinned bit for bit, so that a change to the swarm's
        # arithmetic or random stream shows up here
        geom = partition_surface(2.0, 2.0, 4, WL, n_h=6, n_v=6, d_min=d_min)
        real = ChannelRealization(*complex_rows(np.random.default_rng(seed), (3, geom.n_presets)))
        w = amplitude_weights(real)
        pl, _, hist = optimize(w, geom, PsoConfig(n_particles=8, n_iterations=5, seed=seed), P, S2)
        assert preset_points(geom, pl).tolist() == positions
        assert list(hist) == history
        assert_spaced(pl, geom)

    def test_spacing_respected_when_feasible_exists(self):
        # d_min = 1.0 rules out most of the space but feasible pairs exist
        geom, w = tiny_instance(seed=15, d_min=1.0)
        cfg = PsoConfig(n_particles=30, n_iterations=40, seed=3, tau=1e6)
        pl, _, _ = optimize(w, geom, cfg, P, S2)
        assert_spaced(pl, geom)


class TestRepair:
    # the bad placements below sit on presets: on the 6 x 3 lattice of
    # tiny_instance, columns at x = 0, 0.4, ..., 2 and rows at y = 0, 1, 2

    def test_repair_restores_spacing(self):
        geom, w = tiny_instance(seed=16, d_min=0.9)
        bad = snap_to_subarea_presets(np.array([[0.8, 1.0], [1.2, 1.0]]), geom)  # 0.4 m apart
        fixed = repair_spacing(bad, w, geom, P, S2)
        assert close_pairs(preset_points(geom, fixed), geom) == 0
        assert fixed[0] == bad[0]  # first element never moves
        assert np.array_equal(snap_to_subarea_presets(preset_points(geom, fixed), geom), fixed)

    def test_repair_picks_best_feasible_preset(self):
        geom, w = tiny_instance(seed=17, d_min=0.9)
        bad = np.array([[0.8, 1.0], [1.2, 1.0]])
        fixed = repair_spacing(snap_to_subarea_presets(bad, geom), w, geom, P, S2)
        got = evaluate(w, preset_points(geom, fixed), geom, P, S2).effective
        best = -1.0
        for cand in preset_grid(geom, 2):
            if math.dist(bad[0], cand) < geom.d_min:
                continue
            trial = np.stack([bad[0], cand])
            best = max(best, evaluate(w, trial, geom, P, S2).effective)
        assert np.isclose(got, best, rtol=1e-12)

    def test_impossible_spacing_falls_back_to_max_min_distance(self):
        geom, w = tiny_instance(seed=18, d_min=10.0)
        bad = np.array([[0.8, 1.0], [1.2, 1.0]])
        fixed = repair_spacing(snap_to_subarea_presets(bad, geom), w, geom, P, S2)
        # the farthest preset of subarea 2 from the fixed element
        dists = [math.dist(bad[0], c) for c in preset_grid(geom, 2)]
        assert np.isclose(math.dist(bad[0], preset_points(geom, fixed[1])), max(dists))

    def test_crowded_corner_moves_elements_in_turn(self):
        geom, w = quad_instance(40)
        crowded = np.array([[0.95, 0.95], [1.05, 0.95], [0.95, 1.05], [1.05, 1.05]])
        presets = snap_to_subarea_presets(crowded, geom)
        fixed = repair_spacing(presets, w, geom, P, S2)
        # each later element moves away from the ones fixed before it
        expect = [
            [0.9090909090909092, 0.9090909090909092],
            [2.0, 0.5454545454545454],
            [0.5454545454545454, 1.4545454545454546],
            [1.6363636363636365, 1.0909090909090908],
        ]
        assert fixed[0] == presets[0]
        assert preset_points(geom, fixed).tolist() == expect
        assert close_pairs(preset_points(geom, fixed), geom) == 0


def quad_instance(seed, d_min=0.5, n=6):
    # four 1 m subareas; d_min binds near the shared corner
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=n, n_v=n, d_min=d_min)
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(seed), corr=corr)
    return geom, amplitude_weights(real)


def assert_no_single_move_improves(presets, w, geom, cfg):
    positions = preset_points(geom, presets)
    final = fitness(positions, w, geom, P, S2, cfg)
    for i in range(geom.n_subareas):
        for cand in preset_grid(geom, i + 1):
            moved = positions.copy()
            moved[i] = cand
            if close_pairs(moved, geom):
                continue
            assert fitness(moved, w, geom, P, S2, cfg) <= final


class TestBestResponse:
    CFG = PsoConfig(n_particles=8, n_iterations=4, seed=5)

    def start(self, geom, seed):
        # the presets of random points inside the subareas, spacing-feasible
        rng = np.random.default_rng(seed)
        lo, hi = subarea_corners(geom)
        while True:
            pos = np.array([rng.uniform(lo[m], hi[m]) for m in range(geom.n_subareas)])
            presets = snap_to_subarea_presets(pos, geom)
            if close_pairs(preset_points(geom, presets), geom) == 0:
                return presets

    def polish(self, presets, w, geom):
        return best_response(presets, w, geom, P, S2, self.CFG)

    def test_feasible_and_no_single_move_improves(self):
        for seed in range(3):
            geom, w = quad_instance(seed)
            polished = self.polish(self.start(geom, seed), w, geom)
            assert close_pairs(preset_points(geom, polished), geom) == 0
            assert_no_single_move_improves(polished, w, geom, self.CFG)

    def test_never_below_the_start(self):
        for seed in range(3):
            geom, w = quad_instance(seed + 10)
            start = self.start(geom, seed)
            polished = self.polish(start, w, geom)
            before = fitness(preset_points(geom, start), w, geom, P, S2, self.CFG)
            after = fitness(preset_points(geom, polished), w, geom, P, S2, self.CFG)
            assert after >= before

    def test_deterministic(self):
        geom, w = quad_instance(20)
        start = self.start(geom, 20)
        a = self.polish(start, w, geom)
        b = self.polish(start, w, geom)
        assert np.array_equal(a, b)

    def test_optimize_keeps_the_swarm_history(self, monkeypatch):
        geom, w = quad_instance(30)
        cfg = PsoConfig(n_particles=10, n_iterations=15, seed=7)
        presets, rate, history = optimize(w, geom, cfg, P, S2)
        monkeypatch.setattr(pso, "best_response", lambda presets, *args: presets)
        _, raw_rate, raw_history = optimize(w, geom, cfg, P, S2)
        assert len(history) == cfg.n_iterations + 1
        assert np.array_equal(history, raw_history)
        assert rate > raw_rate  # the swarm alone stalls here
        assert_spaced(presets, geom)
        assert_no_single_move_improves(presets, w, geom, cfg)
