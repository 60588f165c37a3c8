import itertools
import math

import numpy as np
import pytest

from fires import pso
from fires.channel import ChannelRealization, correlation_matrix, synthesize_channel
from fires.geometry import (
    Placement,
    clamp_to_subareas,
    partition_surface,
    placement_in_subareas,
    preset_grid,
    spacing_violations,
    subarea_bounds,
)
from fires.pso import (
    PsoConfig,
    best_response,
    brute_force_oracle,
    fitness,
    init_swarm,
    optimize,
    repair_spacing,
    update_velocity,
)
from fires.rate import evaluate
from helpers import WL, complex_rows, default_links

P, S2 = 10.0, 1e-12


class OnesRng:
    """Stand-in generator whose uniform draws are all 1."""

    def random(self, size=None):
        return np.ones(size) if size is not None else 1.0


def tiny_instance(seed=0, d_min=None):
    geom = partition_surface(2.0, 2.0, 2, WL, n_h=3, n_v=3, grid=(2, 1), d_min=d_min)
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(seed), corr=corr)
    return geom, real


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
        state = init_swarm(geom, cfg, np.random.default_rng(1))
        assert state.positions.shape == (50, 2, 2)
        for m in (1, 2):
            x_lo, y_lo, x_hi, y_hi = subarea_bounds(geom, m)
            xs, ys = state.positions[:, m - 1, 0], state.positions[:, m - 1, 1]
            assert np.all((xs >= x_lo) & (xs <= x_hi))
            assert np.all((ys >= y_lo) & (ys <= y_hi))

    def test_same_seed_same_swarm(self):
        geom, _ = tiny_instance()
        cfg = PsoConfig(n_particles=7)
        a = init_swarm(geom, cfg, np.random.default_rng(9))
        b = init_swarm(geom, cfg, np.random.default_rng(9))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_velocity_scale(self):
        geom, _ = tiny_instance()
        state = init_swarm(geom, PsoConfig(n_particles=200), np.random.default_rng(2))
        assert np.all(np.abs(state.velocities[..., 0]) <= 0.1 * geom.subarea_w)
        assert np.all(np.abs(state.velocities[..., 1]) <= 0.1 * geom.subarea_h)


class TestFitness:
    def test_feasible_placement_fitness_is_effective_rate(self):
        geom, real = tiny_instance()
        pl = Placement(np.array([[0.5, 1.0], [1.5, 1.0]]))
        cfg = PsoConfig()
        assert fitness(pl, real, geom, P, S2, cfg) == pytest.approx(
            evaluate(real, pl, geom, P, S2).effective, abs=0
        )

    def test_violation_dominates(self):
        geom, real = tiny_instance(d_min=0.5)
        pl = Placement(np.array([[0.9, 1.0], [1.1, 1.0]]))  # 0.2 m apart
        cfg = PsoConfig(tau=1e6)
        eff = evaluate(real, pl, geom, P, S2).effective
        assert fitness(pl, real, geom, P, S2, cfg) <= eff - 1e6


class TestOracle:
    def test_single_subarea_argmax(self):
        geom = partition_surface(1.0, 1.0, 1, WL, n_h=3, n_v=3)
        corr = correlation_matrix(geom)
        real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(3), corr=corr)
        pl, rate = brute_force_oracle(real, geom, P, S2)
        rates = [
            evaluate(real, Placement(preset_grid(geom, 1)[k : k + 1]), geom, P, S2).effective
            for k in range(9)
        ]
        assert np.isclose(rate, max(rates), rtol=1e-12)

    def test_matches_exhaustive_reference(self):
        geom, real = tiny_instance(seed=5)
        pl, rate = brute_force_oracle(real, geom, P, S2)
        # independent reference: plain double loop over all 81 combos
        best = -1.0
        for a, b in itertools.product(preset_grid(geom, 1), preset_grid(geom, 2)):
            if math.dist(a, b) < geom.d_min:
                continue
            cand = evaluate(real, Placement(np.stack([a, b])), geom, P, S2).effective
            best = max(best, cand)
        assert np.isclose(rate, best, rtol=1e-12)
        assert placement_in_subareas(pl, geom)

    def test_cap_enforced(self):
        geom, real = tiny_instance()
        with pytest.raises(ValueError, match="cap"):
            brute_force_oracle(real, geom, P, S2, cap=10)


class TestOptimize:
    def test_history_nondecreasing_and_deterministic(self):
        geom, real = tiny_instance(seed=11)
        cfg = PsoConfig(n_particles=20, n_iterations=30, seed=4)
        pl_a, rep_a, hist_a = optimize(real, geom, cfg, P, S2)
        pl_b, rep_b, hist_b = optimize(real, geom, cfg, P, S2)
        assert np.array_equal(pl_a.positions, pl_b.positions)
        assert np.array_equal(hist_a, hist_b)
        assert rep_a.effective == rep_b.effective
        assert len(hist_a) == cfg.n_iterations + 1
        assert np.all(np.diff(hist_a) >= 0)

    def test_positions_stay_feasible(self):
        geom, real = tiny_instance(seed=12)
        cfg = PsoConfig(n_particles=15, n_iterations=25, seed=1)
        pl, _, _ = optimize(real, geom, cfg, P, S2)
        assert placement_in_subareas(pl, geom)

    def test_oracle_dominates_pso(self):
        geom, real = tiny_instance(seed=13)
        _, oracle_rate = brute_force_oracle(real, geom, P, S2)
        for seed in range(5):
            _, report, _ = optimize(
                real, geom, PsoConfig(n_particles=20, n_iterations=40, seed=seed), P, S2
            )
            assert report.effective <= oracle_rate + 1e-12

    def test_injection_lower_bounds_result(self):
        geom, real = tiny_instance(seed=14)
        anchor = Placement(np.array([[0.5, 1.0], [1.5, 1.0]]))
        anchor_rate = evaluate(real, anchor, geom, P, S2).effective
        _, report, _ = optimize(
            real, geom, PsoConfig(n_particles=10, n_iterations=5, seed=2), P, S2,
            initial_placements=[anchor],
        )
        assert report.effective >= anchor_rate - 1e-9

    def test_too_many_injections_rejected(self):
        geom, real = tiny_instance()
        anchors = [Placement(np.array([[0.5, 1.0], [1.5, 1.0]]))] * 3
        with pytest.raises(ValueError):
            optimize(real, geom, PsoConfig(n_particles=2, n_iterations=1), P, S2,
                     initial_placements=anchors)

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
                 [0.2161848697693169, 1.7899098269425158], [1.4545454545454546, 2.0]],
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
        pl, _, hist = optimize(real, geom, PsoConfig(n_particles=8, n_iterations=5, seed=seed), P, S2)
        assert pl.positions.tolist() == positions
        assert hist.tolist() == history

    def test_spacing_respected_when_feasible_exists(self):
        # d_min = 1.0 rules out most of the space but feasible pairs exist
        geom, real = tiny_instance(seed=15, d_min=1.0)
        cfg = PsoConfig(n_particles=30, n_iterations=40, seed=3, tau=1e6)
        pl, _, _ = optimize(real, geom, cfg, P, S2)
        assert spacing_violations(pl, geom.d_min) == 0


class TestRepair:
    def test_repair_restores_spacing(self):
        geom, real = tiny_instance(seed=16, d_min=0.9)
        bad = np.array([[0.8, 1.0], [1.2, 1.0]])  # 0.4 m apart
        fixed = repair_spacing(bad, real, geom, P, S2)
        assert spacing_violations(Placement(fixed), geom.d_min) == 0
        assert np.array_equal(fixed[0], bad[0])  # first element never moves
        assert placement_in_subareas(Placement(fixed), geom)

    def test_repair_picks_best_feasible_preset(self):
        geom, real = tiny_instance(seed=17, d_min=0.9)
        bad = np.array([[0.8, 1.0], [1.2, 1.0]])
        fixed = repair_spacing(bad, real, geom, P, S2)
        got = evaluate(real, Placement(fixed), geom, P, S2).effective
        best = -1.0
        for cand in preset_grid(geom, 2):
            if math.dist(bad[0], cand) < geom.d_min:
                continue
            trial = np.stack([bad[0], cand])
            best = max(best, evaluate(real, Placement(trial), geom, P, S2).effective)
        assert np.isclose(got, best, rtol=1e-12)

    def test_impossible_spacing_falls_back_to_max_min_distance(self):
        geom, real = tiny_instance(seed=18, d_min=10.0)
        bad = np.array([[0.8, 1.0], [1.2, 1.0]])
        fixed = repair_spacing(bad, real, geom, P, S2)
        # the farthest preset of subarea 2 from the fixed element
        dists = [math.dist(bad[0], c) for c in preset_grid(geom, 2)]
        assert np.isclose(math.dist(bad[0], fixed[1]), max(dists))


def quad_instance(seed, d_min=0.5, n=6):
    # four 1 m subareas; d_min binds near the shared corner
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=n, n_v=n, d_min=d_min)
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(seed), corr=corr)
    return geom, real


def assert_no_single_move_improves(positions, real, geom, cfg):
    final = fitness(Placement(positions), real, geom, P, S2, cfg)
    for i in range(geom.n_subareas):
        for cand in preset_grid(geom, i + 1):
            moved = positions.copy()
            moved[i] = cand
            if spacing_violations(Placement(moved), geom.d_min):
                continue
            assert fitness(Placement(moved), real, geom, P, S2, cfg) <= final


class TestBestResponse:
    CFG = PsoConfig(n_particles=8, n_iterations=4, seed=5)

    def start(self, geom, seed):
        # random feasible points strictly inside the subareas, off the lattice
        rng = np.random.default_rng(seed)
        while True:
            pos = np.array(
                [
                    rng.uniform(subarea_bounds(geom, m)[:2], subarea_bounds(geom, m)[2:])
                    for m in range(1, geom.n_subareas + 1)
                ]
            )
            if spacing_violations(Placement(pos), geom.d_min) == 0:
                return pos

    def test_feasible_and_no_single_move_improves(self):
        for seed in range(3):
            geom, real = quad_instance(seed)
            polished = best_response(self.start(geom, seed), real, geom, P, S2, self.CFG)
            assert spacing_violations(Placement(polished), geom.d_min) == 0
            assert_no_single_move_improves(polished, real, geom, self.CFG)

    def test_never_below_the_start(self):
        for seed in range(3):
            geom, real = quad_instance(seed + 10)
            start = self.start(geom, seed)
            polished = best_response(start, real, geom, P, S2, self.CFG)
            before = fitness(Placement(start), real, geom, P, S2, self.CFG)
            after = fitness(Placement(polished), real, geom, P, S2, self.CFG)
            assert after >= before

    def test_deterministic(self):
        geom, real = quad_instance(20)
        start = self.start(geom, 20)
        a = best_response(start, real, geom, P, S2, self.CFG)
        b = best_response(start, real, geom, P, S2, self.CFG)
        assert np.array_equal(a, b)

    def test_optimize_keeps_the_swarm_history(self, monkeypatch):
        geom, real = quad_instance(30)
        cfg = PsoConfig(n_particles=10, n_iterations=15, seed=7)
        placement, report, history = optimize(real, geom, cfg, P, S2)
        monkeypatch.setattr(pso, "best_response", lambda pos, *args: pos)
        _, raw_report, raw_history = optimize(real, geom, cfg, P, S2)
        assert len(history) == cfg.n_iterations + 1
        assert np.array_equal(history, raw_history)
        assert report.effective > raw_report.effective  # the swarm alone stalls here
        assert spacing_violations(placement, geom.d_min) == 0
        assert_no_single_move_improves(placement.positions, real, geom, cfg)
