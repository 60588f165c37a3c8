import concurrent.futures
import json
import os
import pickle
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fires import baseline, harness, pso, rate, runtime
from fires.baseline import fixed_surface_presets
from fires.channel import (
    ChannelRealization,
    CorrelationModel,
    PlaneWaveField,
    correlation_matrix,
    plane_wave_field,
)
from fires.cli import main as cli_main
from fires.geometry import partition_surface, preset_points, snap_to_subarea_presets
from fires.harness import (
    ExperimentConfig,
    ResultRecord,
    _field_model,
    config_from_json,
    dbm_to_watts,
    emit_results,
    geometry_from_config,
    run_sweep,
    run_trial,
    sweep_trials,
    wavelength,
)
from helpers import WL, block_layout

FAST = dict(n_h=4, n_v=4, n_particles=10, n_iterations=10, n_trials=4)

# configs that cannot run, to be rejected at load: an integer no float holds,
# subarea or fixed-surface counts that cannot tile the aperture, a fixed
# surface that stacks elements on one preset, and preset lattices one preset
# wide or tall. A dict value sets several fields at once
# and names the field the error must name. The two lists below also hold a
# -3200 dBm noise_dbm, over which the SNR overflows.
UNRUNNABLE = [
    pytest.param("a_h", int(sys.float_info.max) * 10, id="a_h-int-beyond-float"),
    ("m_hat", 5),
    ("grid", [3, 3]),
    ("n_subareas", 5),
    pytest.param("m_hat", {"m_hat": 25, "n_h": 10, "n_v": 2}, id="m_hat-stacked-on-presets"),
    pytest.param("n_h", {"n_subareas": 1, "m_hat": 1, "n_h": 1}, id="n_h-lattice-1-wide"),
    pytest.param(
        "n_v", {"n_subareas": 4, "grid": [4, 1], "n_v": 1, "a_h": 4.0, "a_v": 1.0}, id="n_v-lattice-1-tall"
    ),
]


def overrides(field, value) -> dict:
    return value if isinstance(value, dict) else {field: value}


class TestUnits:
    def test_definition_anchor(self):
        assert dbm_to_watts(30.0) == 1.0

    def test_reference_values(self):
        assert np.isclose(dbm_to_watts(40.0), 10.0, rtol=1e-12)
        assert np.isclose(dbm_to_watts(-90.0), 1e-12, rtol=1e-12)

    def test_wavelength(self):
        wl = wavelength(3.5e9)
        assert np.isclose(wl, 0.08565498800000001, rtol=1e-12)
        assert np.isclose(wl / 2, 0.042827494, rtol=1e-9)
        assert wavelength(299_792_458.0) == 1.0
        assert np.isclose(wavelength(7e9), wavelength(3.5e9) / 2, rtol=1e-12)
        with pytest.raises(ValueError):
            wavelength(0.0)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = ExperimentConfig()
        assert (cfg.a_h * cfg.a_v, cfg.n_subareas) == (4.0, 4)
        assert (cfg.noise_dbm, cfg.k_f, cfg.k_u) == (-90.0, 5.0, 5.0)
        assert (cfg.n_iterations, cfg.n_particles) == (100, 50)
        assert (cfg.w, cfg.c1, cfg.c2) == (0.4, 0.5, 0.5)
        assert (cfg.d_f, cfg.d_u, cfg.alpha) == (100.0, 200.0, 2.5)
        assert cfg.min_spacing == "half-lambda"
        assert cfg.f_c == 3.5e9

    def test_geometry_resolution(self):
        cfg = ExperimentConfig(**FAST)
        geom = geometry_from_config(cfg)
        assert geom.n_subareas == 4
        assert np.isclose(geom.d_min, wavelength(cfg.f_c) / 2)
        scaled = geometry_from_config(cfg, area_m2=16.0)
        assert np.isclose(scaled.a_h * scaled.a_v, 16.0)
        explicit = geometry_from_config(ExperimentConfig(min_spacing=0.01, **FAST))
        assert explicit.d_min == 0.01

    def test_json_keys_mirror_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_subareas": 9, "power_dbm": 35.0, "seed": 3}))
        cfg = config_from_json(path)
        assert (cfg.n_subareas, cfg.power_dbm, cfg.seed) == (9, 35.0, 3)
        for doc in ({"not_a_field": 1}, {"objective": "min"}):
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="unknown config keys"):
                config_from_json(path)
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError, match="JSON object"):
            config_from_json(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sweep="frequency")
        with pytest.raises(ValueError):
            ExperimentConfig(n_trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(power_sweep_dbm=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_particles", 0),
            ("n_iterations", 0),
            ("n_subareas", 0),
            ("min_spacing", "quarter-lambda"),
            ("min_spacing", 0.0),
            ("area_sweep_m2", (1.0, -4.0)),
            ("power_sweep_dbm", 40),
            ("n_h", "10"),
            ("n_trials", True),
            ("grid", 5),
            ("n_h", 0),
            ("n_v", 0),
            ("m_hat", 0),
            ("a_h", -1.0),
            ("a_v", 0.0),
            ("f_c", 0.0),
            ("d_f", 0.0),
            ("d_u", -5.0),
            ("alpha", 0.0),
            ("tau", 0.0),
            ("k_f", -1.0),
            ("k_u", -1.0),
            ("w", -0.1),
            ("c1", -0.5),
            ("c2", -0.5),
            ("noise_dbm", -3200.0),
            ("inject_baseline", "no"),
            ("power_dbm", float("nan")),
            ("noise_dbm", float("-inf")),
            ("d_u", float("inf")),
            ("a_h", float("nan")),
            ("k_f", float("inf")),
            ("w", float("nan")),
            ("tau", float("inf")),
            ("min_spacing", float("inf")),
            ("power_sweep_dbm", (20.0, float("nan"))),
            ("area_sweep_m2", (1.0, float("inf"))),
            ("seed", -1),
            ("power_dbm", 4000.0),
            ("noise_dbm", -4000.0),
            ("power_sweep_dbm", (20.0, 4000.0)),
            ("power_sweep_dbm", (-4000.0, 40.0)),
            *UNRUNNABLE,
        ],
    )
    def test_bad_field_named_at_load(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**overrides(field, value))

    def test_fixed_surface_on_distinct_presets(self):
        # on the default 20 x 20 lattice 18 x 18 and 19 x 19 centers sit on
        # distinct presets (5 x 5 on 4 lattice rows do not, see UNRUNNABLE)
        assert ExperimentConfig(m_hat=324).m_hat == 324
        assert ExperimentConfig(m_hat=361).m_hat == 361
        # 7 x 7 centers fall half-way between the presets of an 8 x 8
        # lattice; the ties go to the smaller line at every area
        small = dict(m_hat=49, n_h=4, n_v=4, sweep="area", area_sweep_m2=(1.0, 4.0, 16.0, 2.5))
        cfg = ExperimentConfig(**small)
        lines = np.arange(7)
        for area in cfg.area_sweep_m2:
            presets = fixed_surface_presets(geometry_from_config(cfg, area), 49)
            assert np.array_equal(presets, (lines[:, None] * 8 + lines).ravel())

    def test_explicit_grid_that_tiles_loads(self):
        cfg = ExperimentConfig(n_subareas=2, grid=[2, 1], m_hat=2, **FAST)
        assert cfg.grid == (2, 1)
        assert run_trial(cfg, 0).fires_rate > 0

    def test_one_preset_per_subarea_loads(self):
        # a 2 x 2 lattice over the default 2 x 2 subarea grid
        cfg = ExperimentConfig(**{**FAST, "n_h": 1, "n_v": 1})
        assert run_trial(cfg, 0).fires_rate > 0

    def test_power_dbm_list_rejected(self):
        with pytest.raises(ValueError, match="power_dbm.*power_sweep_dbm"):
            ExperimentConfig(sweep="power", power_dbm=[25.0, 35.0], **FAST)
        with pytest.raises(ValueError, match="power_dbm"):
            ExperimentConfig(power_dbm=(25.0,), **FAST)


class TestTrials:
    def test_trial_is_deterministic(self):
        cfg = ExperimentConfig(**FAST)
        a = run_trial(cfg, 5)
        b = run_trial(cfg, 5)
        assert a.fires_rate == b.fires_rate
        assert a.baseline_rate == b.baseline_rate
        assert a.history == b.history

    def test_trials_use_independent_streams(self):
        cfg = ExperimentConfig(**FAST)
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 1)
        assert a.fires_rate != b.fires_rate

    def test_rates_positive_at_defaults(self):
        cfg = ExperimentConfig(**FAST)
        rec = run_trial(cfg, 0)
        assert rec.fires_rate > 0 and rec.baseline_rate > 0

    def test_injection_dominates_baseline(self):
        cfg = ExperimentConfig(inject_baseline=True, **FAST)
        for trial in range(3):
            rec = run_trial(cfg, trial)
            assert rec.fires_rate >= rec.baseline_rate - 1e-9

    @pytest.mark.parametrize(
        "overrides, roots, swap",
        [
            pytest.param({}, 5, True, id="20x20"),
            pytest.param({"a_h": 2.0, "a_v": 1.0, "n_subareas": 2, "m_hat": 2}, 4, False, id="20x10"),
            pytest.param({"n_h": 10, "n_v": 8}, 4, False, id="20x16"),
        ],
    )
    def test_only_square_lattices_split_by_the_axis_swap(self, overrides, roots, swap):
        # a lattice the harness builds need not be square: those that are
        # not keep the four mirror blocks and no swap pairs
        model = _field_model(geometry_from_config(ExperimentConfig(**overrides)))
        assert len(model.roots) == roots
        assert (block_layout(model)[3].size > 0) == swap

    def test_dense_field_model_only_where_it_fits(self):
        coarse = ExperimentConfig(**FAST)
        assert isinstance(_field_model(geometry_from_config(coarse)), CorrelationModel)
        fine = ExperimentConfig(**{**FAST, "n_h": 50, "n_v": 50})  # L = 10,000
        assert isinstance(_field_model(geometry_from_config(fine)), PlaneWaveField)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the dense model would warn here
            rec = run_trial(fine, 0)
        assert rec.fires_rate > 0 and rec.baseline_rate > 0

    def test_final_presets_keep_the_minimum_spacing(self, monkeypatch):
        # the swarm's best of this trial snaps two elements onto adjacent
        # presets 0.0345 m apart (d_min is 0.0428 m); the repair must see it
        results = []
        plain_optimize = harness.optimize

        def keeping(*args, **kwargs):
            results.append(plain_optimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "optimize", keeping)
        cfg = ExperimentConfig(n_subareas=9, m_hat=9, sweep="area")
        run_trial(cfg, 30, 1.0)
        geom = geometry_from_config(cfg, 1.0)
        presets = results[0][0]  # where the rates are read
        points = preset_points(geom, presets)
        gaps = np.linalg.norm(points[:, None] - points, axis=-1)
        assert np.min(gaps[np.triu_indices(9, 1)]) >= geom.d_min
        # each element on a preset of its own subarea
        assert np.array_equal(snap_to_subarea_presets(points, geom), presets)

    def test_ulp_perturbed_channels_keep_placements(self, monkeypatch):
        # placements must not hinge on rounding: every channel entry times
        # (1 + k * 2.2e-16), k drawn from -4..4, moves no placement and moves
        # the rates by at most 1e-9
        cfg = ExperimentConfig(n_trials=20)
        presets = []
        plain_optimize, plain_synthesize = harness.optimize, harness.synthesize_channel
        rng = np.random.default_rng(5)

        def keeping(*args, **kwargs):
            result = plain_optimize(*args, **kwargs)
            presets.append(result[0])
            return result

        def jitter(h):
            return h * (1 + rng.integers(-4, 5, size=h.shape) * 2.2e-16)

        def perturbed(*args, **kwargs):
            real = plain_synthesize(*args, **kwargs)
            return ChannelRealization(jitter(real.h_f), jitter(real.h_r), jitter(real.h_t))

        monkeypatch.setattr(harness, "optimize", keeping)
        plain = [run_trial(cfg, t) for t in range(cfg.n_trials)]
        monkeypatch.setattr(harness, "synthesize_channel", perturbed)
        moved = [run_trial(cfg, t) for t in range(cfg.n_trials)]
        half = cfg.n_trials
        assert [p.tolist() for p in presets[:half]] == [p.tolist() for p in presets[half:]]
        for a, b in zip(plain, moved):
            assert b.fires_rate == pytest.approx(a.fires_rate, rel=1e-9, abs=0)
            assert b.baseline_rate == pytest.approx(a.baseline_rate, rel=1e-9, abs=0)

    def test_trials_share_one_geometry_per_area(self):
        cfg = ExperimentConfig(sweep="area", **FAST)
        assert geometry_from_config(cfg, 1.0) is geometry_from_config(replace(cfg, seed=5), 1.0)
        assert geometry_from_config(cfg, 1.0) is not geometry_from_config(cfg, 4.0)

    def test_history_length_and_monotonicity(self):
        cfg = ExperimentConfig(**FAST)
        rec = run_trial(cfg, 2)
        assert len(rec.history) == cfg.n_iterations + 1
        assert np.all(np.diff(rec.history) >= 0)


class TestPinnedRecords:
    """Literals from one build (Python 3.11, numpy 2.4, OpenBLAS): on another
    BLAS or LAPACK build, drift in the field models' draws fails here instead
    of going unseen. The trial records are pinned by test_record_corpus.py."""

    def test_plane_wave_draw(self):
        geom = partition_surface(0.5, 0.5, 4, 0.0856, n_h=6, n_v=6)
        h = plane_wave_field(geom).draw(np.random.default_rng(7), size=3)
        assert float(np.sum(np.abs(h) ** 2)) == pytest.approx(432.809754258341, rel=1e-9, abs=0)
        assert complex(h[0, 0]) == pytest.approx(
            -1.1119089858002607 + 0.37472866010947925j, rel=1e-9, abs=0
        )

    def test_dense_model_draw(self):
        # the default geometry, 10 x 10 presets per subarea (L = 400)
        geom = geometry_from_config(ExperimentConfig())
        h = correlation_matrix(geom).draw(np.random.default_rng(7), size=3)
        assert float(np.sum(np.abs(h) ** 2)) == pytest.approx(1181.6745286407104, rel=1e-9, abs=0)
        assert complex(h[0, 0]) == pytest.approx(
            -0.04478223407043865 + 0.1585571997306168j, rel=1e-9, abs=0
        )

    # a 10 x 10 lattice of unequal pitches, four roots and no swap pairs,
    # and an odd-sided 7 x 7 one that splits through the axis swap
    OTHER_DENSE_DRAWS = [
        (
            partition_surface(1.5, 1.0, 4, 0.0856, n_h=5, n_v=5, grid=(2, 2)),
            263.61670201741197,
            0.08236139613417444 - 0.19083617114310836j,
        ),
        (
            partition_surface(1.0, 1.0, 1, 0.0856, n_h=7, n_v=7),
            131.2893300618848,
            0.03439119757547581 + 1.3708824702296958j,
        ),
    ]

    @pytest.mark.parametrize("geom, power, first", OTHER_DENSE_DRAWS, ids=["10x10-1.5x1", "7x7"])
    def test_dense_model_draw_on_other_lattices(self, geom, power, first):
        h = correlation_matrix(geom).draw(np.random.default_rng(7), size=3)
        assert float(np.sum(np.abs(h) ** 2)) == pytest.approx(power, rel=1e-9, abs=0)
        assert complex(h[0, 0]) == pytest.approx(first, rel=1e-9, abs=0)


class TestSweeps:
    def test_power_sweep_shares_trial_seeds(self):
        cfg = ExperimentConfig(sweep="power", power_sweep_dbm=(20.0, 30.0, 40.0), **FAST)
        records = run_sweep(cfg)
        assert [r.sweep_value for r in records] == [20.0, 30.0, 40.0]
        fires = [r.fires_mean for r in records]
        assert fires[0] < fires[1] < fires[2]

    def test_area_sweep_runs(self):
        cfg = ExperimentConfig(sweep="area", area_sweep_m2=(1.0, 4.0), **FAST)
        records = run_sweep(cfg)
        assert [r.sweep_value for r in records] == [1.0, 4.0]
        assert all(r.n_trials == cfg.n_trials for r in records)

    def test_one_field_model_per_geometry(self, monkeypatch):
        builds = []
        plain_build = harness.correlation_matrix

        def counting(geom):
            builds.append(geom)
            return plain_build(geom)

        monkeypatch.setattr(harness, "correlation_matrix", counting)
        harness._field_model.cache_clear()
        areas = tuple(float(a) for a in range(1, 10))
        cfg = ExperimentConfig(sweep="area", area_sweep_m2=areas, **{**FAST, "n_trials": 2})
        run_sweep(cfg)
        # every area is its own geometry, and each is built once for all trials
        assert len(builds) == len(set(builds)) == len(areas)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_power_records_equal_separate_runs(self, seed):
        cfg = ExperimentConfig(sweep="power", seed=seed, **FAST)
        swept = {(rec.sweep_value, rec.trial_index): rec for row in sweep_trials(cfg) for rec in row}
        assert len(swept) == len(cfg.power_sweep_dbm) * cfg.n_trials
        alone = {
            (power, t): run_trial(replace(cfg, sweep="none", power_dbm=power), t) for power, t in swept
        }
        top = max(cfg.power_sweep_dbm)
        for (power, t), rec in swept.items():
            assert rec.fires_rate == alone[power, t].fires_rate
            assert rec.baseline_rate == alone[power, t].baseline_rate
            # the swarm's own history, at the power it ran at
            assert rec.history == alone[top, t].history

    def test_power_records_share_the_swarm_history(self, monkeypatch):
        # every power's record keeps the tuple optimize returned, which holds
        # one float object per run of equal values: the records of a sweep
        # cost one history per trial, not one per power and iteration
        returned = []
        plain_optimize = harness.optimize

        def keeping(*args, **kwargs):
            returned.append(plain_optimize(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(harness, "optimize", keeping)
        (records,) = sweep_trials(ExperimentConfig(sweep="power", **{**FAST, "n_trials": 1}))
        ((_, _, history),) = returned
        assert type(history) is tuple
        assert len({id(v) for v in history}) == len(set(history)) < len(history)
        assert all(rec.history is history for rec in records)
        # a pooled sweep returns records pickled, which keeps one tuple for
        # all the powers of a trial; pickle writes every float on its own
        pooled = pickle.loads(pickle.dumps(records))
        assert all(rec.history is pooled[0].history for rec in pooled)
        assert pooled[0].history == history

    @pytest.mark.parametrize("axis", ["power", "area", "none"])
    def test_sweep_trials_rows_are_trials(self, axis):
        cfg = ExperimentConfig(sweep=axis, power_sweep_dbm=(20.0, 40.0), area_sweep_m2=(1.0, 4.0), **FAST)
        rows = sweep_trials(cfg)
        values = {"power": [20.0, 40.0], "area": [1.0, 4.0], "none": [cfg.power_dbm]}[axis]
        assert [[(rec.trial_index, rec.sweep_value) for rec in row] for row in rows] == [
            [(t, v) for v in values] for t in range(cfg.n_trials)
        ]
        # a trial's records share its swarm's tuples, also as a pool returns them
        for row in (*rows, *pickle.loads(pickle.dumps(rows))):
            assert all(type(p) is int for p in row[0].presets)
            assert len(row[0].presets) == cfg.n_subareas
            if axis != "area":  # every area is its own geometry and swarm
                assert all(rec.presets is row[0].presets and rec.history is row[0].history for rec in row)
        for threads in (1, 2):
            means = [(r.fires_mean, r.baseline_mean) for r in run_sweep(cfg, threads=threads)]
            assert means == [
                (np.mean([row[j].fires_rate for row in rows]), np.mean([row[j].baseline_rate for row in rows]))
                for j in range(len(values))
            ]

    @pytest.mark.parametrize("axis", harness.SWEEP_AXES)
    def test_one_swarm_per_trial_on_the_power_axis(self, axis, monkeypatch):
        # per optimize call: whether a run_trial call was open when it started
        calls, open_trials = [], []
        plain_optimize, plain_run_trial = harness.optimize, harness.run_trial

        def counting(*args, **kwargs):
            calls.append(bool(open_trials))
            return plain_optimize(*args, **kwargs)

        def tracking(*args, **kwargs):
            open_trials.append(1)
            try:
                return plain_run_trial(*args, **kwargs)
            finally:
                open_trials.pop()

        monkeypatch.setattr(harness, "optimize", counting)
        monkeypatch.setattr(harness, "run_trial", tracking)
        cfg = ExperimentConfig(sweep=axis, area_sweep_m2=(1.0, 4.0), **FAST)
        run_sweep(cfg)
        # every area is its own geometry, so only the powers share a swarm
        per_trial = len(cfg.area_sweep_m2) if axis == "area" else 1
        assert len(calls) == per_trial * cfg.n_trials
        # the power axis's sweep worker runs the swarm, and run_trial only scores it
        assert calls == [axis != "power"] * len(calls)
        calls.clear()
        run_trial(cfg, 0)
        run_trial(cfg, 0)
        assert len(calls) == 2  # no memo outside run_sweep

    @pytest.mark.parametrize("axis", harness.SWEEP_AXES)
    def test_swarm_report_reused_at_the_swarm_power(self, axis, monkeypatch):
        # the swarm's presets serve every power: optimize snaps its swarm
        # once per iteration and its best once, and nothing snaps after it
        # (no other module of the program holds the name)
        snaps = []
        plain_snap = pso.snap_to_subarea_presets

        def counting(*args, **kwargs):
            snaps.append(1)
            return plain_snap(*args, **kwargs)

        monkeypatch.setattr(pso, "snap_to_subarea_presets", counting)
        cfg = ExperimentConfig(sweep=axis, area_sweep_m2=(1.0, 4.0), **FAST)
        run_sweep(cfg)
        swarms = len(cfg.area_sweep_m2) if axis == "area" else 1
        assert len(snaps) == swarms * cfg.n_trials * (cfg.n_iterations + 2)

    @pytest.mark.parametrize(
        "axis, extra, channels",
        [
            ("power", {}, 1),  # five powers share one channel
            ("area", {"n_subareas": 9, "m_hat": 9}, 3),  # one channel per area
            ("none", {}, 1),
        ],
    )
    def test_one_weight_conversion_per_channel(self, axis, extra, channels, monkeypatch):
        # every scorer reads the amplitude weights the trial converted its
        # channel to; the name is counted in every module that holds it
        calls = []
        plain_weights = rate.amplitude_weights

        def counting(*args, **kwargs):
            calls.append(1)
            return plain_weights(*args, **kwargs)

        for module in (harness, pso, rate, baseline):
            if hasattr(module, "amplitude_weights"):
                monkeypatch.setattr(module, "amplitude_weights", counting)
        cfg = ExperimentConfig(**{**FAST, "sweep": axis, **extra})
        run_sweep(cfg)
        assert len(calls) == channels * cfg.n_trials

    def test_iterations_sweep_is_mean_history(self):
        cfg = ExperimentConfig(sweep="iterations", **FAST)
        records = run_sweep(cfg)
        assert len(records) == cfg.n_iterations + 1
        means = [r.fires_mean for r in records]
        assert np.all(np.diff(means) >= 0)
        trials = [run_trial(cfg, t) for t in range(cfg.n_trials)]
        expect = np.mean([t.history for t in trials], axis=0)
        assert np.allclose(means, expect)

    def test_sweep_values_share_channel_draws(self):
        # same trial index => same channel, so baseline SNRs scale exactly with power
        rec20 = run_trial(ExperimentConfig(power_dbm=20.0, **FAST), 3)
        rec40 = run_trial(ExperimentConfig(power_dbm=40.0, **FAST), 3)
        snr20 = 2.0**rec20.baseline_rate - 1.0
        snr40 = 2.0**rec40.baseline_rate - 1.0
        assert np.isclose(snr40 / snr20, 100.0, rtol=1e-9)

    @pytest.mark.parametrize("axis", ["power", "area", "iterations"])
    def test_threaded_matches_serial(self, axis):
        cfg = ExperimentConfig(sweep=axis, power_sweep_dbm=(20.0, 40.0), area_sweep_m2=(1.0, 4.0), **FAST)
        serial = run_sweep(cfg, threads=1)
        threaded = run_sweep(cfg, threads=2)
        assert [asdict(r) for r in serial] == [asdict(r) for r in threaded]

    def test_area_records_equal_separate_runs(self):
        cfg = ExperimentConfig(sweep="area", area_sweep_m2=(1.0, 4.0, 16.0), **FAST)
        records = run_sweep(cfg)
        assert [r.sweep_value for r in records] == list(cfg.area_sweep_m2)
        for area, rec in zip(cfg.area_sweep_m2, records):
            alone = [run_trial(cfg, t, area) for t in range(cfg.n_trials)]
            assert rec.fires_mean == np.mean([a.fires_rate for a in alone])
            assert rec.baseline_mean == np.mean([a.baseline_rate for a in alone])

    @pytest.mark.parametrize("axis", harness.SWEEP_AXES)
    def test_run_trial_called_once_per_value_and_trial(self, axis, monkeypatch):
        # the benchmark counts trials through harness.run_trial
        cfg = ExperimentConfig(sweep=axis, power_sweep_dbm=(20.0, 40.0), area_sweep_m2=(1.0, 4.0), **FAST)
        calls = []
        plain_run_trial = harness.run_trial

        def recording(c, trial_index, area_m2=None):
            calls.append((c.power_dbm, area_m2, trial_index))
            return plain_run_trial(c, trial_index, area_m2)

        monkeypatch.setattr(harness, "run_trial", recording)
        run_sweep(cfg)
        trials = range(cfg.n_trials)
        if axis == "power":
            expected = [(p, None, t) for p in cfg.power_sweep_dbm for t in trials]
        elif axis == "area":
            expected = [(cfg.power_dbm, a, t) for a in cfg.area_sweep_m2 for t in trials]
        else:
            expected = [(cfg.power_dbm, None, t) for t in trials]
        assert Counter(calls) == Counter(expected)

    @pytest.mark.parametrize("threads, n_trials, started", [(4096, 1, []), (4096, 3, [3]), (2, 4, [2])])
    def test_pool_never_outnumbers_the_trials(self, threads, n_trials, started, monkeypatch):
        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(**{**FAST, "n_trials": n_trials})
        threaded = run_sweep(cfg, threads=threads)
        assert pools == started
        assert [asdict(r) for r in threaded] == [asdict(r) for r in run_sweep(cfg)]


# a 25 x 25 lattice of equal pitches, rooted through the axis swap, and one
# of unequal pitches, rooted through the four mirror blocks
CACHED_LATTICES = [
    pytest.param(partition_surface(2.0, 2.0, 1, WL, n_h=25, n_v=25), 5, id="25x25-swap"),
    pytest.param(partition_surface(2.0, 1.5, 1, WL, n_h=25, n_v=25, grid=(1, 1)), 4, id="25x25-unequal-pitch"),
]


class TestModelCache:
    """The dense field model kept on disk under $XDG_CACHE_HOME/fires, which
    the autouse fixture points at each test's own tmp_path."""

    @staticmethod
    def assert_same_model(got, want):
        assert len(got.roots) == len(want.roots)
        for a, b in zip(got.roots, want.roots):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.shape == want.shape
        # one shared layout, read off the shape and the root count
        assert block_layout(got) is block_layout(want)

    @staticmethod
    def cached_files(tmp_path):
        return sorted((tmp_path / "fires").iterdir())

    @staticmethod
    def build_counted(monkeypatch):
        builds = []
        plain_build = harness.correlation_matrix

        def counting(geom):
            builds.append(geom)
            return plain_build(geom)

        monkeypatch.setattr(harness, "correlation_matrix", counting)
        return builds

    @pytest.mark.parametrize("geom, roots", CACHED_LATTICES)
    def test_warm_cache_loads_the_built_model_bit_for_bit(self, geom, roots, tmp_path, monkeypatch):
        _field_model.cache_clear()
        built = _field_model(geom)
        assert len(built.roots) == roots and len(self.cached_files(tmp_path)) == 1
        _field_model.cache_clear()
        builds = self.build_counted(monkeypatch)
        loaded = _field_model(geom)
        _field_model.cache_clear()
        assert builds == []
        self.assert_same_model(loaded, correlation_matrix(geom))

    @pytest.mark.parametrize("damage", ["truncated", "flipped-root-byte", "another-lattice"])
    def test_damaged_file_is_rebuilt_and_replaced(self, damage, tmp_path, monkeypatch):
        geom = partition_surface(2.0, 2.0, 1, WL, n_h=25, n_v=25)
        _field_model.cache_clear()
        built = _field_model(geom)
        [path] = self.cached_files(tmp_path)
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            raw = raw[: len(raw) // 2]
        elif damage == "flipped-root-byte":
            at = raw.index(built.roots[-1].tobytes()) + built.roots[-1].nbytes // 2
            raw[at] ^= 0x10
        else:  # a whole, readable model of a 9 x 9 lattice
            with path.open("wb") as fh:
                correlation_matrix(partition_surface(2.0, 2.0, 1, WL, n_h=9, n_v=9)).save(fh)
            raw = path.read_bytes()
        path.write_bytes(raw)
        _field_model.cache_clear()
        builds = self.build_counted(monkeypatch)
        rebuilt = _field_model(geom)
        _field_model.cache_clear()
        assert builds == [geom]
        self.assert_same_model(rebuilt, built)
        assert self.cached_files(tmp_path) == [path]
        self.assert_same_model(CorrelationModel.load(path, built.shape), built)

    def test_unwritable_cache_still_returns_the_model(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-folder"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        geom = partition_surface(2.0, 2.0, 1, WL, n_h=9, n_v=9)
        _field_model.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = _field_model(geom)
        _field_model.cache_clear()
        self.assert_same_model(model, correlation_matrix(geom))
        assert blocker.read_text() == ""

    def test_a_source_version_evicts_its_lattices_files_of_other_versions(self, tmp_path, monkeypatch):
        other = partition_surface(2.0, 2.0, 1, WL, n_h=8, n_v=8)
        geom = partition_surface(2.0, 2.0, 1, WL, n_h=9, n_v=9)
        _field_model.cache_clear()
        _field_model(other)
        [untouched] = self.cached_files(tmp_path)
        paths = []
        for source in (b"first", b"second"):
            monkeypatch.setattr(runtime, "_source_digest", lambda source=source: source)
            _field_model.cache_clear()
            _field_model(geom)
            paths.append(runtime.model_file(geom))
        _field_model.cache_clear()
        assert paths[0] != paths[1] and paths[0].name.split("-")[0] == paths[1].name.split("-")[0]
        assert self.cached_files(tmp_path) == sorted([untouched, paths[1]])

    @pytest.mark.parametrize("edited, shared", [("harness.py", True), ("channel.py", False)])
    def test_only_an_edit_of_channel_py_rekeys_the_cached_file(self, edited, shared, tmp_path):
        # two checkouts that share one cache folder, the second with one more
        # line in a fires module: each builds a 9 x 9 model in a process of its own
        probe = (
            "import json; from fires import harness, runtime; from fires.geometry import partition_surface; "
            "builds = []; build = harness.correlation_matrix; "
            "harness.correlation_matrix = lambda geom: builds.append(geom) or build(geom); "
            "geom = partition_surface(2.0, 2.0, 1, 0.0856, n_h=9, n_v=9); harness._field_model(geom); "
            "print(json.dumps([len(builds), str(runtime.model_file(geom))]))"
        )
        cache = tmp_path / "cache"
        runs = []
        for checkout in ("unedited", "edited"):
            package = tmp_path / checkout / "fires"
            shutil.copytree(Path(harness.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
            if checkout == "edited":
                with (package / edited).open("a") as fh:
                    fh.write("# one more line\n")
            env = {**os.environ, "PYTHONPATH": str(package.parent), "XDG_CACHE_HOME": str(cache)}
            done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
        (first_builds, first_path), (builds, path) = runs
        assert first_builds == 1
        assert (builds, path == first_path) == ((0, True) if shared else (1, False))
        # the second process's file only: the same one, or the first's evicted
        assert [p.name for p in (cache / "fires").iterdir()] == [Path(path).name]

    def test_key_holds_the_blas_kernel_and_thread_count(self, monkeypatch):
        geom = partition_surface(2.0, 2.0, 1, WL, n_h=9, n_v=9)
        paths = {}
        for blas in [(1, "OpenBLAS Haswell"), (1, "OpenBLAS SkylakeX"), (2, "OpenBLAS Haswell")]:
            monkeypatch.setattr(runtime, "openblas", lambda blas=blas: blas)
            paths[blas] = runtime.model_file(geom)
        assert len(set(paths.values())) == 3
        assert all(p.parent == paths[1, "OpenBLAS Haswell"].parent for p in paths.values())

    def test_no_openblas_keeps_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runtime, "openblas", lambda: (None, None))
        geom = partition_surface(2.0, 2.0, 1, WL, n_h=9, n_v=9)
        _field_model.cache_clear()
        model = _field_model(geom)
        _field_model.cache_clear()
        self.assert_same_model(model, correlation_matrix(geom))
        assert not (tmp_path / "fires").exists()

    def test_key_of_another_openblas_kernel_differs(self):
        threads, config = runtime.openblas()
        if config is None or "DYNAMIC_ARCH" not in config:
            pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS ({config or 'no OpenBLAS found'})")
        core = "Prescott" if "Haswell" in config.split() else "Haswell"
        probe = (
            "import json; from fires import runtime; from fires.geometry import partition_surface; "
            "geom = partition_surface(2.0, 2.0, 1, 0.0856, n_h=9, n_v=9); "
            "print(json.dumps([*runtime.openblas(), str(runtime.model_file(geom))]))"
        )
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        other_threads, other_config, other_path = json.loads(done.stdout)
        assert other_threads == threads and core in other_config.split()
        here = runtime.model_file(partition_surface(2.0, 2.0, 1, WL, n_h=9, n_v=9))
        assert other_path != str(here) and Path(other_path).parent == here.parent

    def test_pooled_sweep_on_an_empty_cache_matches_serial(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(sweep="area", area_sweep_m2=(1.0, 4.0), **{**FAST, "n_trials": 2})
        csv = {}
        for threads in (1, 2):
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"threads{threads}"))
            _field_model.cache_clear()  # or the forked workers would inherit the models
            emit_results(run_sweep(cfg, threads=threads), tmp_path / f"{threads}.csv", "csv")
            csv[threads] = (tmp_path / f"{threads}.csv").read_bytes()
        _field_model.cache_clear()
        assert csv[2] == csv[1]
        kept = self.cached_files(tmp_path / "threads2")
        assert len(kept) == len(cfg.area_sweep_m2) and all(p.suffix == ".npz" for p in kept)


class TestEmission:
    def make_records(self, n=5):
        cfg = ExperimentConfig(sweep="power", power_sweep_dbm=(20.0, 25.0, 30.0, 35.0, 40.0)[:n], **FAST)
        return cfg, run_sweep(cfg)

    def test_csv_shape(self, tmp_path):
        cfg, records = self.make_records()
        path = tmp_path / "out.csv"
        emit_results(records, path, "csv", config=cfg)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == "sweep_value,fires_mean,fires_stderr,baseline_mean,baseline_stderr,n_trials,seed"

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], path, "csv")
        assert path.read_text() == "sweep_value,fires_mean,fires_stderr,baseline_mean,baseline_stderr,n_trials,seed\n"

    def test_json_round_trip(self, tmp_path):
        cfg, records = self.make_records(n=2)
        path = tmp_path / "out.json"
        emit_results(records, path, "json", config=cfg)
        doc = json.loads(path.read_text())
        assert doc["config"]["power_sweep_dbm"] == [20.0, 25.0]
        for a, b in zip(records, doc["records"], strict=True):
            assert a.sweep_value == b["sweep_value"]
            assert a.fires_mean == b["fires_mean"]
            assert a.baseline_mean == b["baseline_mean"]
            assert a.config_digest == b["config_digest"]

    def test_json_schema_mirrors_the_dataclasses(self, tmp_path):
        cfg, records = self.make_records(n=2)
        path = tmp_path / "out.json"
        emit_results(records, path, "json", config=cfg)
        doc = json.loads(path.read_text())
        assert set(doc) == {"config", "records"}
        assert list(doc["config"]) == [f.name for f in fields(ExperimentConfig)]
        for rec in doc["records"]:
            assert list(rec) == [f.name for f in fields(ResultRecord)]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x.bin", "parquet")

    def test_unwritable_path_named(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match=f"cannot write results to {path}"):
            emit_results([], path, "csv")


class TestCli:
    def write_cfg(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(FAST)))
        return path

    def test_single_writes_csv(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "r.csv"
        code = cli_main(["single", "--config", str(cfg), "--out", str(out), "--trials", "2"])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_inject_baseline_and_threads_flags(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "inj.json"
        code = cli_main(
            ["single", "--config", str(cfg), "--out", str(out), "--trials", "2",
             "--inject-baseline", "--threads", "2"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["inject_baseline"] is True
        rec = doc["records"][0]
        assert rec["fires_mean"] >= rec["baseline_mean"] - 1e-9
        capsys.readouterr()

    def test_power_sweep_json_output(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "r.json"
        code = cli_main(["sweep-power", "--config", str(cfg), "--out", str(out), "--trials", "2"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["sweep"] == "power"
        assert len(doc["records"]) == 5

    @pytest.mark.parametrize("name", ["r.JSON", "r.Json"])
    def test_json_suffix_in_any_case(self, name, tmp_path, capsys):
        out = tmp_path / name
        code = cli_main(["single", "--config", str(self.write_cfg(tmp_path)), "--out", str(out), "--trials", "2"])
        assert code == 0
        assert json.loads(out.read_text())["config"]["sweep"] == "none"
        capsys.readouterr()

    def test_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        cfg = self.write_cfg(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        monkeypatch.setenv("FIRES_SEED", "7")
        assert cli_main(["single", "--config", str(cfg), "--out", str(out_a), "--trials", "2"]) == 0
        monkeypatch.delenv("FIRES_SEED")
        assert cli_main(["single", "--config", str(cfg), "--seed", "7", "--out", str(out_b), "--trials", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        capsys.readouterr()

    def test_zero_threads_rejected(self, tmp_path, capsys):
        code = cli_main(["single", "--threads", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: thread count must be positive, got 0\n"

    @pytest.mark.parametrize("var, value", [("FIRES_SEED", "abc"), ("FIRES_THREADS", "two")])
    def test_bad_env_fallback_named(self, var, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(var, value)
        code = cli_main(["single", "--config", str(self.write_cfg(tmp_path)), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {var} must be an integer, got {value!r}\n"

    @pytest.mark.parametrize(
        "field, value",
        [("n_h", 0), ("k_f", -1.0), ("noise_dbm", -3200), ("m_hat", 0), ("tau", 0),
         ("d_u", -5), ("f_c", 0), ("a_h", -1), ("inject_baseline", "no"),
         ("power_dbm", float("nan")), ("d_u", float("inf")), ("seed", -3),
         ("power_dbm", 4000), ("noise_dbm", -4000), ("power_sweep_dbm", [20.0, 4000.0]),
         *UNRUNNABLE],
    )
    def test_bad_config_fails_before_any_trial(self, field, value, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**FAST, **overrides(field, value)}))
        monkeypatch.setattr(harness, "run_trial", None)  # any trial would raise a TypeError
        code = cli_main(["single", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1

    def test_error_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = cli_main(["single", "--config", str(missing), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_program_fault_keeps_its_traceback(self, tmp_path, monkeypatch):
        def broken(cfg, threads=1):
            raise RuntimeError("fault inside the sweep")

        monkeypatch.setattr("fires.cli.run_sweep", broken)
        with pytest.raises(RuntimeError, match="fault inside the sweep"):
            cli_main(["single", "--out", str(tmp_path / "x.csv")])

    def test_reproducible_csv_bytes(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert cli_main(
                ["sweep-power", "--config", str(cfg), "--out", str(out), "--trials", "2", "--seed", "5"]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        capsys.readouterr()
