import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fires import harness
from fires.channel import CorrelationModel, PlaneWaveField
from fires.cli import main as cli_main
from fires.harness import (
    ExperimentConfig,
    _field_model,
    config_from_json,
    dbm_to_watts,
    emit_results,
    geometry_from_config,
    load_results,
    run_sweep,
    run_trial,
    wavelength,
)

FAST = dict(n_h=4, n_v=4, n_particles=10, n_iterations=10, n_trials=4)


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
        path.write_text(json.dumps({"not_a_field": 1}))
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
        ],
    )
    def test_bad_field_named_at_load(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

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

    def test_dense_field_model_only_where_it_fits(self):
        coarse = ExperimentConfig(**FAST)
        assert isinstance(_field_model(geometry_from_config(coarse)), CorrelationModel)
        fine = ExperimentConfig(**{**FAST, "n_h": 50, "n_v": 50})  # L = 10,000
        assert isinstance(_field_model(geometry_from_config(fine)), PlaneWaveField)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the dense model would warn here
            rec = run_trial(fine, 0)
        assert rec.fires_rate > 0 and rec.baseline_rate > 0

    def test_history_length_and_monotonicity(self):
        cfg = ExperimentConfig(**FAST)
        rec = run_trial(cfg, 2)
        assert len(rec.history) == cfg.n_iterations + 1
        assert np.all(np.diff(rec.history) >= 0)


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_power_records_equal_separate_runs(self, seed, monkeypatch):
        cfg = ExperimentConfig(sweep="power", seed=seed, **FAST)
        swept = {}
        plain_run_trial = harness.run_trial

        def recording(c, trial_index, area_m2=None):
            swept[c.power_dbm, trial_index] = rec = plain_run_trial(c, trial_index, area_m2)
            return rec

        monkeypatch.setattr(harness, "run_trial", recording)
        run_sweep(cfg)
        monkeypatch.undo()
        assert len(swept) == len(cfg.power_sweep_dbm) * cfg.n_trials
        for (power, t), rec in swept.items():
            alone = run_trial(replace(cfg, sweep="none", power_dbm=power), t)
            assert rec.fires_rate == alone.fires_rate
            assert rec.baseline_rate == alone.baseline_rate
            assert rec.history == alone.history

    def test_one_swarm_per_trial_on_the_power_axis(self, monkeypatch):
        calls = []
        plain_optimize = harness.optimize

        def counting(*args, **kwargs):
            calls.append(1)
            return plain_optimize(*args, **kwargs)

        monkeypatch.setattr(harness, "optimize", counting)
        cfg = ExperimentConfig(sweep="power", **FAST)
        run_sweep(cfg)
        assert len(calls) == cfg.n_trials
        calls.clear()
        run_trial(cfg, 0)
        run_trial(cfg, 0)
        assert len(calls) == 2  # no memo outside run_sweep

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

    def test_convergence_curve_attached_when_requested(self):
        cfg = ExperimentConfig(record_convergence=True, **FAST)
        records = run_sweep(cfg)
        assert records[0].convergence is not None
        assert len(records[0].convergence) == cfg.n_iterations + 1
        assert np.all(np.diff(records[0].convergence) >= 0)

    def test_threaded_matches_serial(self):
        cfg = ExperimentConfig(sweep="power", power_sweep_dbm=(20.0, 40.0), **FAST)
        serial = run_sweep(cfg, threads=1)
        threaded = run_sweep(cfg, threads=2)
        for a, b in zip(serial, threaded):
            assert a.fires_mean == b.fires_mean
            assert a.baseline_mean == b.baseline_mean


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
        loaded, config_doc = load_results(path)
        assert config_doc["power_sweep_dbm"] == [20.0, 25.0]
        for a, b in zip(records, loaded):
            assert a.sweep_value == b.sweep_value
            assert a.fires_mean == b.fires_mean
            assert a.baseline_mean == b.baseline_mean
            assert a.config_digest == b.config_digest

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "x.bin", "parquet")


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
        records, config_doc = load_results(out)
        assert config_doc["inject_baseline"] is True
        assert records[0].fires_mean >= records[0].baseline_mean - 1e-9
        capsys.readouterr()

    def test_power_sweep_json_output(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "r.json"
        code = cli_main(["sweep-power", "--config", str(cfg), "--out", str(out), "--trials", "2"])
        assert code == 0
        records, config_doc = load_results(out)
        assert config_doc["sweep"] == "power"
        assert len(records) == 5

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
