import numpy as np
import pytest

from fires.baseline import evaluate_baseline, fixed_surface_presets
from fires.channel import correlation_matrix, synthesize_channel
from fires.geometry import (
    lattice_points,
    pair_violation_counts,
    partition_surface,
    preset_points,
    snap_to_subarea_presets,
    subarea_corners,
)
from fires.harness import ExperimentConfig, geometry_from_config
from fires.rate import amplitude_weights, lattice_rates
from helpers import WL, brute_force_oracle, default_links, evaluate

P, S2 = 10.0, 1e-12


@pytest.fixture(scope="module")
def instance():
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=3, n_v=3)
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(19), corr=corr)
    return geom, amplitude_weights(real)


def test_centers_of_two_by_two_tiling(instance):
    geom, _ = instance
    presets = fixed_surface_presets(geom)
    # lattice lines at 0, 0.4, ..., 2: the centers 0.5 and 1.5 are nearest 0.4 and 1.6
    expect = np.array([[0.4, 0.4], [1.6, 0.4], [0.4, 1.6], [1.6, 1.6]])
    points = preset_points(geom, presets)
    assert np.allclose(points, expect)
    # element i sits on a preset of subarea i + 1, so this is a fluid placement too
    assert np.array_equal(snap_to_subarea_presets(points, geom), presets)
    assert pair_violation_counts(points[None], geom.d_min)[0] == 0


def test_single_element_at_aperture_center():
    geom = partition_surface(2.0, 2.0, 1, WL, n_h=3, n_v=3)
    assert np.allclose(preset_points(geom, fixed_surface_presets(geom)), [[1.0, 1.0]])


def test_placement_is_deterministic(instance):
    geom, _ = instance
    a = fixed_surface_presets.__wrapped__(geom)  # past the cache
    b = fixed_surface_presets.__wrapped__(geom)
    assert np.array_equal(a, b)
    assert np.array_equal(a, fixed_surface_presets(geom))


def test_matches_direct_evaluate(instance):
    # on this lattice the subarea centers snap to the fixed surface's presets
    geom, w = instance
    got = evaluate_baseline(w, geom, P, S2)
    lo, hi = subarea_corners(geom)
    direct = evaluate(w, (lo + hi) / 2.0, geom, P, S2)
    assert got.effective == direct.effective


def test_oracle_dominates_baseline(instance):
    geom, w = instance
    base = evaluate_baseline(w, geom, P, S2).effective
    _, oracle = brute_force_oracle(w, geom, P, S2)
    assert base <= oracle + 1e-12


def test_positive_rate_at_default_power(instance):
    geom, w = instance
    report = evaluate_baseline(w, geom, P, S2)
    assert report.effective > 0


def test_mismatched_element_count(instance):
    geom, w = instance
    got = evaluate_baseline(w, geom, P, S2, m_hat=1)
    # one element at the aperture center, half-way between lattice columns
    # (and rows) 2 and 3 of the 6 x 6 lattice: the tie goes to the smaller
    idx = np.array([2 * geom.lattice_cols + 2])
    assert np.array_equal(fixed_surface_presets(geom, 1), idx)
    expect = lattice_rates(w, idx, P, S2)
    for name in ("effective", "rate_r", "rate_t", "snr_r", "snr_t"):
        assert getattr(got, name) == getattr(expect, name), name
    assert lattice_points(geom).shape == (geom.n_presets, 2)


def test_bad_config_rejected(instance):
    geom, w = instance
    with pytest.raises(ValueError):
        evaluate_baseline(w, geom, P, S2, m_hat=0)


@pytest.mark.parametrize("m_hat", [1, 4])
def test_realization_of_another_geometry_rejected(instance, m_hat):
    geom, w = instance
    coarse = partition_surface(2.0, 2.0, 4, WL, n_h=2, n_v=2)
    with pytest.raises(ValueError, match="weights cover 36 presets, geometry has 16"):
        evaluate_baseline(w, coarse, P, S2, m_hat)


def test_fixed_surface_stacked_on_presets_rejected():
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=10, n_v=2)  # 20 columns x 4 rows
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(19), corr=corr)
    w = amplitude_weights(real)
    # 4 x 4 centers sit on distinct rows 0-3; 5 x 5 put rows 1 and 2 on row 1
    assert evaluate_baseline(w, geom, P, S2, m_hat=16).effective > 0
    with pytest.raises(ValueError, match="25 fixed elements snap to only 20 distinct presets"):
        evaluate_baseline(w, geom, P, S2, m_hat=25)
    with pytest.raises(ValueError, match="do not fit"):
        evaluate_baseline(w, geom, P, S2, m_hat=10**12)
    # 19 x 19 centers lie half-way between the lines of the 20 x 20 lattice,
    # and the ties to the smaller line keep them on distinct presets
    square = partition_surface(2.0, 2.0, 4, WL, n_h=10, n_v=10)
    lines = np.arange(19)
    assert np.array_equal(fixed_surface_presets(square, 361), (lines[:, None] * 20 + lines).ravel())


@pytest.mark.parametrize(
    "overrides, m_hat, expect",
    [
        # one element at the center of the 50 x 50 lattice, half-way between
        # lines 24 and 25 on both axes
        pytest.param({"n_h": 25, "n_v": 25}, 1, [24 * 50 + 24], id="50x50-one-element"),
        # M = 9 on a 30 x 30 lattice: the middle third's center is half-way
        # between lines 14 and 15
        pytest.param(
            {"n_subareas": 9}, 9, [r * 30 + c for r in (5, 14, 24) for c in (5, 14, 24)], id="30x30-M9"
        ),
    ],
)
def test_fixed_surface_ties_go_to_the_smaller_line_at_every_area(overrides, m_hat, expect):
    cfg = ExperimentConfig(**overrides, m_hat=m_hat)
    for area in (1.0, 2.5, 4.0, 16.0):
        geom = geometry_from_config(cfg, area)
        assert fixed_surface_presets(geom, m_hat).tolist() == expect, area


def test_fixed_surface_presets_built_once_per_geometry(instance):
    geom, _ = instance
    presets = fixed_surface_presets(geom, 1)
    assert fixed_surface_presets(geom, 1) is presets
    assert not presets.flags.writeable
