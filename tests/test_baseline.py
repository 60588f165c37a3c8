import numpy as np
import pytest

from fires.baseline import evaluate_baseline, star_ris_placement
from fires.channel import correlation_matrix, synthesize_channel
from fires.geometry import lattice_points, partition_surface, snap_to_lattice, spacing_violations
from fires.rate import amplitude_weights, evaluate, lattice_rates
from helpers import WL, brute_force_oracle, default_links

P, S2 = 10.0, 1e-12


@pytest.fixture(scope="module")
def instance():
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=3, n_v=3)
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(19), corr=corr)
    return geom, real


def test_centers_of_two_by_two_tiling(instance):
    geom, _ = instance
    pl = star_ris_placement(geom)
    expect = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
    assert np.allclose(pl.positions, expect)
    assert spacing_violations(pl, geom.d_min) == 0


def test_single_element_at_aperture_center():
    geom = partition_surface(2.0, 2.0, 1, WL, n_h=3, n_v=3)
    assert np.allclose(star_ris_placement(geom).positions, [[1.0, 1.0]])


def test_placement_is_deterministic(instance):
    geom, _ = instance
    a = star_ris_placement(geom)
    b = star_ris_placement(geom)
    assert np.array_equal(a.positions, b.positions)


def test_matches_direct_evaluate(instance):
    geom, real = instance
    got = evaluate_baseline(real, geom, P, S2)
    direct = evaluate(real, star_ris_placement(geom), geom, P, S2)
    assert got.effective == direct.effective


def test_oracle_dominates_baseline(instance):
    geom, real = instance
    base = evaluate_baseline(real, geom, P, S2).effective
    _, oracle = brute_force_oracle(real, geom, P, S2)
    assert base <= oracle + 1e-12


def test_positive_rate_at_default_power(instance):
    geom, real = instance
    report = evaluate_baseline(real, geom, P, S2)
    assert report.effective > 0


def test_mismatched_element_count(instance):
    geom, real = instance
    got = evaluate_baseline(real, geom, P, S2, m_hat=1)
    # one element at the aperture center, snapped to the nearest global preset
    idx = snap_to_lattice(np.array([[1.0, 1.0]]), geom)
    expect = lattice_rates(amplitude_weights(real), idx, P, S2)
    for name in ("effective", "rate_r", "rate_t", "snr_r", "snr_t"):
        assert getattr(got, name) == getattr(expect, name), name
    assert lattice_points(geom).shape == (geom.n_presets, 2)


def test_bad_config_rejected(instance):
    geom, real = instance
    with pytest.raises(ValueError):
        evaluate_baseline(real, geom, P, S2, m_hat=0)


@pytest.mark.parametrize("m_hat", [1, 4])
def test_realization_of_another_geometry_rejected(instance, m_hat):
    geom, real = instance
    coarse = partition_surface(2.0, 2.0, 4, WL, n_h=2, n_v=2)
    with pytest.raises(ValueError, match="realization covers 36 presets, geometry has 16"):
        evaluate_baseline(real, coarse, P, S2, m_hat)


def test_fixed_surface_stacked_on_presets_rejected():
    geom = partition_surface(2.0, 2.0, 4, WL, n_h=10, n_v=10)  # 20 x 20 lattice
    corr = correlation_matrix(geom)
    real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(19), corr=corr)
    # 18 x 18 centers snap to distinct presets, 19 x 19 to only 289
    assert evaluate_baseline(real, geom, P, S2, m_hat=324).effective > 0
    with pytest.raises(ValueError, match="361 fixed elements snap to only 289 distinct presets"):
        evaluate_baseline(real, geom, P, S2, m_hat=361)
    with pytest.raises(ValueError, match="do not fit"):
        evaluate_baseline(real, geom, P, S2, m_hat=10**12)
