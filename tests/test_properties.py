"""Properties of the placement polish over drawn geometries and channels.

Hypothesis draws the geometry (M in {1, 4, 9} on a square subarea grid,
2-6 presets per subarea axis, the aperture and d_min), Rayleigh amplitude
weights and one preset per subarea. The runs are derandomized with a fixed
example budget, so every run of the suite checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fires.geometry import partition_surface, preset_violations, subarea_presets
from fires.pso import PsoConfig, best_response, repair_spacing
from fires.rate import lattice_rates
from helpers import WL, complex_rows

P, S2 = 10.0, 1e-12
CFG = PsoConfig()

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def instances(draw):
    """(geometry, amplitude weights, (M,) flat presets, one of each subarea's)."""
    k = draw(st.sampled_from([1, 2, 3]))
    n_h, n_v = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    a_h, a_v = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
    # from below the lattice pitch to past the aperture: spacing binds
    # nowhere, between some presets, or between every pair of elements
    d_min = draw(st.floats(0.01, 1.5)) * max(a_h, a_v)
    geom = partition_surface(a_h, a_v, k * k, WL, n_h=n_h, n_v=n_v, d_min=d_min, grid=(k, k))
    # Rayleigh links: i.i.d. complex Gaussian coefficients at every preset
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp_f, amp_r, amp_t = np.abs(complex_rows(rng, (3, geom.n_presets)))
    picks = draw(st.lists(st.integers(0, n_h * n_v - 1), min_size=k * k, max_size=k * k))
    presets = subarea_presets(geom)[np.arange(k * k), picks]
    return geom, (amp_f * amp_r, amp_f * amp_t), presets


def objective(presets, weights, geom) -> float:
    """The polish's objective: max-min rate minus tau per close preset pair."""
    return float(lattice_rates(weights, presets, P, S2)) - CFG.tau * preset_violations(presets, geom)


@PROPERTY
@given(instances())
def test_best_response_never_lowers_its_objective(instance):
    geom, weights, start = instance
    polished = best_response(start, weights, geom, P, S2, CFG)
    assert (polished[:, None] == subarea_presets(geom)).any(axis=1).all()
    assert objective(polished, weights, geom) >= objective(start, weights, geom)
    if preset_violations(start, geom) == 0:
        assert preset_violations(polished, geom) == 0


@PROPERTY
@given(instances())
def test_repair_keeps_a_feasible_placement(instance):
    geom, weights, start = instance
    assume(preset_violations(start, geom) == 0)
    assert np.array_equal(repair_spacing(start, weights, geom, P, S2), start)
