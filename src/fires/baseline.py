"""Fixed-element STAR-RIS benchmark.

Elements sit on the presets nearest the subarea centers of the shared
aperture and never move; phases and the energy split are optimized exactly
as for the fluid surface, so any rate gap isolates position
reconfigurability.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .geometry import SurfaceGeometry, subarea_grid_shape
from .rate import _check_weights, lattice_rates


def _nearest_lines(k: int, count: int) -> np.ndarray:
    """Lattice line nearest to the center of each of k equal cells across
    `count` lines: cell j's center, at line (2j + 1)(count - 1) / (2k),
    rounded in integers with half-way cases to the smaller line."""
    return -((k - (2 * np.arange(k) + 1) * (count - 1)) // (2 * k))


@cache
def fixed_surface_presets(geom: SurfaceGeometry, m_hat: int | None = None) -> np.ndarray:
    """0-based flat indices, shape (m_hat,), of the presets the fixed surface
    of m_hat elements sits on, row-major over its cells: the subarea centers
    of `geom`, or with another m_hat those of a re-tiling of its aperture in
    square cells, each on the nearest global preset (`_nearest_lines`).
    Without m_hat, or with m_hat = n_subareas, element i sits on a preset of
    subarea i + 1, so the result is also a placement of the fluid surface.
    They depend on the lattice and the tiling, not on the aperture's scale;
    read-only, computed once per (geometry, m_hat). Raises ValueError where
    two elements would sit on one preset.
    """
    if m_hat is None or m_hat == geom.n_subareas:
        cols, rows = geom.grid_cols, geom.grid_rows
    elif m_hat > geom.n_presets:  # never tile what cannot fit
        raise ValueError(f"{m_hat} fixed elements do not fit on {geom.n_presets} presets")
    else:
        cols, rows = subarea_grid_shape(geom.a_h, geom.a_v, m_hat)
    lines = _nearest_lines(rows, geom.lattice_rows)[:, None] * geom.lattice_cols
    idx = (lines + _nearest_lines(cols, geom.lattice_cols)).ravel()
    if (distinct := len(set(idx.tolist()))) < len(idx):
        raise ValueError(f"{len(idx)} fixed elements snap to only {distinct} distinct presets")
    idx.flags.writeable = False
    return idx


def evaluate_baseline(
    weights,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    m_hat: int | None = None,
):
    """Max-min rate of the fixed surface of m_hat elements on the fluid
    surface's channel field, from its `amplitude_weights`, at the presets
    `fixed_surface_presets` gives."""
    _check_weights(weights, geom)
    return lattice_rates(weights, fixed_surface_presets(geom, m_hat), power, noise_power)
