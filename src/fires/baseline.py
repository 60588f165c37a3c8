"""Fixed-element STAR-RIS benchmark.

Elements sit at the subarea centers of the shared aperture and never move;
phases and the energy split are optimized exactly as for the fluid surface,
so any rate gap isolates position reconfigurability.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .geometry import Placement, SurfaceGeometry, partition_surface, snap_to_lattice, subarea_corners
from .rate import RateReport, amplitude_weights, lattice_rates


def star_ris_placement(geom: SurfaceGeometry) -> Placement:
    """Deterministic placement at the subarea centers."""
    lo, hi = subarea_corners(geom)
    return Placement((lo + hi) / 2.0)


def fixed_surface_presets(geom: SurfaceGeometry, m_hat: int | None = None) -> np.ndarray:
    """0-based flat indices of the presets the fixed surface of m_hat elements
    sits on: the subarea centers of `geom`, or with another m_hat those of a
    re-tiling of its aperture, each snapped to the nearest global preset. A
    shared subarea's center is nearer its own presets than any other
    subarea's, so `evaluate` snaps it to the same preset. Raises ValueError
    where two elements would sit on one preset.
    """
    tiling = geom
    if m_hat is not None and m_hat != geom.n_subareas:
        if m_hat > geom.n_presets:  # never build a tiling that cannot fit
            raise ValueError(f"{m_hat} fixed elements do not fit on {geom.n_presets} presets")
        tiling = partition_surface(geom.a_h, geom.a_v, m_hat, geom.wavelength)
    idx = snap_to_lattice(star_ris_placement(tiling).positions, geom)
    if (distinct := len(set(idx.tolist()))) < len(idx):
        raise ValueError(f"{len(idx)} fixed elements snap to only {distinct} distinct presets")
    return idx


def evaluate_baseline(
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    m_hat: int | None = None,
) -> RateReport:
    """Rate report of the fixed surface of m_hat elements on the fluid
    surface's channel field, at the presets `fixed_surface_presets` gives."""
    if realization.n_presets != geom.n_presets:
        raise ValueError(
            f"realization covers {realization.n_presets} presets, geometry has {geom.n_presets}"
        )
    idx = fixed_surface_presets(geom, m_hat)
    return lattice_rates(amplitude_weights(realization), idx, power, noise_power)
