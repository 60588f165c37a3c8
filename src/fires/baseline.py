"""Fixed-element STAR-RIS benchmark.

Elements sit at the subarea centers of the shared aperture and never move;
phases and the energy split are optimized exactly as for the fluid surface,
so any rate gap isolates position reconfigurability.
"""

from __future__ import annotations

from .channel import ChannelRealization
from .geometry import Placement, SurfaceGeometry, partition_surface, snap_to_lattice, subarea_corners
from .rate import RateReport, amplitude_weights, lattice_rates


def star_ris_placement(geom: SurfaceGeometry) -> Placement:
    """Deterministic placement at the subarea centers."""
    lo, hi = subarea_corners(geom)
    return Placement((lo + hi) / 2.0)


def evaluate_baseline(
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    m_hat: int | None = None,
) -> RateReport:
    """Rate report of the fixed surface of m_hat elements on the fluid
    surface's channel field.

    The centers are those of the shared subareas with m_hat = None or equal
    to the fluid element count; a different m_hat re-tiles the same aperture.
    Each center snaps to the nearest global preset. A shared subarea's center
    is nearer its own presets than any other subarea's, so that is the preset
    `evaluate` snaps it to.
    """
    if realization.n_presets != geom.n_presets:
        raise ValueError(
            f"realization covers {realization.n_presets} presets, geometry has {geom.n_presets}"
        )
    tiling = geom
    if m_hat is not None and m_hat != geom.n_subareas:
        tiling = partition_surface(
            geom.a_h, geom.a_v, m_hat, geom.wavelength,
            n_h=geom.n_h, n_v=geom.n_v, d_min=geom.d_min,
        )
    idx = snap_to_lattice(star_ris_placement(tiling).positions, geom)
    return lattice_rates(amplitude_weights(realization), idx, power, noise_power)
