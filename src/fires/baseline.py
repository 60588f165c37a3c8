"""Fixed-element STAR-RIS benchmark.

Elements sit at the subarea centers of the shared aperture and never move;
phases and the energy split are optimized exactly as for the fluid surface,
so any rate gap isolates position reconfigurability.
"""

from __future__ import annotations

from .channel import ChannelRealization
from .geometry import Placement, SurfaceGeometry, partition_surface, snap_to_lattice, subarea_corners
from .rate import RateReport, amplitude_weights, evaluate, lattice_rates


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

    Centers snap to the nearest preset like any placement. With m_hat = None
    or equal to the fluid element count, the centers coincide with the shared
    subarea centers; a different m_hat re-tiles the same aperture and looks
    the lattice up at the nearest global presets.
    """
    if m_hat is None or m_hat == geom.n_subareas:
        return evaluate(realization, star_ris_placement(geom), geom, power, noise_power)
    tiling = partition_surface(
        geom.a_h, geom.a_v, m_hat, geom.wavelength,
        n_h=geom.n_h, n_v=geom.n_v, d_min=geom.d_min,
    )
    idx = snap_to_lattice(star_ris_placement(tiling).positions, geom)
    return lattice_rates(amplitude_weights(realization), idx, power, noise_power)
