"""Shared fixtures-in-spirit: small geometries, default link parameters, and
reference forms of the channel and lattice models that only tests need."""

import numpy as np

from fires.channel import CorrelationModel, LinkParams, PlaneWaveField, _symmetric_sqrt
from fires.geometry import SurfaceGeometry, subarea_presets

WL = 0.0856  # ~3.5 GHz carrier


def default_links(az=0.9, el=0.4):
    f = LinkParams(k_factor=5.0, distance=100.0, alpha=2.5, azimuth=az, elevation=el)
    r = LinkParams(k_factor=5.0, distance=200.0, alpha=2.5, azimuth=1.3, elevation=0.7)
    t = LinkParams(k_factor=5.0, distance=200.0, alpha=2.5, azimuth=2.1, elevation=1.9)
    return f, r, t


def complex_rows(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def model_from_matrix(r) -> CorrelationModel:
    """Correlation model of any symmetric matrix, through one full
    eigendecomposition (no mirror blocks)."""
    r = np.asarray(r, dtype=float)
    vals, root = _symmetric_sqrt(r)
    return CorrelationModel(matrix=r, eigvals=vals, coloring=root)


def offset_covariance(field: PlaneWaveField) -> np.ndarray:
    """Covariance between presets of a plane-wave field as a function of their
    lattice offset: entry [dr + rows - 1, dc + cols - 1] is
    E[h(p + offset) conj(h(p))] for an offset of dr rows and dc columns,
    shape (2 rows - 1, 2 cols - 1); no L x L matrix is formed."""
    ex = np.concatenate([np.conj(field.ux[:0:-1]), field.ux])
    ey = np.concatenate([np.conj(field.uy[:0:-1]), field.uy])
    return ey @ field.variances @ ex.T


def preset_flat_indices(geom: SurfaceGeometry, m: int) -> np.ndarray:
    """1-based global flat indices of subarea m's presets, ascending."""
    return subarea_presets(geom)[1][m - 1] + 1


def preset_grid(geom: SurfaceGeometry, m: int) -> np.ndarray:
    """(n_h * n_v, 2) preset coordinates of subarea m (1-based), ascending
    flat index."""
    return subarea_presets(geom)[0][m - 1]
