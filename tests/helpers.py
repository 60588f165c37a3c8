"""Shared fixtures-in-spirit: small geometries, default link parameters, and
reference forms of the channel and lattice models that only tests need."""

from dataclasses import dataclass

import numpy as np

from fires.channel import (
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    _complex_pairs,
    _mirror_fold,
    _symmetric_sqrt,
)
from fires.geometry import SurfaceGeometry, subarea_presets

WL = 0.0856  # ~3.5 GHz carrier


def default_links(az=0.9, el=0.4):
    f = LinkParams(k_factor=5.0, distance=100.0, alpha=2.5, azimuth=az, elevation=el)
    r = LinkParams(k_factor=5.0, distance=200.0, alpha=2.5, azimuth=1.3, elevation=0.7)
    t = LinkParams(k_factor=5.0, distance=200.0, alpha=2.5, azimuth=2.1, elevation=1.9)
    return f, r, t


def complex_rows(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass(frozen=True, eq=False)
class DenseModel:
    """A correlation model held as its L x L symmetric square root, drawn
    with one dense product; the reference the mirror-block model is checked
    against."""

    eigvals: np.ndarray  # (L,) ascending, clamped at zero
    coloring: np.ndarray  # (L, L) symmetric square root

    @property
    def n_presets(self) -> int:
        return self.coloring.shape[0]

    def draw(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        n = 1 if size is None else size
        white = rng.standard_normal((n, 2, self.n_presets))
        colored = white.reshape(2 * n, self.n_presets) @ self.coloring.T
        field = _complex_pairs(colored.reshape(n, 2, self.n_presets))
        return field[0] if size is None else field


def model_from_matrix(r) -> DenseModel:
    """Dense model of any symmetric matrix, through one full
    eigendecomposition (no mirror blocks)."""
    r = np.asarray(r, dtype=float)
    vals, root = _symmetric_sqrt(*np.linalg.eigh(r))
    return DenseModel(eigvals=vals, coloring=root)


def sinc_matrix(geom: SurfaceGeometry) -> np.ndarray:
    """The L x L sinc correlation built entry by entry from every pair's
    offsets."""
    idx = np.arange(geom.n_presets)
    cols = idx % geom.lattice_cols
    rows = idx // geom.lattice_cols
    dx = (cols[:, None] - cols[None, :]) * (geom.a_h / (geom.lattice_cols - 1))
    dy = (rows[:, None] - rows[None, :]) * (geom.a_v / (geom.lattice_rows - 1))
    return np.sinc(2.0 / geom.wavelength * np.hypot(dx, dy))


def _mirror_unfold(
    half: np.ndarray, axis: int, odd: bool, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Transpose of `_mirror_fold`: the n lattice coordinates along `axis` of
    one half of the mirror basis, added into `out` when it is given."""
    if out is None:
        out = np.zeros(half.shape[:axis] + (n,) + half.shape[axis + 1 :])
    half = np.moveaxis(half, axis, 0)
    dest = np.moveaxis(out, axis, 0)
    m = n // 2
    spread = half[:m] * np.sqrt(0.5)
    dest[:m] += spread
    if odd:
        dest[::-1][:m] -= spread
    else:
        dest[::-1][:m] += spread
        if n % 2:
            dest[m] += half[m]
    return out


def dense_coloring(corr: CorrelationModel) -> np.ndarray:
    """The L x L symmetric square root that a mirror-block model's four block
    roots make up, unfolded block by block onto the lattice."""
    rows, cols = corr.shape
    half_y, half_x = rows - rows // 2, cols - cols // 2
    padded = iter(corr.roots.reshape(4, half_y, half_x, half_y, half_x))
    root = np.zeros((rows, cols, rows, cols))
    for odd_y in (False, True):
        k_y = rows // 2 if odd_y else half_y
        root_y = np.zeros((k_y, cols, k_y, cols))
        for odd_x in (False, True):
            k_x = cols // 2 if odd_x else half_x
            block_root = next(padded)[:k_y, :k_x, :k_y, :k_x]
            spread = _mirror_unfold(block_root, 3, odd_x, cols)
            _mirror_unfold(spread, 1, odd_x, cols, out=root_y)
        _mirror_unfold(_mirror_unfold(root_y, 2, odd_y, rows), 0, odd_y, rows, out=root)
    return root.reshape(corr.n_presets, corr.n_presets)


def whole_window_mirror_roots(r4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`channel._mirror_roots` by whole-window folds: each row parity folds all
    of `r4` along axes 0 and 2, then each column parity along axes 1 and 3,
    with temporaries near 8 L^2 bytes; the reference the block-at-a-time
    build is checked against bit for bit."""
    rows, cols = r4.shape[:2]
    vals, roots = [], []
    for odd_y in (False, True):
        r_y = _mirror_fold(_mirror_fold(r4, 0, odd_y), 2, odd_y)
        for odd_x in (False, True):
            block = _mirror_fold(_mirror_fold(r_y, 1, odd_x), 3, odd_x)
            k = block.shape[0] * block.shape[1]
            block_vals, block_root = _symmetric_sqrt(*np.linalg.eigh(block.reshape(k, k)))
            vals.append(block_vals)
            roots.append(block_root.reshape(block.shape))
    half_y, half_x = rows - rows // 2, cols - cols // 2
    padded = np.zeros((4, half_y, half_x, half_y, half_x))
    for dest, root in zip(padded, roots):
        k_y, k_x = root.shape[:2]
        dest[:k_y, :k_x, :k_y, :k_x] = root
    return np.sort(np.concatenate(vals)), padded.reshape(4, half_y * half_x, -1)


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
