"""Channel synthesis over the preset lattice.

Each of the three links (feed hop into the surface, surface to the reflect
user, surface to the transmit user) is a Rician mix of a deterministic
plane-wave steering component and a spatially correlated scattered field,
scaled by a power-law path loss. The scattered field follows the isotropic
sinc correlation over the preset lattice: two presets a distance d apart have
correlation sinc(2 d / wavelength). Two models draw that field, and both are
built once per geometry and shared by all links:

- `correlation_matrix`: the dense L x L sinc matrix, colored by its
  symmetric square root. It is exact and is the reference, but its memory
  grows with L^2. The lattice is mirror-symmetric along both axes, so the
  square root splits into four blocks of about L / 4 (Cantoni and Butler,
  Linear Algebra Appl. 1976) and its time grows with L^3 / 16.
- `plane_wave_field`: a finite sum of plane waves on a wavenumber grid inside
  the visible disk |k| <= 2 pi / wavelength (the Fourier plane-wave model of
  Pizzo, Marzetta and Sanguinetti, IEEE JSAC 2020). Its memory and time grow
  with the lattice side times the wavenumber count, and its covariance stays
  within 1% (relative Frobenius) of the sinc matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceGeometry, lattice_points

# above this lattice size the dense L x L matrices need several GB
DENSE_MAX_PRESETS = 8000
# wavenumber grid spacing of the plane-wave model is 2 pi / (q * side) per
# axis, so the field repeats every q aperture sides. q = 8 keeps the implied
# covariance within 1% of sinc on every geometry the tests use, and within
# 0.4% on apertures of 1 m^2 and up; q = 4 exceeds 1% from 1,600 presets up
_PLANE_WAVE_OVERSAMPLING = 8
# Gauss-Legendre nodes per wavenumber cell for the outer spectral integral
_PLANE_WAVE_NODES = 16


@dataclass(frozen=True)
class LinkParams:
    """Propagation parameters of one link, surface-side angles in radians."""

    k_factor: float  # Rician factor, linear
    distance: float  # m
    alpha: float  # path-loss exponent
    azimuth: float
    elevation: float

    def __post_init__(self):
        if self.k_factor < 0:
            raise ValueError(f"Rician factor must be >= 0, got {self.k_factor}")
        if self.distance <= 0:
            raise ValueError(f"distance must be positive, got {self.distance}")
        if self.alpha <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class CorrelationModel:
    """Spatial correlation matrix with its symmetric square root.

    `coloring` is the symmetric square root V sqrt(eigvals) V^T of `matrix`,
    with negative eigenvalues clamped to zero. It maps i.i.d. unit-variance
    draws to draws with covariance `matrix`, and unlike V sqrt(eigvals) it
    does not depend on which eigenvectors the decomposition picked among
    (near-)degenerate ones, so draws agree across LAPACK builds.
    """

    matrix: np.ndarray  # (L, L) real symmetric, unit diagonal
    eigvals: np.ndarray  # (L,) ascending, clamped at zero
    coloring: np.ndarray  # (L, L) symmetric square root of matrix

    @property
    def n_presets(self) -> int:
        return self.matrix.shape[0]

    def draw(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Scattered-field draw(s) with covariance `matrix`, shape (L,) or
        (size, L).

        Each draw takes 2 L standard normals, the real parts and then the
        imaginary parts of a circularly symmetric complex white vector with
        unit variance, so `size=n` returns what n single draws in a row
        return. All of them are colored by one real matrix product.
        """
        n = 1 if size is None else size
        white = rng.standard_normal((n, 2, self.n_presets))
        colored = white.reshape(2 * n, self.n_presets) @ self.coloring.T
        field = _complex_pairs(colored.reshape(n, 2, self.n_presets))
        return field[0] if size is None else field


def _complex_pairs(x: np.ndarray) -> np.ndarray:
    """Unit-variance complex values from an (n, 2, ...) array holding the real
    parts at [:, 0] and the imaginary parts at [:, 1]."""
    return (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)


def _symmetric_sqrt(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of symmetric r, clamped at zero (PSD repair of
    numerical noise), and the symmetric square root (V sqrt(vals)) V^T."""
    vals, vecs = np.linalg.eigh(r)
    vals = np.clip(vals, 0.0, None)
    return vals, (vecs * np.sqrt(vals)) @ vecs.T


_SQRT_HALF = np.sqrt(0.5)


def _mirror_fold(a: np.ndarray, axis: int, odd: bool) -> np.ndarray:
    """Coordinates of `a` along `axis` in one half of the mirror basis.

    For an axis of length n with m = n // 2, the odd half holds
    (a[i] - a[n-1-i]) / sqrt(2) for i < m, and the even half holds
    (a[i] + a[n-1-i]) / sqrt(2) for i < m followed, when n is odd, by the
    center a[m]. Together the halves are an orthogonal change of basis.
    """
    a = np.moveaxis(a, axis, 0)
    n = a.shape[0]
    m = n // 2
    tail = a[::-1][:m]  # a[n-1-i] for i < m
    half = a[:m] - tail if odd else a[:m] + tail
    half *= _SQRT_HALF
    if n % 2 and not odd:
        half = np.concatenate([half, a[m : m + 1]])
    return np.moveaxis(half, 0, axis)


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
    spread = half[:m] * _SQRT_HALF
    dest[:m] += spread
    if odd:
        dest[::-1][:m] -= spread
    else:
        dest[::-1][:m] += spread
        if n % 2:
            dest[m] += half[m]
    return out


def _mirror_sqrt(r4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and symmetric square root of a lattice correlation that is
    unchanged by mirroring either lattice axis.

    `r4` is the (rows, cols, rows, cols) view of the L x L matrix. In the
    per-axis even/odd mirror basis the matrix splits into four blocks, one
    per pair of row and column parities; each block gets its own clamped
    eigendecomposition and square root, and the four roots are transformed
    back to the lattice. The result is the matrix `_symmetric_sqrt` gives for
    the whole, up to rounding, for about a sixteenth of the work.
    """
    rows, cols = r4.shape[:2]
    vals = []
    root = np.zeros(r4.shape)
    for odd_y in (False, True):
        r_y = _mirror_fold(_mirror_fold(r4, 0, odd_y), 2, odd_y)
        root_y = np.zeros((r_y.shape[0], cols, r_y.shape[2], cols))
        for odd_x in (False, True):
            block = _mirror_fold(_mirror_fold(r_y, 1, odd_x), 3, odd_x)
            k = block.shape[0] * block.shape[1]
            block_vals, block_root = _symmetric_sqrt(block.reshape(k, k))
            vals.append(block_vals)
            spread = _mirror_unfold(block_root.reshape(block.shape), 3, odd_x, cols)
            _mirror_unfold(spread, 1, odd_x, cols, out=root_y)
        _mirror_unfold(_mirror_unfold(root_y, 2, odd_y, rows), 0, odd_y, rows, out=root)
    n = rows * cols
    return np.sort(np.concatenate(vals)), root.reshape(n, n)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the three lattice-wide channel vectors (length L each)."""

    h_f: np.ndarray  # feed hop, BS to surface
    h_r: np.ndarray  # surface to reflect user
    h_t: np.ndarray  # surface to transmit user

    @property
    def n_presets(self) -> int:
        return self.h_f.shape[0]


def surface_steering(azimuth, elevation, positions, wavelength: float) -> np.ndarray:
    """Plane-wave phase response of the surface at the given positions.

    Entry for position (x, y) is exp(j 2 pi / wavelength *
    (x sin(azimuth) cos(elevation) + y sin(elevation))); unit modulus.
    """
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    pos = np.asarray(positions, dtype=float)
    phase = (2.0 * np.pi / wavelength) * (
        pos[..., 0] * np.sin(azimuth) * np.cos(elevation) + pos[..., 1] * np.sin(elevation)
    )
    return np.exp(1j * phase)


def path_loss(distance: float, alpha: float) -> float:
    """Power scale factor distance**(-alpha)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    return float(distance ** -alpha)


def correlation_matrix(geom: SurfaceGeometry) -> CorrelationModel:
    """Sinc spatial correlation over the full preset lattice.

    Entry for lattice points with index offsets (dc, dr) is
    sinc(2/wavelength * hypot(dc * a_h / (L_h - 1), dr * a_v / (L_v - 1))),
    i.e. sinc of twice the physical separation in wavelengths. The matrix is
    read off a table of the (2 L_v - 1) x (2 L_h - 1) lattice offsets, and
    its square root is computed in the four mirror blocks of the lattice.
    """
    l_h, l_v = geom.lattice_cols, geom.lattice_rows
    if l_h < 2 or l_v < 2:
        raise ValueError(f"degenerate lattice {l_h} x {l_v}; need at least 2 presets per axis")
    if geom.n_presets > DENSE_MAX_PRESETS:
        est_gb = 4 * 8 * geom.n_presets**2 / 1e9
        warnings.warn(
            f"dense correlation model for L={geom.n_presets} presets needs roughly "
            f"{est_gb:.1f} GB; above {DENSE_MAX_PRESETS} presets use plane_wave_field, "
            f"as the experiment harness does",
            RuntimeWarning,
            stacklevel=2,
        )
    # one sinc value per lattice offset (dr, dc), at [dr + l_v - 1, dc + l_h - 1]
    dx = np.arange(1 - l_h, l_h) * (geom.a_h / (l_h - 1))
    dy = np.arange(1 - l_v, l_v) * (geom.a_v / (l_v - 1))
    table = np.sinc(2.0 / geom.wavelength * np.hypot(dx[None, :], dy[:, None]))
    # entry ((r, c), (r', c')) is table[r' - r + l_v - 1, c' - c + l_h - 1],
    # the table being even in both offsets; the sliding window with reversed
    # origins reads exactly that: window[r, c, r', c'] = table[l_v - 1 - r + r', ...]
    window = np.lib.stride_tricks.sliding_window_view(table, (l_v, l_h))[::-1, ::-1]
    r4 = np.ascontiguousarray(window)
    vals, root = _mirror_sqrt(r4)
    n = geom.n_presets
    return CorrelationModel(matrix=r4.reshape(n, n), eigvals=vals, coloring=root)


@dataclass(frozen=True, eq=False)
class PlaneWaveField:
    """Isotropic scattered field as a finite sum of plane waves.

    The field over the lattice is Uy @ G @ Ux^T, flattened row-major: G holds
    independent circularly symmetric complex Gaussian amplitudes, one per
    cell of a rectangular wavenumber grid, with the variances in `variances`;
    Ux[c, i] = exp(j kx_i x_c) and Uy[r, j] = exp(j ky_j y_r). The variances
    sum to one, so every preset has unit variance.
    """

    ux: np.ndarray  # (lattice_cols, nkx) complex
    uy: np.ndarray  # (lattice_rows, nky) complex
    variances: np.ndarray  # (nky, nkx), nonnegative, summing to 1

    @property
    def n_presets(self) -> int:
        return self.ux.shape[0] * self.uy.shape[0]

    def draw(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Scattered-field draw(s) over the lattice, shape (L,) or (size, L).

        Each draw takes the real and then the imaginary parts of its
        amplitudes from the stream, so `size=n` returns what n single draws
        in a row return.
        """
        n = 1 if size is None else size
        white = _complex_pairs(rng.standard_normal((n, 2, *self.variances.shape)))
        field = (self.uy @ (np.sqrt(self.variances) * white) @ self.ux.T).reshape(n, self.n_presets)
        return field[0] if size is None else field


def _wavenumber_cells(k0: float, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers and edges of the wavenumber cells along one axis.

    Cells of width 2 pi / (q * side) are centered on multiples of the width
    and cover [-k0, k0]; the grid is symmetric about zero.
    """
    dk = 2.0 * np.pi / (_PLANE_WAVE_OVERSAMPLING * side)
    n = int(np.ceil(k0 / dk - 0.5))
    centers = np.arange(-n, n + 1) * dk
    edges = (np.arange(-n, n + 2) - 0.5) * dk
    return centers, edges


def _cell_variances(k0: float, x_edges: np.ndarray, y_edges: np.ndarray) -> np.ndarray:
    """Integral of the planar spectral density over every wavenumber cell.

    The density of the isotropic field on a plane is
    1 / (2 pi k0 sqrt(k0^2 - |k|^2)) inside |k| <= k0 and zero outside; it
    integrates to one. Along ky the integral is arcsin(ky / rho) / (2 pi k0)
    with rho = sqrt(k0^2 - kx^2), clipped at rho; along kx it runs by
    Gauss-Legendre quadrature over the part of each cell inside the disk.
    Returns shape (len(y_edges) - 1, len(x_edges) - 1).
    """
    lo = np.clip(x_edges[:-1], -k0, k0)
    hi = np.clip(x_edges[1:], -k0, k0)
    nodes, weights = np.polynomial.legendre.leggauss(_PLANE_WAVE_NODES)
    half = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    acc = np.zeros((len(y_edges), len(lo)))
    for t, w in zip(nodes, weights):
        rho = np.sqrt(np.maximum(k0**2 - (mid + half * t) ** 2, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rho > 0, y_edges[:, None] / rho, np.sign(y_edges[:, None]))
        acc += w * half * np.arcsin(np.clip(ratio, -1.0, 1.0))
    return np.diff(acc, axis=0) / (2.0 * np.pi * k0)


def plane_wave_field(geom: SurfaceGeometry) -> PlaneWaveField:
    """Plane-wave model of the sinc-correlated field over the preset lattice.

    Each axis gets wavenumber cells of width 2 pi / (q * side) with q = 8
    and side the aperture extent along that axis; each cell's amplitude
    variance is the spectral density's integral over the cell, normalized so
    that the variances sum to one. Memory and time grow with the lattice
    side times the wavenumber count, not with L^2.
    """
    l_h, l_v = geom.lattice_cols, geom.lattice_rows
    if l_h < 2 or l_v < 2:
        raise ValueError(f"degenerate lattice {l_h} x {l_v}; need at least 2 presets per axis")
    k0 = 2.0 * np.pi / geom.wavelength
    kx, x_edges = _wavenumber_cells(k0, geom.a_h)
    ky, y_edges = _wavenumber_cells(k0, geom.a_v)
    variances = _cell_variances(k0, x_edges, y_edges)
    return PlaneWaveField(
        ux=np.exp(1j * np.outer(geom.lattice_x(), kx)),
        uy=np.exp(1j * np.outer(geom.lattice_y(), ky)),
        variances=variances / variances.sum(),
    )


def synthesize_channel(
    geom: SurfaceGeometry,
    f_link: LinkParams,
    r_link: LinkParams,
    t_link: LinkParams,
    rng: np.random.Generator,
    corr: CorrelationModel | PlaneWaveField | None = None,
) -> ChannelRealization:
    """Draw the three channel vectors over the full preset lattice.

    Each link mixes its steering component and a correlated scattered draw
    with Rician weights sqrt(K/(K+1)) and sqrt(1/(K+1)), then applies the
    square-root path loss. The feed hop's BS-side factor is scalar unity
    (single-antenna BS), so its lattice profile is the surface steering alone.
    Deterministic given the rng state; the three scattered fields come from
    one `draw(rng, size=3)` of `corr`, in f, r, t order. `corr` is either
    field model and defaults to the dense sinc model.
    """
    if corr is None:
        corr = correlation_matrix(geom)
    if corr.n_presets != geom.n_presets:
        raise ValueError(
            f"correlation model covers {corr.n_presets} presets, geometry has {geom.n_presets}"
        )
    coords = lattice_points(geom)
    scattered = corr.draw(rng, size=3)

    def mix(link: LinkParams, nlos: np.ndarray) -> np.ndarray:
        los = surface_steering(link.azimuth, link.elevation, coords, geom.wavelength)
        k = link.k_factor
        mixed = np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos
        return np.sqrt(path_loss(link.distance, link.alpha)) * mixed

    return ChannelRealization(
        h_f=mix(f_link, scattered[0]), h_r=mix(r_link, scattered[1]), h_t=mix(t_link, scattered[2])
    )

