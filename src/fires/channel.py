"""Channel synthesis over the preset lattice.

Each of the three links (feed hop into the surface, surface to the reflect
user, surface to the transmit user) is a Rician mix of a deterministic
plane-wave steering component and a spatially correlated scattered field,
scaled by a power-law path loss. The scattered field follows the isotropic
sinc correlation over the preset lattice: two presets a distance d apart have
correlation sinc(2 d / wavelength). Two models draw that field, and both are
built once per geometry and shared by all links:

- `correlation_matrix`: the dense L x L sinc matrix, colored by its
  symmetric square root. It is exact and is the reference. The lattice is
  mirror-symmetric along both axes, so in the per-axis even/odd basis the
  matrix and its square root split into four blocks of about L / 4, each
  a Toeplitz-plus-Hankel sum read straight off the table of lattice
  offsets (Cantoni and Butler, Linear Algebra Appl. 1976). A square
  lattice of equal pitches, as the harness's default 20 x 20 one, is also
  unchanged by swapping its axes (the 20 x 10 lattice of a 2 x 1 m
  aperture, or n_h != n_v on the default aperture, is not); then the
  (odd, even) block is the (even, odd) one with the axes swapped, and the
  (even, even) and (odd, odd) blocks split again into halves of about
  L / 8, each the block plus or minus its column-swapped self (Fässler and
  Stiefel 1992). The model keeps only the roots of these irreducible
  blocks, about L^2 / 8 values (L^2 bytes) on a square lattice of equal
  pitches and L^2 / 4 (2 L^2 bytes) on others, and never forms an L x L
  array. Its build reads, roots and frees one block at a time, so it needs
  the roots so far plus one block's eigendecomposition: at L = 2,500 on
  one core, 0.11-0.12 s on the square lattice against 0.24 s through four
  blocks. A draw is two per-axis fold products, a butterfly over swap
  pairs, a gather through a permutation, one product per root, and the
  inverse gather, the same butterfly and fold products back.
- `plane_wave_field`: a finite sum of plane waves on a wavenumber grid inside
  the visible disk |k| <= 2 pi / wavelength (the Fourier plane-wave model of
  Pizzo, Marzetta and Sanguinetti, IEEE JSAC 2020). Its memory and time grow
  with the lattice side times the wavenumber count, and its covariance stays
  within 1% (relative Frobenius) of the sinc matrix.

Both draw alike: `draw(rng, size)` returns a (size, L) array, and n draws of
`size=1` in a row return what one draw of `size=n` does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .geometry import SurfaceGeometry, lattice_points

# at this lattice size the dense model's roots hold about 64 MB on a square
# lattice of equal pitches (L^2 bytes) and 128 MB on others (2 L^2 bytes);
# its traced build peak is about 0.209 x 8 L^2 and 0.376 x 8 L^2 bytes
# (measured at L = 2,500), the roots so far and one block with its reads or
# its eigendecomposition, a few arrays of 8 (L / 4)^2 bytes; its
# eigendecompositions take time in 3 L^3 / 128 and L^3 / 16
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
    """Dense sinc correlation of a lattice, kept as the square roots of its
    irreducible symmetry blocks.

    In the per-axis even/odd mirror basis (`_fold_matrix`) the L x L matrix
    splits into four blocks, one per pair of row and column parities, each
    read off the offset table in closed form (`_fold_block`). On a lattice
    that is unchanged by swapping its axes (square, of equal pitches) the
    (odd, even) block is the (even, odd) one with the axes swapped, and the
    (even, even) and (odd, odd) blocks split further into a swap-symmetric
    and a swap-antisymmetric half (`_swap_halves`).

    The model holds only `roots` and the lattice `shape`. Where each root's
    coordinates sit is `_block_maps(rows, cols, swap)`, shared by every
    model of that shape, with `swap` true for a model of five roots (rooted
    through the axis swap) and false for one of four.

    Each root is the block's symmetric square root V sqrt(Λ) V^T from its
    eigendecomposition V Λ V^T, with negative eigenvalues clamped to zero.
    Together they are the symmetric square root of the whole matrix, which
    maps i.i.d. unit-variance draws to draws with the sinc covariance, and
    unlike V sqrt(Λ) it does not depend on which eigenvectors the
    decomposition picked among (near-)degenerate ones. On lattices finer
    than half a wavelength the blocks have eigenvalues near zero, clamped
    where rounding makes them negative, so a root is defined only to about
    sqrt(eps): two LAPACK builds, or two exact ways to the same block (the
    swap halves against the whole block, the closed forms against a dense
    fold), give roots up to about 4e-9 apart. On coarser lattices they agree
    to about 1e-15.
    """

    roots: tuple[np.ndarray, ...]  # (k, k) block roots, in coordinate order
    shape: tuple[int, int]  # (lattice_rows, lattice_cols)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` scattered-field draws with the sinc covariance, shape
        (size, L).

        Each draw takes 2 L standard normals, the real parts and then the
        imaginary parts of a circularly symmetric complex white vector with
        unit variance, so `size=n` returns what n draws of `size=1` in a row
        return. Every white field is folded into the mirror basis along both
        axes, its swap pairs are butterflied, its block coordinates are
        gathered and multiplied run by run by their roots, and the result is
        gathered back, butterflied and unfolded onto the lattice.
        """
        rows, cols = self.shape
        runs, to_blocks, from_blocks, pairs = _block_maps(rows, cols, len(self.roots) == 5)
        fold_y, fold_x = _fold_matrix(rows), _fold_matrix(cols)
        white = rng.standard_normal((2 * size, rows, cols))
        folded = (fold_y @ (white.reshape(-1, cols) @ fold_x.T).reshape(-1, rows, cols)).reshape(2 * size, -1)
        _pair_butterfly(folded, pairs)
        coords = np.take(folded, to_blocks, axis=1)  # C-ordered, as the root products' bits need
        start = 0
        for root, count in zip(self.roots, runs):
            stop = start + count * len(root)
            run = coords[:, start:stop].reshape(2 * size * count, len(root))
            coords[:, start:stop] = (run @ root.T).reshape(2 * size, -1)
            start = stop
        folded = np.take(coords, from_blocks, axis=1)
        _pair_butterfly(folded, pairs)
        field = (fold_y.T @ folded.reshape(2 * size, rows, cols)).reshape(-1, cols) @ fold_x
        return _complex_pairs(field.reshape(size, 2, rows * cols))

    def save(self, file) -> None:
        """Write the model to `file`, an open binary file, as one
        uncompressed `.npz` of the shape and each root, `root0` on, so
        `load` gives back the same bits."""
        np.savez(file, shape=np.array(self.shape), **{f"root{i}": root for i, root in enumerate(self.roots)})

    @classmethod
    def load(cls, file, shape: tuple[int, int]) -> CorrelationModel:
        """The model that `save` wrote to `file`, a path or an open binary
        file. Raises ValueError where it does not fit a lattice of `shape`:
        another shape, roots that are not square, or roots whose runs
        (`_block_maps`) do not cover the lattice. zipfile checks every
        array's CRC as it is read, so a damaged file raises too."""
        with np.load(file, allow_pickle=False) as npz:
            stored = tuple(int(n) for n in npz["shape"])
            roots = []
            while f"root{len(roots)}" in npz.files:
                roots.append(npz[f"root{len(roots)}"])
        rows, cols = shape
        swap = len(roots) == 5
        if (
            stored != shape
            or len(roots) not in ((4, 5) if rows == cols else (4,))
            or any(root.ndim != 2 or len(root) != root.shape[1] for root in roots)
            or sum(r * len(root) for r, root in zip(_block_maps(rows, cols, swap)[0], roots)) != rows * cols
        ):
            raise ValueError(f"stored correlation model does not fit a {rows} x {cols} lattice")
        return cls(tuple(roots), shape)


def _pair_butterfly(x: np.ndarray, pairs: np.ndarray) -> None:
    """In place over the columns of an (n, L) array x: each pair (p, q) of
    `pairs` becomes (x[:, p] + x[:, q]) / sqrt(2), (x[:, p] - x[:, q]) / sqrt(2)."""
    upper, lower = np.take(x, pairs, axis=1).transpose(1, 0, 2) * _SQRT_HALF
    x[:, pairs[0]] = upper + lower
    x[:, pairs[1]] = upper - lower


def _complex_pairs(x: np.ndarray) -> np.ndarray:
    """Unit-variance complex values from an (n, 2, ...) array holding the real
    parts at [:, 0] and the imaginary parts at [:, 1]."""
    return (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)


def _symmetric_sqrt(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """From the `eigh` (vals, V) of a symmetric matrix, its symmetric square
    root (V sqrt(vals)) V^T, with negative eigenvalues (numerical noise)
    clamped at zero."""
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


_SQRT_HALF = np.sqrt(0.5)


@cache
def _fold_matrix(n: int) -> np.ndarray:
    """The orthogonal change of basis into the mirror basis of an axis of n,
    with m = n // 2: the even half's rows (e_i + e_(n-1-i)) / sqrt(2) for
    i < m followed, when n is odd, by the center e_m, then the odd half's
    rows (e_i - e_(n-1-i)) / sqrt(2) for i < m. Read-only, as the cache
    shares it."""
    m, k = n // 2, n - n // 2
    i = np.arange(m)
    fold = np.zeros((n, n))
    fold[i, i] = fold[i, n - 1 - i] = fold[k + i, i] = _SQRT_HALF
    fold[k + i, n - 1 - i] = -_SQRT_HALF
    if n % 2:
        fold[m, m] = 1.0
    fold.flags.writeable = False
    return fold


# (odd_y, odd_x) of the four mirror blocks, in the order of the four-block build
_PARITIES = tuple(product((False, True), repeat=2))


def _fold_block(table: np.ndarray, odd_y: bool, odd_x: bool) -> np.ndarray:
    """Mirror block (odd_y, odd_x), shape (k_y, k_x, k_y, k_x), of the
    lattice correlation that is table[|dr|, |dc|] between presets dr rows
    and dc columns apart (`_sinc_table`).

    Along each axis the correlation is Toeplitz and even in its offset, so
    its mirror blocks are Toeplitz-plus-Hankel (Cantoni and Butler, Linear
    Algebra Appl. 1976): along an axis of n, entry (i, i') of a half is
    w_i w_i' [t(i' - i) +- t(n - 1 - i - i')], minus on the odd half, with
    w = 1 / sqrt(2) at the center of an odd axis's even half and 1
    elsewhere. The table is read this way along its columns once per row
    offset, then along its rows one block row at a time, into the block.
    """
    reads = []  # Toeplitz offsets, Hankel offsets and weights of each axis's half
    for n, odd in ((len(table), odd_y), (table.shape[1], odd_x)):
        i = np.arange(n // 2 if odd else n - n // 2)
        reads.append((np.abs(i[:, None] - i), n - 1 - i[:, None] - i, np.where(i < n // 2, 1.0, _SQRT_HALF)))
    (toe_y, hank_y, w_y), (toe_x, hank_x, w_x) = reads
    # (rows, k_x, k_x): one column half per row offset
    across = (np.subtract if odd_x else np.add)(table[:, toe_x], table[:, hank_x]) * np.outer(w_x, w_x)
    pair = np.subtract if odd_y else np.add
    block = np.empty((len(w_y), len(w_x), len(w_y), len(w_x)))
    for i, row in enumerate(block):
        pair(across[toe_y[i]], across[hank_y[i]], out=row.transpose(1, 0, 2))
    block *= np.outer(w_y, w_y)[:, None, :, None]
    return block


def _block_root(table: np.ndarray, odd_y: bool, odd_x: bool) -> np.ndarray:
    """Symmetric square root of mirror block (odd_y, odd_x) (`_fold_block`)
    from its clamped eigendecomposition, shape (k_y k_x, k_y k_x)."""
    block = _fold_block(table, odd_y, odd_x)
    k = block.shape[0] * block.shape[1]
    eig = np.linalg.eigh(block.reshape(k, k))
    del block  # only the eigendecomposition stays alive while it is rooted
    return _symmetric_sqrt(*eig)


def _swap_halves(table: np.ndarray, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """The swap-symmetric and swap-antisymmetric halves of mirror block
    (odd, odd) of a lattice that is unchanged by swapping its axes, of
    h (h + 1) / 2 and h (h - 1) / 2 rows for an h x h quadrant.

    Such a block B commutes with the swap p -> p^T of quadrant coordinates,
    so in the swap basis, e_p on the diagonal and (e_p +- e_(p^T)) / sqrt(2)
    off it, it splits into two halves (Fässler and Stiefel, Group
    Theoretical Methods and Their Applications, 1992), whose couplings are
    rounding noise and are dropped: v_p v_q [B(p, q) + B(p, q^T)] over the
    grid's diagonal and upper triangle, row-major, with v = 1 / sqrt(2) on
    the diagonal and 1 elsewhere, and B(p, q) - B(p, q^T) over its lower
    triangle, row-major.
    """
    block = _fold_block(table, odd, odd)
    upper, lower = np.triu_indices(len(block)), np.tril_indices(len(block), -1)
    halves = []
    for (i, j), pair in ((upper, np.add), (lower, np.subtract)):
        half = block[i[:, None], j[:, None], i, j]
        pair(half, block[i[:, None], j[:, None], j, i], out=half)
        halves.append(half)
    del block
    weight = np.where(upper[0] == upper[1], _SQRT_HALF, 1.0)
    return halves[0] * np.outer(weight, weight), halves[1]


def _mirror_roots(table: np.ndarray, swap: bool) -> tuple[np.ndarray, ...]:
    """`CorrelationModel.roots` of the lattice correlation of `table`
    (`_fold_block`), unchanged by swapping the lattice axes when `swap`.

    Each block, or swap half, is read off the table and rooted by its own
    clamped eigendecomposition before the next one is read, so the build
    holds the roots so far plus one block. Without `swap` the four mirror
    blocks are rooted in the order of `_PARITIES`, for about a sixteenth of
    the work of the whole each. With it the (even, odd) block goes first,
    the build's largest eigendecomposition, and then the swap halves of the
    (even, even) and (odd, odd) blocks (`_swap_halves`).
    """
    if swap:
        roots = [_block_root(table, False, True)]
        for odd in (False, True):
            roots += [_symmetric_sqrt(*np.linalg.eigh(half)) for half in _swap_halves(table, odd)]
        return tuple(roots)
    return tuple(_block_root(table, odd_y, odd_x) for odd_y, odd_x in _PARITIES)


@cache
def _block_maps(rows: int, cols: int, swap: bool) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """Layout of the roots that `_mirror_roots` builds for a rows x cols
    lattice, through the axis swap when `swap`: `runs` and the maps
    `to_blocks`, `from_blocks` and `pairs`, 2 L + 2 P integers, read-only
    as the cache shares them with every model of that shape.

    The block coordinates of a folded field f, flattened row-major over the
    (rows, cols) mirror basis, are read through the permutation `to_blocks`
    after an in-place butterfly (`_pair_butterfly`) over `pairs`, the
    entries (i, j) and (j, i), i < j, of the diagonal quadrants of a
    swap-symmetric lattice, which it turns into their swap-half coordinates;
    there the (odd, even) quadrant is read with its axes swapped, and
    elsewhere `pairs` is empty. After the butterfly, a diagonal quadrant
    holds its swap-symmetric coordinates on and above the diagonal and the
    antisymmetric ones below, in the order of the halves their roots come
    from (`_swap_halves`). The butterfly is symmetric and orthogonal, so the
    way back is `from_blocks`, the inverse permutation, and the same
    butterfly. The coordinates run root by root: root i colors `runs[i]`
    consecutive runs of its size, two for the (even, odd) root of a
    swap-symmetric lattice, which also colors the axis-swapped (odd, even)
    quadrant, and one for every other root.
    """
    half_y, half_x = rows - rows // 2, cols - cols // 2
    grid = np.arange(rows * cols).reshape(rows, cols)
    ys, xs = (slice(half_y), slice(half_y, None)), (slice(half_x), slice(half_x, None))
    quadrants = [grid[ys[odd_y], xs[odd_x]] for odd_y, odd_x in _PARITIES]
    pairs = np.empty((2, 0), dtype=int)
    if swap:
        even, even_odd, odd_even, odd = quadrants
        runs = (2, 1, 1, 1, 1)
        reads = [even_odd, odd_even.T]
        for q in (even, odd):
            i, j = np.triu_indices(len(q), 1)
            reads += [q[np.triu_indices(len(q))], q[np.tril_indices(len(q), -1)]]
            pairs = np.hstack([pairs, (q[i, j], q[j, i])])
    else:
        runs = (1, 1, 1, 1)
        reads = quadrants
    to_blocks = np.concatenate([q.ravel() for q in reads])
    from_blocks = np.empty_like(to_blocks)
    from_blocks[to_blocks] = np.arange(rows * cols)
    for maps in (to_blocks, from_blocks, pairs):
        maps.flags.writeable = False
    return runs, to_blocks, from_blocks, pairs


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the three lattice-wide channel vectors (length L each)."""

    h_f: np.ndarray  # feed hop, BS to surface
    h_r: np.ndarray  # surface to reflect user
    h_t: np.ndarray  # surface to transmit user


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
    i.e. sinc of twice the physical separation in wavelengths. Its mirror
    blocks, and on a square lattice of equal pitches their swap halves, are
    read in closed form off a table of the L_v x L_h nonnegative lattice
    offsets (`_sinc_table`), so no L x L array is formed.
    """
    l_h, l_v = geom.lattice_cols, geom.lattice_rows
    if l_h < 2 or l_v < 2:
        raise ValueError(f"degenerate lattice {l_h} x {l_v}; need at least 2 presets per axis")
    n = geom.n_presets
    if n > DENSE_MAX_PRESETS:
        warnings.warn(
            f"dense correlation model for L={n} presets holds about {n**2 / 1e9:.1f} GB of "
            f"block roots on a square lattice of equal pitches and {2 * n**2 / 1e9:.1f} GB on "
            f"others, and its build peaks near {1.7 * n**2 / 1e9:.1f} and {3.0 * n**2 / 1e9:.1f} "
            f"GB; above {DENSE_MAX_PRESETS} presets use plane_wave_field, as the experiment "
            "harness does",
            RuntimeWarning,
            stacklevel=2,
        )
    table = _sinc_table(geom)
    # a square table that equals its transpose is unchanged by swapping the
    # lattice axes
    swap = l_h == l_v and np.array_equal(table, table.T)
    return CorrelationModel(roots=_mirror_roots(table, swap), shape=(l_v, l_h))


def _sinc_table(geom: SurfaceGeometry) -> np.ndarray:
    """Sinc correlation of two presets dr rows and dc columns apart, at
    [dr, dc] for every dr, dc >= 0, shape (rows, cols). It is even in both
    offsets, so entry ((r, c), (r', c')) of the L x L matrix is
    table[|r' - r|, |c' - c|]."""
    l_h, l_v = geom.lattice_cols, geom.lattice_rows
    dx = np.arange(l_h) * (geom.a_h / (l_h - 1))
    dy = np.arange(l_v) * (geom.a_v / (l_v - 1))
    return np.sinc(2.0 / geom.wavelength * np.hypot(dx[None, :], dy[:, None]))


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
    def shape(self) -> tuple[int, int]:
        """(lattice_rows, lattice_cols)"""
        return self.uy.shape[0], self.ux.shape[0]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` scattered-field draws over the lattice, shape (size, L).

        Each draw takes the real and then the imaginary parts of its
        amplitudes from the stream, so `size=n` returns what n draws of
        `size=1` in a row return.
        """
        white = _complex_pairs(rng.standard_normal((size, 2, *self.variances.shape)))
        return (self.uy @ (np.sqrt(self.variances) * white) @ self.ux.T).reshape(size, -1)


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
    corr: CorrelationModel | PlaneWaveField,
) -> ChannelRealization:
    """Draw the three channel vectors over the full preset lattice.

    Each link mixes its steering component and a correlated scattered draw
    with Rician weights sqrt(K/(K+1)) and sqrt(1/(K+1)), then applies the
    square-root path loss. The feed hop's BS-side factor is scalar unity
    (single-antenna BS), so its lattice profile is the surface steering alone.
    Deterministic given the rng state; the three scattered fields come from
    one `draw(rng, size=3)` of `corr`, in f, r, t order. `corr` is either
    field model of this geometry's lattice shape.
    """
    if corr.shape != (geom.lattice_rows, geom.lattice_cols):
        raise ValueError(
            f"correlation model covers {corr.shape[0]} x {corr.shape[1]} presets, "
            f"geometry has {geom.lattice_rows} x {geom.lattice_cols}"
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

