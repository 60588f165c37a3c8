"""Aperture partitioning, preset lattices, clamping and snapping, and
spacing checks.

The radiating aperture is a rectangle split into a grid of non-overlapping
subareas, one movable element per subarea. Every subarea carries the same
n_h x n_v grid of preset positions, laid out so that the union over all
subareas is a single uniform lattice spanning the whole aperture (endpoints
inclusive). Subareas are numbered row-major and 1-based; the snapping
functions return 0-based flat indices, row-major, ready to index the lattice
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# how far (m) outside its subarea an element may sit and still count as inside
_SUBAREA_TOL = 1e-9


@dataclass(frozen=True)
class SurfaceGeometry:
    """Immutable description of the aperture, its subareas, and the preset lattice."""

    a_h: float  # aperture width (m)
    a_v: float  # aperture height (m)
    n_subareas: int  # number of fluid elements (= subareas)
    grid_cols: int  # subarea grid shape, horizontal
    grid_rows: int  # subarea grid shape, vertical
    n_h: int  # presets per subarea row
    n_v: int  # presets per subarea column
    d_min: float  # minimum element spacing (m)
    wavelength: float  # carrier wavelength (m)

    def __post_init__(self):
        if self.a_h <= 0 or self.a_v <= 0:
            raise ValueError(f"aperture extents must be positive, got {self.a_h} x {self.a_v}")
        if self.n_subareas < 1:
            raise ValueError(f"need at least one subarea, got {self.n_subareas}")
        if self.grid_cols * self.grid_rows != self.n_subareas:
            raise ValueError(
                f"subarea grid {self.grid_cols} x {self.grid_rows} does not hold "
                f"{self.n_subareas} subareas"
            )
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError(f"preset counts must be positive, got {self.n_h} x {self.n_v}")
        if self.d_min <= 0:
            raise ValueError(f"minimum spacing must be positive, got {self.d_min}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @property
    def lattice_cols(self) -> int:
        """Presets per row of the full aperture."""
        return self.grid_cols * self.n_h

    @property
    def lattice_rows(self) -> int:
        """Presets per column of the full aperture."""
        return self.grid_rows * self.n_v

    @property
    def n_presets(self) -> int:
        """Total preset count over the whole aperture."""
        return self.n_subareas * self.n_h * self.n_v

    @property
    def subarea_w(self) -> float:
        return self.a_h / self.grid_cols

    @property
    def subarea_h(self) -> float:
        return self.a_v / self.grid_rows

    @cached_property
    def _subarea_tables(self) -> tuple[np.ndarray, ...]:
        """Per-subarea constants, row-major and read-only, shape (M, 2) each:
        lower and upper corners, the 0-based lattice (column, row) of the
        lower and upper corner presets (inclusive), and the lattice pitch (m)
        along each axis.

        The pitch is the same for every subarea; repeated per subarea, it
        divides a (..., M, 2) batch in long elementwise loops. Along an axis
        with a single preset it is infinite, which puts every point in index
        0. Built on first use and kept with the (frozen) geometry, because
        the swarm clamps and snaps against these on every iteration.
        """
        srows, scols = np.divmod(np.arange(self.n_subareas), self.grid_cols)
        pitch = [
            extent / (count - 1) if count > 1 else np.inf
            for extent, count in ((self.a_h, self.lattice_cols), (self.a_v, self.lattice_rows))
        ]
        tables = (
            np.stack([scols * self.subarea_w, srows * self.subarea_h], axis=-1),
            np.stack([(scols + 1) * self.subarea_w, (srows + 1) * self.subarea_h], axis=-1),
            np.stack([scols * self.n_h, srows * self.n_v], axis=-1),
            np.stack([(scols + 1) * self.n_h - 1, (srows + 1) * self.n_v - 1], axis=-1),
            np.tile(pitch, (self.n_subareas, 1)),
        )
        for table in tables:
            table.flags.writeable = False
        return tables

    @cached_property
    def _presets(self) -> tuple[np.ndarray, np.ndarray]:
        """See `subarea_presets`."""
        _, _, lo, _, _ = self._subarea_tables
        rows, cols = np.divmod(np.arange(self.n_h * self.n_v), self.n_h)  # in-block offsets
        flats = (lo[:, 1, None] + rows) * self.lattice_cols + lo[:, 0, None] + cols
        coords = lattice_points(self)[flats]
        for table in (coords, flats):
            table.flags.writeable = False
        return coords, flats

    def lattice_x(self) -> np.ndarray:
        """x coordinate of each lattice column, spanning [0, a_h] inclusive."""
        if self.lattice_cols == 1:
            return np.array([self.a_h / 2.0])
        return np.arange(self.lattice_cols) * (self.a_h / (self.lattice_cols - 1))

    def lattice_y(self) -> np.ndarray:
        """y coordinate of each lattice row, spanning [0, a_v] inclusive."""
        if self.lattice_rows == 1:
            return np.array([self.a_v / 2.0])
        return np.arange(self.lattice_rows) * (self.a_v / (self.lattice_rows - 1))


@dataclass(frozen=True, eq=False)
class Placement:
    """Candidate element positions, one (x, y) pair per subarea (meters).

    positions[i] belongs to subarea i + 1 (row-major numbering). A placement
    is allowed to violate the minimum-spacing constraint; feasibility is a
    queryable property so that optimizers can explore and penalize.
    """

    positions: np.ndarray  # (M, 2) float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (M, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", pos)


def _subarea_grid_shape(a_h: float, a_v: float, m: int) -> tuple[int, int]:
    """Infer a (cols, rows) factorization of m giving square subareas.

    cols/rows = a_h/a_v exactly, so cols^2 = m * a_h / a_v. At most one
    divisor pair qualifies; anything else is rejected rather than guessed.
    """
    target = m * a_h / a_v
    cols = round(math.sqrt(target))
    for c in {cols, cols - 1, cols + 1}:
        if c >= 1 and m % c == 0:
            r = m // c
            if math.isclose(c * a_v, r * a_h, rel_tol=1e-9):
                return c, r
    raise ValueError(
        f"no subarea grid with square cells tiles a {a_h} x {a_v} aperture with {m} "
        f"subareas; pass grid=(cols, rows) explicitly"
    )


def partition_surface(
    a_h: float,
    a_v: float,
    n_subareas: int,
    wavelength: float,
    *,
    n_h: int = 10,
    n_v: int = 10,
    d_min: float | None = None,
    grid: tuple[int, int] | None = None,
) -> SurfaceGeometry:
    """Partition an a_h x a_v aperture into n_subareas equal rectangles.

    Without an explicit `grid`, the factorization is inferred so that subareas
    come out square (perfect-square counts on square apertures); counts with
    no such factorization raise. `d_min` defaults to half a wavelength.
    """
    if a_h <= 0 or a_v <= 0:
        raise ValueError(f"aperture extents must be positive, got {a_h} x {a_v}")
    if n_subareas < 1:
        raise ValueError(f"need at least one subarea, got {n_subareas}")
    if grid is None:
        cols, rows = _subarea_grid_shape(a_h, a_v, n_subareas)
    else:
        cols, rows = grid
    return SurfaceGeometry(
        a_h=a_h,
        a_v=a_v,
        n_subareas=n_subareas,
        grid_cols=cols,
        grid_rows=rows,
        n_h=n_h,
        n_v=n_v,
        d_min=wavelength / 2.0 if d_min is None else d_min,
        wavelength=wavelength,
    )


def subarea_corners(geom: SurfaceGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (M, 2) lower and upper corners of every subarea, row-major;
    read-only arrays shared by every caller with this geometry."""
    return geom._subarea_tables[:2]


def subarea_presets(geom: SurfaceGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Every subarea's presets, row-major by subarea and ascending flat index
    within one: coordinates (M, n_h * n_v, 2) and 0-based global flat
    indices (M, n_h * n_v). Read-only arrays shared by every caller with this
    geometry."""
    return geom._presets


def lattice_points(geom: SurfaceGeometry) -> np.ndarray:
    """(L, 2) coordinates of every preset, ordered by global flat index."""
    xx, yy = np.meshgrid(geom.lattice_x(), geom.lattice_y())
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


def clamp_to_subareas(positions: np.ndarray, geom: SurfaceGeometry) -> np.ndarray:
    """Clamp (..., M, 2) positions so element i stays inside subarea i + 1."""
    lo, hi = subarea_corners(geom)
    positions = np.asarray(positions, dtype=float)
    if positions.shape[-2] != geom.n_subareas:
        raise ValueError(
            f"expected {geom.n_subareas} element positions, got {positions.shape[-2]}"
        )
    return np.minimum(np.maximum(positions, lo), hi)


def placement_in_subareas(placement: Placement, geom: SurfaceGeometry) -> bool:
    """True when every element lies inside its own subarea, up to
    `_SUBAREA_TOL` meters."""
    if len(placement.positions) != geom.n_subareas:
        return False
    lo, hi = subarea_corners(geom)
    pos = placement.positions
    return bool(np.all(pos >= lo - _SUBAREA_TOL) and np.all(pos <= hi + _SUBAREA_TOL))


def pair_violation_counts(positions: np.ndarray, d_min: float) -> np.ndarray:
    """Number of unordered element pairs closer than d_min (strictly) in
    each placement of a (n, M, 2) batch, shape (n,)."""
    n, m, _ = positions.shape
    # (2, M, n): per axis, one contiguous row of placements per element, so
    # every elementwise loop below runs along the batch
    xy = positions.transpose(2, 1, 0).copy()
    sq = xy[:, :, None, :] - xy[:, None, :, :]
    sq *= sq
    d2 = sq[0]
    d2 += sq[1]
    # every pair is counted twice, and each element once against itself
    # (distance 0 < d_min)
    return ((d2 < d_min * d_min).reshape(m * m, n).sum(axis=0) - m) // 2


def spacing_violations(placement: Placement, d_min: float) -> int:
    """Number of unordered element pairs closer than d_min (strictly)."""
    return int(pair_violation_counts(placement.positions[None], d_min)[0])


def _nearest_col_row(points: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """Nearest lattice (column, row) of (..., 2) points, unclipped, shape
    (..., 2), for a lattice pitch that broadcasts against the points;
    half-way cases go to the smaller index."""
    return np.ceil(points / pitch - 0.5).astype(np.int64)


def snap_to_lattice(points: np.ndarray, geom: SurfaceGeometry) -> np.ndarray:
    """Nearest global preset for (..., 2) points -> 0-based flat indices.

    Ties resolve to the smaller flat index (smaller row, then column).
    """
    cols = geom.lattice_cols
    pitch = geom._subarea_tables[4][0]  # the same for every subarea
    cr = _nearest_col_row(np.asarray(points, dtype=float), pitch)
    cr = np.minimum(np.maximum(cr, 0), (cols - 1, geom.lattice_rows - 1))
    return cr[..., 1] * cols + cr[..., 0]


def snap_to_subarea_presets(positions: np.ndarray, geom: SurfaceGeometry) -> np.ndarray:
    """Nearest preset of each element's own subarea for (..., M, 2) positions.

    Returns 0-based global flat indices, shape (..., M). Ties resolve to the
    smaller flat index. Clamping the unrestricted nearest column/row into the
    subarea's block range yields the nearest in-block preset because distance
    grows monotonically away from the unrestricted optimum.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape[-2] != geom.n_subareas:
        raise ValueError(
            f"expected {geom.n_subareas} element positions, got {positions.shape[-2]}"
        )
    _, _, lo, hi, pitch = geom._subarea_tables
    cr = np.minimum(np.maximum(_nearest_col_row(positions, pitch), lo), hi)
    return cr[..., 1] * geom.lattice_cols + cr[..., 0]
