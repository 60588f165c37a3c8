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


@dataclass(frozen=True)
class SurfaceGeometry:
    """Immutable description of the aperture, its subareas, and the preset lattice."""

    a_h: float  # aperture width (m)
    a_v: float  # aperture height (m)
    n_subareas: int  # number of fluid elements (= subareas)
    n_h: int  # presets per subarea row
    n_v: int  # presets per subarea column
    d_min: float  # minimum element spacing (m)
    wavelength: float  # carrier wavelength (m)
    grid_cols: int | None = None  # subarea grid shape, horizontal and vertical;
    grid_rows: int | None = None  # both None infers square cells (subarea_grid_shape)

    def __post_init__(self):
        if self.a_h <= 0 or self.a_v <= 0:
            raise ValueError(f"aperture extents must be positive, got {self.a_h} x {self.a_v}")
        if self.n_subareas < 1:
            raise ValueError(f"need at least one subarea, got {self.n_subareas}")
        if self.grid_cols is None and self.grid_rows is None:
            cols, rows = subarea_grid_shape(self.a_h, self.a_v, self.n_subareas)
            object.__setattr__(self, "grid_cols", cols)
            object.__setattr__(self, "grid_rows", rows)
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
    def _presets(self) -> np.ndarray:
        """See `subarea_presets`."""
        _, _, lo, _, _ = self._subarea_tables
        rows, cols = np.divmod(np.arange(self.n_h * self.n_v), self.n_h)  # in-block offsets
        flats = (lo[:, 1, None] + rows) * self.lattice_cols + lo[:, 0, None] + cols
        flats.flags.writeable = False
        return flats

    @cached_property
    def blocked_offsets(self) -> np.ndarray:
        """Boolean table of the lattice offsets (dr, dc) at which two presets
        lie closer than d_min (strictly): dr^2 py^2 + dc^2 px^2 < d_min^2 for
        row and column pitches py and px. Shape (2 R + 1, 2 C + 1), centered
        on (0, 0), with R and C the largest row and column offsets shorter
        than d_min; read-only, and built once per geometry."""
        # per axis, the offsets from the first lattice line shorter than d_min
        dy, dx = ((c - c[0])[c - c[0] < self.d_min] for c in (self.lattice_y(), self.lattice_x()))
        quadrant = dy[:, None] ** 2 + dx**2 < self.d_min * self.d_min
        rows, cols = (np.abs(np.arange(1 - len(d), len(d))) for d in (dy, dx))
        table = quadrant[rows[:, None], cols]
        table.flags.writeable = False
        return table

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


def subarea_grid_shape(a_h: float, a_v: float, m: int) -> tuple[int, int]:
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
    cols, rows = grid or (None, None)
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


def subarea_presets(geom: SurfaceGeometry) -> np.ndarray:
    """0-based global flat indices of every subarea's presets, (M, n_h * n_v):
    row i holds element i's presets in ascending order. Read-only, and shared
    by every caller with this geometry; `preset_points` gives coordinates."""
    return geom._presets


def preset_points(geom: SurfaceGeometry, idx) -> np.ndarray:
    """(..., 2) coordinates of 0-based global flat preset indices."""
    rows, cols = np.divmod(idx, geom.lattice_cols)
    return np.stack([geom.lattice_x()[cols], geom.lattice_y()[rows]], axis=-1)


def lattice_points(geom: SurfaceGeometry) -> np.ndarray:
    """(L, 2) coordinates of every preset, ordered by global flat index."""
    return preset_points(geom, np.arange(geom.n_presets))


def clamp_to_subareas(positions: np.ndarray, geom: SurfaceGeometry) -> np.ndarray:
    """Clamp (..., M, 2) positions so element i stays inside subarea i + 1."""
    lo, hi = subarea_corners(geom)
    positions = np.asarray(positions, dtype=float)
    if positions.shape[-2] != geom.n_subareas:
        raise ValueError(
            f"expected {geom.n_subareas} element positions, got {positions.shape[-2]}"
        )
    return np.minimum(np.maximum(positions, lo), hi)


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


def preset_violations(idx: np.ndarray, geom: SurfaceGeometry) -> int:
    """Number of unordered pairs among the (M,) flat presets `idx` closer
    than d_min (strictly), read off `SurfaceGeometry.blocked_offsets`."""
    blocked = geom.blocked_offsets
    r, c = np.array(blocked.shape) // 2
    rows, cols = np.divmod(idx, geom.lattice_cols)
    dr, dc = np.abs(rows[:, None] - rows), np.abs(cols[:, None] - cols)
    hits = blocked[np.minimum(dr, r) + r, np.minimum(dc, c) + c] & (dr <= r) & (dc <= c)
    # each element is counted once against itself, and every pair twice
    return (int(hits.sum()) - len(idx)) // 2


def clear_presets(geom: SurfaceGeometry, i: int, others: np.ndarray) -> np.ndarray:
    """Mask over element i's presets, in ascending flat index, of those at
    least d_min from every flat preset in `others`: each of those blocks the
    part inside element i's subarea of the `blocked_offsets` window on it."""
    blocked = geom.blocked_offsets
    span_r, span_c = blocked.shape
    clear = np.ones((geom.n_v, geom.n_h), dtype=bool)
    # top-left corner of each window, in rows and columns of the subarea
    corners = np.divmod(others, geom.lattice_cols) - geom._subarea_tables[2][i][::-1, None]
    for top, left in (corners - np.array([[span_r], [span_c]]) // 2).T.tolist():
        r0, r1 = max(top, 0), min(top + span_r, geom.n_v)
        c0, c1 = max(left, 0), min(left + span_c, geom.n_h)
        if r0 < r1 and c0 < c1:
            clear[r0:r1, c0:c1][blocked[r0 - top : r1 - top, c0 - left : c1 - left]] = False
    return clear.ravel()


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
    # nearest lattice (column, row), half-way cases to the smaller index
    nearest = np.ceil(positions / pitch - 0.5).astype(np.int64)
    cr = np.minimum(np.maximum(nearest, lo), hi)
    return cr[..., 1] * geom.lattice_cols + cr[..., 0]
