import math
from dataclasses import replace

import numpy as np
import pytest

from fires.geometry import (
    clamp_to_subareas,
    clear_presets,
    lattice_points,
    pair_violation_counts,
    partition_surface,
    preset_points,
    preset_violations,
    snap_to_subarea_presets,
    subarea_corners,
    subarea_presets,
)
from fires.harness import ExperimentConfig, geometry_from_config
from helpers import placement_in_subareas, preset_flat_indices, preset_grid

WL = 0.0856  # ~3.5 GHz carrier


def square_geom(n_subareas=4, n=2, a=2.0, **kw):
    return partition_surface(a, a, n_subareas, WL, n_h=n, n_v=n, **kw)


class TestPartition:
    def test_even_split_of_square(self):
        geom = square_geom(4)
        assert geom.grid_cols == geom.grid_rows == 2
        assert geom.subarea_w == geom.subarea_h == 1.0
        lo, hi = subarea_corners(geom)
        corners = np.hstack([lo, hi]).tolist()  # rows (x_lo, y_lo, x_hi, y_hi)
        assert corners[0] == [0.0, 0.0, 1.0, 1.0]
        assert corners[1] == [1.0, 0.0, 2.0, 1.0]
        assert corners[2] == [0.0, 1.0, 1.0, 2.0]

    def test_nine_subareas(self):
        geom = square_geom(9)
        assert geom.grid_cols == geom.grid_rows == 3
        assert np.isclose(geom.subarea_w, 2.0 / 3.0)
        assert np.isclose(geom.subarea_h, 2.0 / 3.0)

    def test_no_square_factorization_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            square_geom(5)

    def test_explicit_grid_override(self):
        geom = square_geom(2, grid=(2, 1))
        assert (geom.grid_cols, geom.grid_rows) == (2, 1)
        assert geom.subarea_w == 1.0 and geom.subarea_h == 2.0

    def test_rectangular_aperture(self):
        geom = partition_surface(2.0, 1.0, 8, WL)
        assert (geom.grid_cols, geom.grid_rows) == (4, 2)
        assert np.isclose(geom.subarea_w, geom.subarea_h)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            partition_surface(-1.0, 2.0, 4, WL)
        with pytest.raises(ValueError):
            partition_surface(2.0, 2.0, 0, WL)
        with pytest.raises(ValueError):
            partition_surface(2.0, 2.0, 4, -WL)
        with pytest.raises(ValueError):
            square_geom(4, grid=(3, 1))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("a_h", 0.0, "aperture extents"),
            ("a_v", -1.0, "aperture extents"),
            ("n_subareas", 0, "at least one subarea"),
            ("grid_cols", 3, "does not hold 4 subareas"),
            ("n_h", 0, "preset counts"),
            ("n_v", 0, "preset counts"),
            ("d_min", 0.0, "minimum spacing"),
            ("wavelength", -WL, "wavelength"),
        ],
    )
    def test_bad_geometry_fields_rejected(self, field, value, match):
        # partition_surface checks some of these before the geometry does
        with pytest.raises(ValueError, match=match):
            replace(square_geom(4), **{field: value})

    def test_areas_tile_exactly(self):
        for m in (1, 4, 9, 16):
            geom = square_geom(m)
            total = geom.n_subareas * geom.subarea_w * geom.subarea_h
            assert np.isclose(total, geom.a_h * geom.a_v, rtol=1e-12)


class TestPresetLattice:
    def test_smallest_grid(self):
        geom = square_geom(4, n=2)
        pts = preset_grid(geom, 1)
        # uniform 2x2 sub-lattice of subarea 1, on the global lattice pitch
        expect = np.array([[0, 0], [2 / 3, 0], [0, 2 / 3], [2 / 3, 2 / 3]])
        assert np.allclose(pts, expect)

    def test_union_is_full_lattice(self):
        geom = square_geom(4, n=3)
        all_pts = np.vstack([preset_grid(geom, m) for m in range(1, 5)])
        assert all_pts.shape[0] == geom.n_presets == 4 * 9
        assert len({(round(x, 12), round(y, 12)) for x, y in all_pts}) == geom.n_presets
        # and it matches the flat-ordered global lattice
        flat = np.concatenate([preset_flat_indices(geom, m) for m in range(1, 5)])
        assert sorted(flat) == list(range(1, geom.n_presets + 1))
        grid = lattice_points(geom)
        for m in range(1, 5):
            assert np.allclose(grid[preset_flat_indices(geom, m) - 1], preset_grid(geom, m))

    def test_each_preset_inside_its_subarea(self):
        geom = square_geom(9, n=4)
        lo, hi = subarea_corners(geom)
        for m in range(1, 10):
            (x_lo, y_lo), (x_hi, y_hi) = lo[m - 1], hi[m - 1]
            pts = preset_grid(geom, m)
            assert np.all(pts[:, 0] >= x_lo - 1e-12) and np.all(pts[:, 0] <= x_hi + 1e-12)
            assert np.all(pts[:, 1] >= y_lo - 1e-12) and np.all(pts[:, 1] <= y_hi + 1e-12)

    def test_lattice_spans_aperture(self):
        geom = square_geom(4, n=5)
        assert geom.lattice_x()[0] == 0.0 and np.isclose(geom.lattice_x()[-1], geom.a_h)
        assert geom.lattice_y()[0] == 0.0 and np.isclose(geom.lattice_y()[-1], geom.a_v)

    def test_large_preset_count(self):
        geom = square_geom(4, n=100)
        assert preset_grid(geom, 1).shape == (10_000, 2)


class TestIndexMapping:
    """Presets are numbered row-major over the whole lattice: the preset in
    1-based column n_h and row n_v of an l_h-wide lattice is number
    (n_v - 1) * l_h + n_h; the snapping function returns that number - 1."""

    def test_first_element(self):
        geom = square_geom(4, n=3)
        assert preset_flat_indices(geom, 1)[0] == 1
        assert snap_to_subarea_presets(np.zeros((4, 2)), geom)[0] == 0

    def test_row_major_formula(self):
        geom = partition_surface(2.0, 1.0, 2, WL, n_h=5, n_v=5)  # 10 x 5 lattice
        assert geom.lattice_cols == 10
        column_3_row_2 = (geom.lattice_x()[2], geom.lattice_y()[1])
        in_subarea_2 = (1.5, 0.5)
        assert snap_to_subarea_presets(np.array([column_3_row_2, in_subarea_2]), geom)[0] + 1 == 13
        assert np.array_equal(lattice_points(geom)[12], column_3_row_2)
        assert np.array_equal(preset_points(geom, 12), column_3_row_2)

    def test_round_trip_full_lattice(self):
        # one preset per subarea, so the subarea snap is the global one
        geom = partition_surface(7.0, 5.0, 35, WL, n_h=1, n_v=1)  # 7 x 5 lattice
        assert (geom.lattice_cols, geom.lattice_rows) == (7, 5)
        assert np.array_equal(snap_to_subarea_presets(lattice_points(geom), geom), np.arange(35))
        assert np.array_equal(preset_points(geom, np.arange(35)), lattice_points(geom))


class TestProjection:
    """clamp_to_subareas is the Euclidean projection of each element onto
    its own subarea's rectangle."""

    @staticmethod
    def project(q, m, geom):
        positions = np.tile(np.asarray(q, dtype=float), (geom.n_subareas, 1))
        return clamp_to_subareas(positions, geom)[m - 1]

    def test_inside_unchanged(self):
        geom = square_geom(4)
        p = self.project((0.3, 0.7), 1, geom)
        assert np.allclose(p, (0.3, 0.7))

    def test_clamp_semantics(self):
        geom = square_geom(4)
        # subarea 2 occupies [1, 2] x [0, 1]; point left of its x-range
        p = self.project((0.4, 0.7), 2, geom)
        assert np.allclose(p, (1.0, 0.7))

    def test_idempotent(self):
        geom = square_geom(9)
        rng = np.random.default_rng(3)
        lo, hi = subarea_corners(geom)
        for _ in range(50):
            batch = rng.uniform(-3, 5, size=(9, 2))
            once = clamp_to_subareas(batch, geom)
            assert np.array_equal(clamp_to_subareas(once, geom), once)
            for m in range(1, 10):
                (x_lo, y_lo), (x_hi, y_hi) = lo[m - 1], hi[m - 1]
                assert x_lo <= once[m - 1, 0] <= x_hi and y_lo <= once[m - 1, 1] <= y_hi

    def test_projection_is_nearest_point(self):
        geom = square_geom(4)
        rng = np.random.default_rng(4)
        pts = preset_grid(geom, 3)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            q = rng.uniform(-2, 4, size=2)
            p = self.project(q, m, geom)
            # no preset of the rectangle is closer than the projection
            for cand in preset_grid(geom, m):
                assert math.dist(q, p) <= math.dist(q, cand) + 1e-12
        assert pts.shape == (4, 2)

    def test_batched_clamp_matches_scalar(self):
        geom = square_geom(4)
        rng = np.random.default_rng(5)
        batch = rng.uniform(-1, 3, size=(6, 4, 2))
        clamped = clamp_to_subareas(batch, geom)
        lo, hi = subarea_corners(geom)
        for i in range(6):
            for m in range(1, 5):
                (x_lo, y_lo), (x_hi, y_hi) = lo[m - 1], hi[m - 1]
                x, y = batch[i, m - 1]
                expect = (min(max(x, x_lo), x_hi), min(max(y, y_lo), y_hi))
                assert np.array_equal(clamped[i, m - 1], expect)


class TestSpacing:
    def test_exactly_d_apart_is_feasible(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert pair_violation_counts(pos[None], 1.0)[0] == 0

    def test_single_close_pair(self):
        pos = np.array([[0.0, 0.0], [0.25, 0.0], [5.0, 5.0]])
        assert pair_violation_counts(pos[None], 0.5)[0] == 1

    def test_single_element(self):
        assert pair_violation_counts(np.array([[[1.0, 1.0]]]), 10.0)[0] == 0

    def test_matches_double_loop_and_permutation_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            m = int(rng.integers(2, 8))
            pos = rng.uniform(0, 1, size=(m, 2))
            d = float(rng.uniform(0.05, 0.8))
            expect = sum(
                1
                for i in range(m)
                for j in range(i + 1, m)
                if math.dist(pos[i], pos[j]) < d
            )
            assert pair_violation_counts(pos[None], d)[0] == expect
            perm = rng.permutation(m)
            assert pair_violation_counts(pos[perm][None], d)[0] == expect

    @pytest.mark.parametrize("m", range(1, 17))
    def test_batched_count_matches_pair_loop(self, m):
        # quarter-meter grid points (exact in binary, so some pairs sit exactly
        # d_min apart along an axis, or coincide) mixed with off-grid points
        rng = np.random.default_rng(100 + m)
        d_min = 0.25
        batch = rng.integers(0, 5, size=(40, m, 2)) * d_min
        off_grid = rng.random((40, m)) < 0.3
        batch[off_grid] = rng.uniform(0.0, 1.0, size=(int(off_grid.sum()), 2))
        batch[0] = 0.0  # every element coincides
        batch[1] = np.stack([np.arange(m) * d_min, np.zeros(m)], axis=-1)  # a d_min row
        counts = pair_violation_counts(batch, d_min)
        assert counts.shape == (40,)
        for row, count in zip(batch, counts):
            expect = 0
            for i in range(m):
                for j in range(i + 1, m):
                    expect += math.dist(row[i], row[j]) < d_min
            assert count == expect
        assert counts[0] == m * (m - 1) // 2 and counts[1] == 0


# geometries of the usual CLI command set, of the benchmark workloads and of
# the reference-density acceptance checks: (config overrides, area in m^2)
SPACING_GEOMETRIES = [
    pytest.param({}, area, id=f"default-{area or 4:g}m2") for area in (None, 1.0, 16.0)
] + [
    pytest.param({"n_subareas": 9, "m_hat": 9}, area, id=f"m9-{area or 4:g}m2")
    for area in (None, 1.0, 16.0)
] + [
    pytest.param({"n_h": 25, "n_v": 25}, None, id="25x25-4m2"),
    pytest.param({"n_h": 45, "n_v": 45}, None, id="45x45-4m2"),
    pytest.param({"n_h": 4, "n_v": 4}, 1.0, id="4x4-1m2"),
] + [
    pytest.param({"n_h": 100, "n_v": 100}, area, id=f"100x100-{area:g}m2") for area in (1.0, 4.0, 16.0)
]


class TestPresetSpacing:
    """Spacing between presets is read off a table of blocked lattice
    offsets; it must decide every pair as the swarm's float distance check
    does."""

    @pytest.mark.parametrize("overrides, area", SPACING_GEOMETRIES)
    def test_offset_table_matches_float_distances(self, overrides, area):
        geom = geometry_from_config(ExperimentConfig(**overrides), area)
        blocked = geom.blocked_offsets
        assert np.array_equal(blocked, blocked[::-1, ::-1])
        r, c = np.array(blocked.shape) // 2
        pts = lattice_points(geom).reshape(geom.lattice_rows, geom.lattice_cols, 2)
        rows, cols = pts.shape[:2]
        ties = 0
        # every pair at every offset of the window and of the ring around it
        for dr in range(min(r + 1, rows - 1) + 1):
            for dc in range(-min(c + 1, cols - 1), min(c + 1, cols - 1) + 1):
                near = pts[: rows - dr, max(-dc, 0) : cols - max(dc, 0)].reshape(-1, 2)
                far = pts[dr:, max(dc, 0) : cols + min(dc, 0)].reshape(-1, 2)
                hit = pair_violation_counts(np.stack([near, far], axis=1), geom.d_min) == 1
                assert np.all(hit == (dr <= r and abs(dc) <= c and blocked[dr + r, dc + c]))
                ties += np.count_nonzero(((near - far) ** 2).sum(axis=-1) == geom.d_min * geom.d_min)
        assert ties == 0  # no preset pair of these geometries sits exactly d_min apart

    def test_presets_exactly_d_min_apart_are_clear(self):
        # pitch 0.25 and d_min 0.5, both exact in binary
        geom = partition_surface(1.0, 1.0, 1, WL, n_h=5, n_v=5, d_min=0.5)
        assert geom.blocked_offsets.tolist() == [[True] * 3] * 3
        assert preset_violations(np.array([0, 2]), geom) == 0  # two columns apart
        assert preset_violations(np.array([0, 6]), geom) == 1  # one diagonal step
        assert clear_presets(geom, 0, np.array([12])).reshape(5, 5)[1:4, 1:4].sum() == 0
        assert clear_presets(geom, 0, np.array([12])).sum() == 25 - 9

    @pytest.mark.parametrize("d_min", [WL / 2, 0.5, 0.9, 10.0])
    def test_clear_presets_and_violations_match_float_distances(self, d_min):
        geom = square_geom(9, n=5, a=3.0, d_min=d_min)
        flats = subarea_presets(geom)
        coords = preset_points(geom, flats)
        rng = np.random.default_rng(9)
        for _ in range(20):
            idx = flats[np.arange(9), rng.integers(0, 25, size=9)]
            pts = preset_points(geom, idx)
            assert preset_violations(idx, geom) == pair_violation_counts(pts[None], d_min)[0]
            i = int(rng.integers(0, 9))
            others = np.delete(idx, i)
            dd = ((coords[i][:, None, :] - pts[np.arange(9) != i]) ** 2).sum(axis=-1)
            assert np.array_equal(clear_presets(geom, i, others), np.all(dd >= d_min**2, axis=1))


class TestSnapping:
    def test_snap_identity_on_lattice(self):
        geom = square_geom(4, n=3)
        # one placement per lattice point of each subarea, element m sitting on it
        for k in range(geom.n_h * geom.n_v):
            pos = np.stack([preset_grid(geom, m)[k] for m in range(1, 5)])
            idx = snap_to_subarea_presets(pos, geom)
            expect = np.array([preset_flat_indices(geom, m)[k] - 1 for m in range(1, 5)])
            assert np.all(idx == expect)

    def test_snap_stable_under_small_perturbation(self):
        geom = square_geom(4, n=3)
        rng = np.random.default_rng(7)
        pitch = geom.a_h / (geom.lattice_cols - 1)
        base = np.stack([preset_grid(geom, m)[4] for m in range(1, 5)])
        idx = snap_to_subarea_presets(base, geom)
        for _ in range(20):
            jitter = rng.uniform(-0.49, 0.49, size=base.shape) * pitch
            assert np.all(snap_to_subarea_presets(base + jitter, geom) == idx)

    def test_tie_goes_to_smaller_flat_index(self):
        geom = square_geom(1, n=3, a=1.0)  # single subarea, 3x3 lattice on [0,1]^2
        pitch = 0.5
        mid = np.array([[pitch / 2, 0.0]])  # halfway between columns 0 and 1
        assert snap_to_subarea_presets(mid[None, :, :], geom)[0, 0] == 0
        mid_both = np.array([[pitch / 2, pitch / 2]])
        assert snap_to_subarea_presets(mid_both[None, :, :], geom)[0, 0] == 0

    def test_snap_restricted_to_own_subarea(self):
        # a point near the shared boundary may be globally nearest to the
        # neighboring subarea's preset; the element lookup must stay in-block
        geom = partition_surface(1.0, 1.0, 3, WL, n_h=2, n_v=1, grid=(3, 1))
        # lattice columns at x = 0, .2, .4, .6, .8, 1; subarea 1 is x in [0, 1/3]
        pos = np.array([[0.32, 0.5], [0.5, 0.5], [0.9, 0.5]])
        idx = snap_to_subarea_presets(pos, geom)
        assert idx[0] == 1  # in-block column 1 (x=0.2), not global-nearest x=0.4
        assert np.argmin(np.linalg.norm(lattice_points(geom) - pos[0], axis=1)) == 2

    def test_snap_matches_exhaustive_nearest(self):
        geom = square_geom(4, n=4)
        rng = np.random.default_rng(8)
        grid = lattice_points(geom)
        lo, hi = subarea_corners(geom)
        for _ in range(25):
            pos = np.empty((4, 2))
            for m in range(1, 5):
                (x_lo, y_lo), (x_hi, y_hi) = lo[m - 1], hi[m - 1]
                pos[m - 1] = [rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)]
            got = snap_to_subarea_presets(pos, geom)
            for m in range(1, 5):
                block = preset_flat_indices(geom, m) - 1
                dists = np.linalg.norm(grid[block] - pos[m - 1], axis=1)
                best = block[np.argmin(dists)]
                assert got[m - 1] == best

    @pytest.mark.parametrize("lookup", [clamp_to_subareas, snap_to_subarea_presets])
    def test_element_count_must_match_the_subareas(self, lookup):
        with pytest.raises(ValueError, match="expected 4 element positions, got 3"):
            lookup(np.full((2, 3, 2), 0.5), square_geom(4))

    def test_placement_validation(self):
        geom = square_geom(4)
        centers = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        assert placement_in_subareas(centers, geom)
        bad = centers.copy()
        bad[0] = [1.7, 0.5]  # inside subarea 2, not 1
        assert not placement_in_subareas(bad, geom)
