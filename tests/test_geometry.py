import math

import numpy as np
import pytest

from fires.geometry import (
    Placement,
    clamp_to_subareas,
    lattice_points,
    pair_violation_counts,
    partition_surface,
    placement_in_subareas,
    preset_grid,
    snap_to_lattice,
    snap_to_subarea_presets,
    spacing_violations,
    subarea_bounds,
)
from helpers import preset_flat_indices

WL = 0.0856  # ~3.5 GHz carrier


def square_geom(n_subareas=4, n=2, a=2.0, **kw):
    return partition_surface(a, a, n_subareas, WL, n_h=n, n_v=n, **kw)


class TestPartition:
    def test_even_split_of_square(self):
        geom = square_geom(4)
        assert geom.grid_cols == geom.grid_rows == 2
        assert geom.subarea_w == geom.subarea_h == 1.0
        assert subarea_bounds(geom, 1) == (0.0, 0.0, 1.0, 1.0)
        assert subarea_bounds(geom, 2) == (1.0, 0.0, 2.0, 1.0)
        assert subarea_bounds(geom, 3) == (0.0, 1.0, 1.0, 2.0)

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
        for m in range(1, 10):
            x_lo, y_lo, x_hi, y_hi = subarea_bounds(geom, m)
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

    def test_subarea_index_out_of_range(self):
        geom = square_geom(4)
        for m in (0, 5):
            with pytest.raises(ValueError):
                preset_grid(geom, m)


class TestIndexMapping:
    """Presets are numbered row-major over the whole lattice: the preset in
    1-based column n_h and row n_v of an l_h-wide lattice is number
    (n_v - 1) * l_h + n_h; the snapping functions return that number - 1."""

    def test_first_element(self):
        geom = square_geom(4, n=3)
        assert preset_flat_indices(geom, 1)[0] == 1
        assert snap_to_lattice(np.zeros(2), geom) == 0

    def test_row_major_formula(self):
        geom = partition_surface(2.0, 1.0, 2, WL, n_h=5, n_v=5)  # 10 x 5 lattice
        assert geom.lattice_cols == 10
        column_3_row_2 = (geom.lattice_x()[2], geom.lattice_y()[1])
        assert snap_to_lattice(np.array(column_3_row_2), geom) + 1 == 13
        assert np.array_equal(lattice_points(geom)[12], column_3_row_2)

    def test_round_trip_full_lattice(self):
        geom = partition_surface(7.0, 5.0, 35, WL, n_h=1, n_v=1)  # 7 x 5 lattice
        assert (geom.lattice_cols, geom.lattice_rows) == (7, 5)
        assert np.array_equal(snap_to_lattice(lattice_points(geom), geom), np.arange(35))


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
        for _ in range(50):
            batch = rng.uniform(-3, 5, size=(9, 2))
            once = clamp_to_subareas(batch, geom)
            assert np.array_equal(clamp_to_subareas(once, geom), once)
            for m in range(1, 10):
                x_lo, y_lo, x_hi, y_hi = subarea_bounds(geom, m)
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
        for i in range(6):
            for m in range(1, 5):
                x_lo, y_lo, x_hi, y_hi = subarea_bounds(geom, m)
                x, y = batch[i, m - 1]
                expect = (min(max(x, x_lo), x_hi), min(max(y, y_lo), y_hi))
                assert np.array_equal(clamped[i, m - 1], expect)


class TestSpacing:
    def test_exactly_d_apart_is_feasible(self):
        pl = Placement(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert spacing_violations(pl, 1.0) == 0

    def test_single_close_pair(self):
        pl = Placement(np.array([[0.0, 0.0], [0.25, 0.0], [5.0, 5.0]]))
        assert spacing_violations(pl, 0.5) == 1

    def test_single_element(self):
        assert spacing_violations(Placement(np.array([[1.0, 1.0]])), 10.0) == 0

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
            assert spacing_violations(Placement(pos), d) == expect
            perm = rng.permutation(m)
            assert spacing_violations(Placement(pos[perm]), d) == expect

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
        assert snap_to_lattice(pos[:1], geom)[0] == 2

    def test_snap_matches_exhaustive_nearest(self):
        geom = square_geom(4, n=4)
        rng = np.random.default_rng(8)
        grid = lattice_points(geom)
        for _ in range(25):
            pos = np.empty((4, 2))
            for m in range(1, 5):
                x_lo, y_lo, x_hi, y_hi = subarea_bounds(geom, m)
                pos[m - 1] = [rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)]
            got = snap_to_subarea_presets(pos, geom)
            for m in range(1, 5):
                block = preset_flat_indices(geom, m) - 1
                dists = np.linalg.norm(grid[block] - pos[m - 1], axis=1)
                best = block[np.argmin(dists)]
                assert got[m - 1] == best

    def test_placement_validation(self):
        geom = square_geom(4)
        centers = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        assert placement_in_subareas(Placement(centers), geom)
        bad = centers.copy()
        bad[0] = [1.7, 0.5]  # inside subarea 2, not 1
        assert not placement_in_subareas(Placement(bad), geom)
