import io
import tracemalloc

import numpy as np
import pytest

from fires import channel
from fires.channel import (
    _PARITIES,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    _block_maps,
    _fold_block,
    _fold_matrix,
    _sinc_table,
    _swap_halves,
    _symmetric_sqrt,
    correlation_matrix,
    path_loss,
    plane_wave_field,
    surface_steering,
    synthesize_channel,
)
from fires.geometry import partition_surface
from fires.harness import ExperimentConfig, geometry_from_config
from fires.rate import amplitude_weights, lattice_rates
from helpers import (
    WL,
    DenseModel,
    block_layout,
    block_root,
    channel_batches,
    coordinate_runs,
    default_links,
    dense_coloring,
    dense_mirror_blocks,
    dense_mirror_roots,
    dense_swap_halves,
    evaluate,
    folded_matrix,
    mean_link_powers,
    model_from_matrix,
    offset_covariance,
    preset_flat_indices,
    preset_grid,
    rate_report,
    sinc_matrix,
)


def tiny_geom(n=2, a=None, m=1):
    # single-subarea lattice with controllable pitch
    side = a if a is not None else WL / 2
    return partition_surface(side, side, m, WL, n_h=n, n_v=n)


class TestSteering:
    def test_origin_has_zero_phase(self):
        assert surface_steering(0.7, 0.3, np.array([[0.0, 0.0]]), WL)[0] == 1 + 0j

    def test_half_wavelength_broadside(self):
        v = surface_steering(np.pi / 2, 0.0, np.array([[WL / 2, 0.0]]), WL)
        assert np.allclose(v, [-1.0 + 0j], atol=1e-12)

    def test_full_period_wrap(self):
        v = surface_steering(0.0, np.pi / 2, np.array([[0.0, WL]]), WL)
        assert np.allclose(v, [1.0 + 0j], atol=1e-12)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ValueError, match="wavelength must be positive"):
            surface_steering(0.7, 0.3, np.zeros((1, 2)), 0.0)

    def test_unit_modulus(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(-3, 3, size=(200, 2))
        v = surface_steering(rng.uniform(0, np.pi), rng.uniform(0, np.pi), pos, WL)
        assert np.allclose(np.abs(v), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("k_factor", -1.0, "Rician factor"),
        ("distance", 0.0, "distance"),
        ("alpha", 0.0, "path-loss exponent"),
    ],
)
def test_bad_link_rejected(field, value, match):
    params = dict(k_factor=5.0, distance=100.0, alpha=2.5, azimuth=0.3, elevation=0.2)
    with pytest.raises(ValueError, match=match):
        LinkParams(**{**params, field: value})


def test_dense_model_above_its_cap_warns(monkeypatch):
    # the cap lowered to 15 presets, so that a 4 x 4 lattice is above it
    monkeypatch.setattr(channel, "DENSE_MAX_PRESETS", 15)
    with pytest.warns(RuntimeWarning, match="above 15 presets use plane_wave_field"):
        model = correlation_matrix(tiny_geom(n=4))
    assert model.shape == (4, 4)


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss(1.0, 2.5) == 1.0

    def test_reference_values(self):
        assert np.isclose(path_loss(100.0, 2.5), 1e-5, rtol=1e-12)
        assert np.isclose(path_loss(200.0, 2.5), 1.7677669529663689e-06, rtol=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 2.5)


LATTICES = [
    partition_surface(2.0, 2.0, 4, WL, n_h=5, n_v=5),  # 10 x 10, even sides
    partition_surface(1.0, 1.0, 1, WL, n_h=9, n_v=9),  # 9 x 9, odd sides
    partition_surface(1.5, 1.0, 3, WL, n_h=3, n_v=8, grid=(3, 1)),  # 8 rows x 9 cols
    partition_surface(1.0, 2.0, 2, WL, n_h=7, n_v=3, grid=(1, 2)),  # 6 rows x 7 cols
]
LATTICE_IDS = ["10x10", "9x9", "8x9-grid3x1", "6x7-grid1x2"]


def window_matrix(geom):
    """The L x L matrix that `correlation_matrix` reads off its offset table."""
    rows, cols = np.divmod(np.arange(geom.n_presets), geom.lattice_cols)
    return _sinc_table(geom)[np.abs(rows[:, None] - rows), np.abs(cols[:, None] - cols)]


class TestCorrelation:
    def test_unit_diagonal_and_symmetric(self):
        r = window_matrix(tiny_geom(n=4, a=3 * WL))
        assert np.allclose(np.diag(r), 1.0)
        assert np.allclose(r, r.T)

    def test_half_wavelength_pitch_decorrelates(self):
        r = window_matrix(tiny_geom(n=2, a=WL / 2))
        assert abs(r[0, 1]) < 1e-12  # sinc at integer argument

    def test_quarter_wavelength_pitch(self):
        r = window_matrix(tiny_geom(n=2, a=WL / 4))
        assert np.isclose(r[0, 1], 2 / np.pi, rtol=1e-12)

    def test_eigvals_clamped_and_reconstruction(self):
        # eigenvalues -1 and 1: the root of the clamped matrix, not a NaN
        root = _symmetric_sqrt(*np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert not np.any(np.isnan(root))
        assert np.allclose(root @ root, 0.5, rtol=0, atol=1e-15)
        geom = tiny_geom(n=5, a=WL)
        corr, r = correlation_matrix(geom), sinc_matrix(geom)
        coloring = dense_coloring(corr)
        rebuilt = coloring @ coloring.T
        rel = np.linalg.norm(rebuilt - r) / np.linalg.norm(r)
        assert rel < 1e-8

    @pytest.mark.parametrize("geom", LATTICES, ids=LATTICE_IDS)
    def test_offset_table_is_the_broadcast_matrix(self, geom):
        assert np.array_equal(window_matrix(geom), sinc_matrix(geom))

    @pytest.mark.parametrize("geom", LATTICES, ids=LATTICE_IDS)
    def test_mirror_blocks_give_the_symmetric_square_root(self, geom):
        corr, r = correlation_matrix(geom), sinc_matrix(geom)
        full = model_from_matrix(r)
        root = dense_coloring(corr)
        assert np.max(np.abs(root - full.coloring)) <= 1e-9
        blocks = [_fold_block(_sinc_table(geom), *parity) for parity in _PARITIES]
        block_vals = np.sort(np.concatenate([np.linalg.eigvalsh(b.reshape(len(b) * b.shape[1], -1)) for b in blocks]))
        assert np.max(np.abs(block_vals - np.linalg.eigvalsh(r))) <= 1e-12
        assert np.max(np.abs(root - root.T)) <= 1e-12
        rel = np.linalg.norm(root @ root.T - r) / np.linalg.norm(r)
        assert rel <= 1e-8

    def test_coloring_is_basis_invariant(self):
        # the default lattice has near-degenerate eigenpairs, on which an
        # eigenvector coloring depends on the decomposition; the symmetric
        # square root of a relabelled lattice is the relabelled square root
        geom = partition_surface(2.0, 2.0, 4, WL, n_h=10, n_v=10)
        coloring = dense_coloring(correlation_matrix(geom))
        perm = np.random.default_rng(8).permutation(geom.n_presets)
        permuted = model_from_matrix(sinc_matrix(geom)[np.ix_(perm, perm)])
        assert np.max(np.abs(permuted.coloring - coloring[np.ix_(perm, perm)])) <= 1e-12

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            correlation_matrix(partition_surface(1.0, 1.0, 1, WL, n_h=1, n_v=3))


BUILD_LATTICES = [
    tiny_geom(n=2),
    tiny_geom(n=6, a=WL),
    tiny_geom(n=7, a=WL),
    partition_surface(2.0, 2.0, 4, WL, n_h=15, n_v=15),
    partition_surface(2.0, 2.0, 1, WL, n_h=49, n_v=49),
    partition_surface(2.0, 2.0, 4, WL, n_h=25, n_v=25),
    *LATTICES[2:],
    partition_surface(1.5, 1.0, 4, WL, n_h=5, n_v=5, grid=(2, 2)),  # 10 x 10, unequal pitches
]
BUILD_LATTICE_IDS = ["2x2", "6x6", "7x7", "30x30", "49x49", "50x50", *LATTICE_IDS[2:], "10x10-1.5x1"]


def pitches(geom):
    """(row pitch, column pitch) of the lattice, m."""
    return geom.a_v / (geom.lattice_rows - 1), geom.a_h / (geom.lattice_cols - 1)


def swaps_axes(geom):
    """Whether the lattice is unchanged by swapping its axes: square, with
    equal pitches."""
    row_pitch, col_pitch = pitches(geom)
    return geom.lattice_rows == geom.lattice_cols and row_pitch == col_pitch


SWAP_LATTICES = [g for g in BUILD_LATTICES if swaps_axes(g)]
SWAP_LATTICE_IDS = [i for g, i in zip(BUILD_LATTICES, BUILD_LATTICE_IDS) if swaps_axes(g)]


def axis_swap(geom):
    """The preset relabelling (r, c) -> (c, r) of a square lattice, as flat
    indices."""
    return np.arange(geom.n_presets).reshape(geom.lattice_rows, -1).T.ravel()


class TestBlockAtATimeBuild:
    """Each mirror block, read off the offset table as a Toeplitz-plus-Hankel
    sum, is the dense sinc matrix carried into the mirror basis by the fold
    matrices, up to rounding, and so is each swap half. Where the lattice is
    unchanged by swapping its axes, the build roots one block whole and two
    through their swap halves, and the (even, odd) root also colors the
    (odd, even) quadrant read with its axes swapped."""

    @pytest.mark.parametrize("geom", BUILD_LATTICES, ids=BUILD_LATTICE_IDS)
    def test_blocks_match_the_dense_fold(self, geom):
        table = _sinc_table(geom)
        blocks = list(dense_mirror_blocks(geom))
        reads = [(_fold_block(table, *parity), block) for parity, block in zip(_PARITIES, blocks, strict=True)]
        if swaps_axes(geom):
            halves = [*dense_swap_halves(blocks[0]), *dense_swap_halves(blocks[3])]
            reads += zip([*_swap_halves(table, False), *_swap_halves(table, True)], halves)
            blocks = [blocks[1], *halves]  # the irreducible ones, in the order of the roots
        for got, expect in reads:
            # within a few ulp of the block's largest entry
            scale = np.abs(expect).max(initial=0.0)
            assert np.abs(got - expect).max(initial=0.0) <= 8 * np.finfo(float).eps * scale
        # finer than half a wavelength, the blocks' near-zero eigenvalues are
        # clamped and a root is defined only to about sqrt(eps)
        tol = 1e-8 if min(pitches(geom)) < WL / 2 else 1e-13
        for root, block in zip(correlation_matrix(geom).roots, blocks, strict=True):
            assert np.abs(root - block_root(block)).max(initial=0.0) <= tol

    @pytest.mark.parametrize("geom", SWAP_LATTICES, ids=SWAP_LATTICE_IDS)
    def test_coloring_is_unchanged_by_swapping_the_axes(self, geom):
        coloring = dense_coloring(correlation_matrix(geom))
        swap = axis_swap(geom)
        assert np.max(np.abs(coloring[np.ix_(swap, swap)] - coloring)) <= 1e-15

    @pytest.mark.parametrize("geom", BUILD_LATTICES, ids=BUILD_LATTICE_IDS)
    def test_each_root_squared_is_its_folded_block(self, geom):
        corr = correlation_matrix(geom)
        folded = folded_matrix(corr.shape, dense_mirror_blocks(geom))
        for root, block in coordinate_runs(corr, folded):
            assert np.linalg.norm(root @ root - block) <= 1e-12 * np.linalg.norm(block)

    @pytest.mark.parametrize("geom", SWAP_LATTICES, ids=SWAP_LATTICE_IDS)
    def test_roots_match_the_four_block_roots(self, geom):
        # finer than half a wavelength, the blocks' near-zero eigenvalues are
        # clamped and a root is defined only to about sqrt(eps)
        corr = correlation_matrix(geom)
        roots = dense_mirror_roots(geom)
        tol = 1e-8 if pitches(geom)[0] < WL / 2 else 1e-13
        for root, expect in coordinate_runs(corr, folded_matrix(corr.shape, roots)):
            assert np.abs(root - expect).max(initial=0.0) <= tol


@pytest.mark.parametrize("n", range(1, 13))
def test_fold_matrix_holds_the_exact_mirror_rows(n):
    # a draw folds through these entries, exactly +-sqrt(1/2), 1 and 0, so
    # the draws of a model move only with its roots
    eye, m = np.eye(n), n // 2
    even = [(eye[i] + eye[n - 1 - i]) * np.sqrt(0.5) for i in range(m)] + [eye[m]] * (n % 2)
    odd = [(eye[i] - eye[n - 1 - i]) * np.sqrt(0.5) for i in range(m)]
    assert np.array_equal(_fold_matrix(n), np.array(even + odd))


class TestBlockMaps:
    """A draw reads the block coordinates through one permutation after a
    butterfly over the swap pairs of the two diagonal quadrants. The layout
    is worked out once per lattice shape and swap, and shared."""

    @pytest.mark.parametrize("geom", BUILD_LATTICES, ids=BUILD_LATTICE_IDS)
    def test_to_blocks_is_a_permutation_and_from_blocks_its_inverse(self, geom):
        _, to_blocks, from_blocks, _ = block_layout(correlation_matrix(geom))
        every = np.arange(geom.n_presets)
        assert np.array_equal(np.sort(to_blocks), every)
        assert np.array_equal(from_blocks[to_blocks], every)
        assert np.array_equal(to_blocks[from_blocks], every)

    @pytest.mark.parametrize("geom", BUILD_LATTICES, ids=BUILD_LATTICE_IDS)
    def test_pairs_mirror_each_other_in_the_diagonal_quadrants(self, geom):
        corr = correlation_matrix(geom)
        pairs = block_layout(corr)[3]
        rows, cols = corr.shape
        # five roots exactly where the lattice is unchanged by the axis swap
        assert (len(corr.roots) == 5) == swaps_axes(geom)
        if not swaps_axes(geom):
            assert pairs.size == 0
            return
        assert len(np.unique(pairs)) == pairs.size
        half = rows - rows // 2
        (i, j), (i_t, j_t) = (np.divmod(p, cols) for p in pairs)
        odd = i >= half
        # both positions in one quadrant, (even, even) or (odd, odd)
        assert np.array_equal(j >= half, odd) and np.array_equal(i_t >= half, odd)
        i, j = i - half * odd, j - half * odd
        assert np.all(i < j)
        assert np.array_equal(i_t - half * odd, j) and np.array_equal(j_t - half * odd, i)
        # every entry above the diagonal of both quadrants
        assert pairs.shape[1] == half * (half - 1) // 2 + (rows // 2) * (rows // 2 - 1) // 2

    @pytest.mark.parametrize("swap", [True, False])
    def test_layout_is_read_only_and_shared(self, swap):
        layout = _block_maps(6, 6, swap)
        assert _block_maps(6, 6, swap) is layout
        for array in layout[1:]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_an_area_sweep_shares_one_layout(self):
        # M = 9 over 1, 4 and 16 m^2: three geometries of one 30 x 30 lattice
        # shape, whose draws read one layout object
        cfg = ExperimentConfig(sweep="area", n_subareas=9, m_hat=9)
        layouts = []
        for area in cfg.area_sweep_m2:
            corr = correlation_matrix(geometry_from_config(cfg, area))
            assert corr.shape == (30, 30) and len(corr.roots) == 5
            layouts.append(block_layout(corr))
        assert len(layouts) == 3 and all(layout is layouts[0] for layout in layouts)


# a lattice rooted through the axis swap and one of unequal pitches, rooted
# through the four mirror blocks
SAVED_LATTICES = [
    pytest.param(BUILD_LATTICES[2], 5, id="7x7-swap"),
    pytest.param(BUILD_LATTICES[-1], 4, id="10x10-unequal-pitch"),
]


class TestSavedModel:
    """`save` writes the lattice shape and the roots; `load` works the
    layout out again from the shape and the root count, and refuses a file
    that does not fit the lattice."""

    @staticmethod
    def members(corr):
        return {"shape": np.array(corr.shape), **{f"root{i}": root for i, root in enumerate(corr.roots)}}

    @staticmethod
    def npz(**arrays):
        file = io.BytesIO()
        np.savez(file, **arrays)
        file.seek(0)
        return file

    @pytest.mark.parametrize("geom, roots", SAVED_LATTICES)
    def test_load_gives_back_the_built_model_and_its_draws(self, geom, roots):
        built = correlation_matrix(geom)
        file = io.BytesIO()
        built.save(file)
        file.seek(0)
        assert sorted(np.load(file).files) == sorted(self.members(built))
        file.seek(0)
        loaded = CorrelationModel.load(file, built.shape)
        assert loaded.shape == built.shape and len(loaded.roots) == roots
        for a, b in zip(loaded.roots, built.roots, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        got, want = (m.draw(np.random.default_rng(5), size=3) for m in (loaded, built))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("geom, roots", SAVED_LATTICES)
    @pytest.mark.parametrize(
        "damage", ["last-root-dropped", "first-root-dropped", "non-square-root", "another-shape", "wider-lattice"]
    )
    def test_a_file_that_does_not_fit_raises_value_error(self, geom, roots, damage):
        corr = correlation_matrix(geom)
        arrays = self.members(corr)
        shape = corr.shape
        if damage == "last-root-dropped":
            del arrays[f"root{roots - 1}"]
        elif damage == "first-root-dropped":
            del arrays["root0"]
        elif damage == "non-square-root":
            arrays["root1"] = corr.roots[1][:, :-1]
        elif damage == "another-shape":  # a whole model of a 6 x 6 lattice
            arrays = self.members(correlation_matrix(BUILD_LATTICES[1]))
        else:  # the same roots stored and loaded as a lattice two columns wider
            shape = (shape[0], shape[1] + 2)
            arrays["shape"] = np.array(shape)
        with pytest.raises(ValueError, match="does not fit"):
            CorrelationModel.load(self.npz(**arrays), shape)

    def test_a_file_without_its_shape_raises(self):
        corr = correlation_matrix(BUILD_LATTICES[2])
        arrays = self.members(corr)
        del arrays["shape"]
        with pytest.raises(KeyError):
            CorrelationModel.load(self.npz(**arrays), corr.shape)


class TestNlosField:
    def test_identity_covariance(self):
        rng = np.random.default_rng(21)
        corr = model_from_matrix(np.eye(25))
        draws = corr.draw(rng, size=100_000)
        sample = draws.conj().T @ draws / draws.shape[0]
        rel = np.linalg.norm(sample - np.eye(25)) / np.linalg.norm(np.eye(25))
        assert rel < 0.05

    def test_general_covariance(self):
        rng = np.random.default_rng(22)
        geom = tiny_geom(n=5, a=WL)
        corr, r = correlation_matrix(geom), sinc_matrix(geom)
        draws = corr.draw(rng, size=100_000)
        sample = draws.conj().T @ draws / draws.shape[0]
        rel = np.linalg.norm(sample - r) / np.linalg.norm(r)
        assert rel < 0.05

    def test_batch_equals_single_draws_in_a_row(self):
        corr = correlation_matrix(LATTICES[2])
        batch = corr.draw(np.random.default_rng(4), size=3)
        rng = np.random.default_rng(4)
        singles = np.concatenate([corr.draw(rng, size=1) for _ in range(3)])
        assert batch.shape == (3, LATTICES[2].n_presets)
        assert np.max(np.abs(batch - singles)) <= 1e-12

    @pytest.mark.parametrize("geom", LATTICES, ids=LATTICE_IDS)
    def test_draw_is_the_dense_coloring_of_the_same_stream(self, geom):
        corr = correlation_matrix(geom)
        dense = DenseModel(coloring=dense_coloring(corr))
        got = corr.draw(np.random.default_rng(9), size=3)
        expect = dense.draw(np.random.default_rng(9), size=3)
        assert np.max(np.abs(got - expect)) <= 1e-13

    def test_all_zero_eigenvalues_give_zero_field(self):
        corr = model_from_matrix(np.zeros((4, 4)))
        out = corr.draw(np.random.default_rng(0), size=1)
        assert np.allclose(out, 0.0)


class TestDenseModelFootprint:
    """The dense model keeps only its irreducible block roots and builds
    without an L x L array: each block is read off the offset table in place
    and rooted before the next."""

    def test_dense_lattice_stores_an_eighth_of_l_squared_root_values(self):
        # the dense-lattice benchmark geometry: 25 x 25 presets per subarea
        geom = geometry_from_config(ExperimentConfig(n_h=25, n_v=25))
        n = geom.n_presets
        assert n == 2500
        corr = correlation_matrix(geom)
        # one root of 625 rows and two pairs of swap halves of 325 and 300
        assert [len(root) for root in corr.roots] == [625, 325, 300, 325, 300]
        assert sum(root.size for root in corr.roots) <= n**2 / 8 + n

    @staticmethod
    def build_peak(geom):
        """Traced peak bytes of building the model, and L."""
        tracemalloc.start()
        try:
            correlation_matrix(geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, geom.n_presets

    PEAK_LATTICES = [
        partition_surface(2.0, 2.0, 4, WL, n_h=25, n_v=25),
        partition_surface(2.0, 2.0, 1, WL, n_h=49, n_v=49),
    ]
    PEAK_LATTICE_IDS = ["50x50-dense-lattice", "49x49-odd-sides"]

    @pytest.mark.parametrize("geom", PEAK_LATTICES, ids=PEAK_LATTICE_IDS)
    def test_build_peak_at_most_one_l_by_l_matrix(self, geom):
        peak, n = self.build_peak(geom)
        assert peak <= 8 * n**2

    @pytest.mark.parametrize("geom", PEAK_LATTICES, ids=PEAK_LATTICE_IDS)
    def test_build_peak_is_the_roots_and_one_block(self, geom):
        # the roots take an eighth of 8 L^2 bytes and one block's
        # eigendecomposition a few sixteenths
        peak, n = self.build_peak(geom)
        assert peak <= 0.65 * 8 * n**2

    def test_dense_lattice_build_peak_below_the_four_block_build(self):
        # the swap-symmetric build's traced peak is 0.209 x 8 L^2 bytes at
        # L = 2,500, with 7% headroom: the (odd, odd) block and the reads of
        # its swap halves beside the three roots kept so far; the four-block
        # build's is 0.375 on this lattice
        peak, n = self.build_peak(self.PEAK_LATTICES[0])
        assert peak <= 0.225 * 8 * n**2

    def test_unequal_pitch_build_peak_is_three_roots_and_one_block(self):
        # a 50 x 50 lattice of unequal pitches takes the four-block path; each
        # root is allocated when it is rooted, so the last block's
        # eigendecomposition runs beside three roots, not four: the traced
        # peak is 0.376 x 8 L^2 bytes, with 11% headroom (0.439 when all
        # four padded roots were allocated up front)
        peak, n = self.build_peak(partition_surface(2.0, 1.9, 4, WL, n_h=25, n_v=25, grid=(2, 2)))
        assert peak <= 0.418 * 8 * n**2


def sinc_offset_error(geom, field: PlaneWaveField) -> float:
    """Relative Frobenius distance between the field's covariance and the
    sinc matrix, summed over lattice offsets weighted by how many preset
    pairs share each offset; equals the L x L norm without forming it."""
    rows, cols = geom.lattice_rows, geom.lattice_cols
    dr = np.arange(1 - rows, rows)[:, None]
    dc = np.arange(1 - cols, cols)[None, :]
    dist = np.hypot(dc * geom.a_h / (cols - 1), dr * geom.a_v / (rows - 1))
    ref = np.sinc(2.0 / geom.wavelength * dist)
    mult = (rows - np.abs(dr)) * (cols - np.abs(dc))
    diff = offset_covariance(field) - ref
    return float(np.sqrt(np.sum(mult * np.abs(diff) ** 2) / np.sum(mult * ref**2)))


class TestPlaneWaveField:
    @pytest.mark.parametrize(
        "area, m, n",
        [
            (4.0, 4, 10),  # L = 400, the default lattice
            (4.0, 4, 20),  # L = 1,600
            (4.0, 4, 50),  # L = 10,000, the harness test's plane-wave lattice
            (1.0, 4, 100),  # L = 40,000: the reference density at every swept area
            (4.0, 4, 100),
            (16.0, 4, 100),
        ],
    )
    def test_covariance_within_one_percent_of_sinc(self, area, m, n):
        side = np.sqrt(area)
        geom = partition_surface(side, side, m, WL, n_h=n, n_v=n)
        assert sinc_offset_error(geom, plane_wave_field(geom)) <= 0.01

    def test_offset_covariance_matches_dense_matrix(self):
        geom = tiny_geom(n=4, a=2 * WL, m=4)  # L = 64
        field = plane_wave_field(geom)
        r = sinc_matrix(geom)
        rows, cols = geom.lattice_rows, geom.lattice_cols
        rr, cc = np.divmod(np.arange(geom.n_presets), cols)
        implied = offset_covariance(field)[
            rr[:, None] - rr[None, :] + rows - 1, cc[:, None] - cc[None, :] + cols - 1
        ]
        dense = np.linalg.norm(implied - r) / np.linalg.norm(r)
        assert np.isclose(dense, sinc_offset_error(geom, field), rtol=1e-9)

    def test_every_preset_has_unit_variance(self):
        geom = partition_surface(2.0, 2.0, 4, WL, n_h=12, n_v=12)
        field = plane_wave_field(geom)
        per_preset = np.abs(field.uy) ** 2 @ field.variances @ (np.abs(field.ux) ** 2).T
        assert per_preset.shape == (geom.lattice_rows, geom.lattice_cols)
        assert np.allclose(per_preset, 1.0, rtol=1e-12)
        assert np.all(field.variances >= 0)

    def test_same_generator_same_draws(self):
        geom = partition_surface(1.0, 1.0, 4, WL, n_h=6, n_v=6)
        field = plane_wave_field(geom)
        a = field.draw(np.random.default_rng(3), size=2)
        b = field.draw(np.random.default_rng(3), size=2)
        assert a.shape == (2, geom.n_presets)
        assert np.array_equal(a, b)
        single = field.draw(np.random.default_rng(3), size=1)
        assert single.shape == (1, geom.n_presets)
        assert not np.array_equal(single, field.draw(np.random.default_rng(4), size=1))

    def test_batch_equals_single_draws_in_a_row(self):
        field = plane_wave_field(partition_surface(1.0, 1.0, 4, WL, n_h=6, n_v=6))
        batch = field.draw(np.random.default_rng(3), size=3)
        rng = np.random.default_rng(3)
        assert np.array_equal(batch, np.concatenate([field.draw(rng, size=1) for _ in range(3)]))

    def test_sampled_covariance(self):
        geom = tiny_geom(n=5, a=WL)
        field = plane_wave_field(geom)
        draws = field.draw(np.random.default_rng(23), size=20_000)
        sample = draws.conj().T @ draws / draws.shape[0]
        r = sinc_matrix(geom)
        assert np.linalg.norm(sample - r) / np.linalg.norm(r) < 0.05

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            plane_wave_field(partition_surface(1.0, 1.0, 1, WL, n_h=1, n_v=3))


class TestSynthesis:
    def test_pure_los_limit(self):
        geom = tiny_geom(n=3, a=WL)
        links = [
            LinkParams(k_factor=1e12, distance=d, alpha=2.5, azimuth=a, elevation=e)
            for d, a, e in [(100.0, 0.3, 0.2), (200.0, 1.0, 0.5), (200.0, 2.0, 1.2)]
        ]
        real = synthesize_channel(geom, *links, rng=np.random.default_rng(1), corr=correlation_matrix(geom))
        assert np.allclose(np.abs(real.h_f), np.sqrt(path_loss(100.0, 2.5)), rtol=1e-4)
        assert np.allclose(np.abs(real.h_r), np.sqrt(path_loss(200.0, 2.5)), rtol=1e-4)

    def test_pure_nlos_limit(self):
        geom = tiny_geom(n=3, a=WL)
        corr = correlation_matrix(geom)
        links = [
            LinkParams(k_factor=0.0, distance=100.0, alpha=2.5, azimuth=0.3, elevation=0.2)
        ] * 3
        rng = np.random.default_rng(5)
        real = synthesize_channel(geom, *links, rng=rng, corr=corr)
        # same stream replayed by hand: the mix must be exactly sqrt(l) * nlos
        rng2 = np.random.default_rng(5)
        expect = np.sqrt(path_loss(100.0, 2.5)) * corr.draw(rng2, size=1)[0]
        assert np.allclose(real.h_f, expect)

    def test_rician_weights_normalized(self):
        for k in (0.0, 0.3, 1.0, 5.0, 1e6):
            assert np.isclose(k / (k + 1.0) + 1.0 / (k + 1.0), 1.0, rtol=1e-12)

    def test_deterministic_given_seed(self):
        geom = tiny_geom(n=3, a=WL)
        corr = correlation_matrix(geom)
        links = default_links()
        a = synthesize_channel(geom, *links, rng=np.random.default_rng(42), corr=corr)
        b = synthesize_channel(geom, *links, rng=np.random.default_rng(42), corr=corr)
        assert np.array_equal(a.h_f, b.h_f)
        assert np.array_equal(a.h_r, b.h_r)
        assert np.array_equal(a.h_t, b.h_t)

    def test_draws_from_the_model_it_is_given(self):
        geom = tiny_geom(n=3, a=WL)
        field = plane_wave_field(geom)
        links = [
            LinkParams(k_factor=0.0, distance=100.0, alpha=2.5, azimuth=0.3, elevation=0.2)
        ] * 3
        real = synthesize_channel(geom, *links, rng=np.random.default_rng(5), corr=field)
        # the three links take successive draws, bit for bit
        rng = np.random.default_rng(5)
        for h in (real.h_f, real.h_r, real.h_t):
            assert np.array_equal(h, np.sqrt(path_loss(100.0, 2.5)) * field.draw(rng, size=1)[0])
        with pytest.raises(ValueError, match="presets"):
            synthesize_channel(
                tiny_geom(n=4, a=WL), *links, rng=np.random.default_rng(5), corr=field
            )
        # as many presets on another lattice shape: 20 x 20 against 5 x 80
        square = partition_surface(2.0, 2.0, 4, WL, n_h=10, n_v=10)
        strip = partition_surface(4.0, 1.0, 4, WL, n_h=20, n_v=5, grid=(4, 1))
        assert square.n_presets == strip.n_presets
        for model in (correlation_matrix(square), plane_wave_field(square)):
            with pytest.raises(ValueError, match="presets"):
                synthesize_channel(strip, *links, rng=np.random.default_rng(5), corr=model)

    @pytest.mark.parametrize("n", [3, 5])  # L = 9 and 25
    def test_batched_channels_equal_calls_in_a_row(self, n):
        geom = tiny_geom(n=n, a=WL)
        corr = correlation_matrix(geom)
        links = default_links()
        batches = list(channel_batches(geom, links, np.random.default_rng(11), corr, 2000, chunk=500))
        assert [b.h_f.shape for b in batches] == [(500, geom.n_presets)] * 4
        rng = np.random.default_rng(11)
        calls = [synthesize_channel(geom, *links, rng=rng, corr=corr) for _ in range(2000)]
        for name in ("h_f", "h_r", "h_t"):
            batched = np.concatenate([getattr(b, name) for b in batches])
            assert np.array_equal(batched, np.stack([getattr(c, name) for c in calls])), name

    def test_per_entry_mean_power(self):
        geom = tiny_geom(n=3, a=WL)  # L = 9
        corr = correlation_matrix(geom)
        acc = mean_link_powers(geom, default_links(), np.random.default_rng(7), corr, 100_000)
        assert np.allclose(acc[0], path_loss(100.0, 2.5), rtol=0.03)
        assert np.allclose(acc[1], path_loss(200.0, 2.5), rtol=0.03)
        assert np.allclose(acc[2], path_loss(200.0, 2.5), rtol=0.03)


class TestChannelLookup:
    """A placement's channels are read at the nearest preset of each
    element's own subarea; `helpers.evaluate` scores that lookup."""

    def test_exact_on_lattice_and_stable_nearby(self):
        geom = partition_surface(2.0, 2.0, 4, WL, n_h=3, n_v=3)
        corr = correlation_matrix(geom)
        real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(3), corr=corr)
        pos = np.stack([preset_grid(geom, m)[4] for m in range(1, 5)])
        idx = np.array([preset_flat_indices(geom, m)[4] - 1 for m in range(1, 5)])
        w = amplitude_weights(real)
        expect = rate_report(w[0][idx], w[1][idx], 10.0, 1e-12)
        pitch = 2.0 / (geom.lattice_cols - 1)
        for shift in (0.0, 0.3 * pitch, -0.3 * pitch):
            got = evaluate(w, pos + shift, geom, 10.0, 1e-12)
            for name in ("rate_r", "rate_t", "snr_r", "snr_t"):
                assert getattr(got, name) == getattr(expect, name), (shift, name)
            assert got.effective == lattice_rates(w, idx, 10.0, 1e-12), shift

    def test_mismatch_rejected(self):
        geom = partition_surface(2.0, 2.0, 4, WL, n_h=3, n_v=3)
        corr = correlation_matrix(geom)
        real = synthesize_channel(geom, *default_links(), rng=np.random.default_rng(3), corr=corr)
        w = amplitude_weights(real)
        bad = np.array([[1.7, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        with pytest.raises(ValueError, match="outside its subarea"):
            evaluate(w, bad, geom, 1.0, 1.0)
        small = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError):
            evaluate(w, small, geom, 1.0, 1.0)
        coarse = partition_surface(2.0, 2.0, 4, WL, n_h=2, n_v=2)
        centers = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5]])
        with pytest.raises(ValueError, match="presets"):
            evaluate(w, centers, coarse, 1.0, 1.0)
