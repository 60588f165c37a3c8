"""Shared fixtures-in-spirit: small geometries, default link parameters, and
reference forms of the channel, lattice and rate models that only tests
need, among them the exhaustive lattice oracle."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fires.channel import (
    _PARITIES,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    _complex_pairs,
    _fold_matrix,
    _symmetric_sqrt,
    synthesize_channel,
)
from fires.geometry import (
    SurfaceGeometry,
    pair_violation_counts,
    preset_points,
    snap_to_subarea_presets,
    subarea_corners,
    subarea_presets,
)
from fires.pso import PsoConfig, _batch_scores
from fires.rate import _check_weights, lattice_rates

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

    coloring: np.ndarray  # (L, L) symmetric square root

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = len(self.coloring)
        white = rng.standard_normal((size, 2, n))
        colored = white.reshape(2 * size, n) @ self.coloring.T
        return _complex_pairs(colored.reshape(size, 2, n))


@dataclass(frozen=True, eq=False)
class BatchedDraws:
    """A field model that makes `synthesize_channel` draw n channels at once.

    Its `draw(rng, size=3)` is one draw of 3 n fields from the wrapped
    model, shaped (3, n, L): link k of channel i gets field 3 i + k, as in n
    calls in a row, since both models read the stream of n draws of `size=1`
    as one draw of `size=n`. The Rician mix then broadcasts over the n rows.
    """

    model: CorrelationModel | PlaneWaveField
    n: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.model.shape

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        fields = self.model.draw(rng, size=size * self.n)
        return fields.reshape(self.n, size, -1).swapaxes(0, 1)


def channel_batches(geom, links, rng, corr, n: int, chunk: int = 10_000):
    """`synthesize_channel` of n channels in a row, in realizations of up to
    `chunk` channels each, whose vectors are (chunk, L)."""
    for start in range(0, n, chunk):
        yield synthesize_channel(geom, *links, rng=rng, corr=BatchedDraws(corr, min(chunk, n - start)))


def mean_link_powers(geom, links, rng, corr, n: int) -> np.ndarray:
    """Per-preset mean |h|^2 of the f, r and t links over n channels drawn in
    a row (`channel_batches`), shape (3, L). The sum runs channel by channel,
    as a loop over n `synthesize_channel` calls adds them."""
    acc = np.zeros((3, geom.n_presets))
    for real in channel_batches(geom, links, rng, corr, n):
        powers = np.abs(np.stack([real.h_f, real.h_r, real.h_t], axis=1)) ** 2
        # a sum over the leading axis adds its rows in order
        acc = np.concatenate([acc[None], powers]).sum(axis=0)
    return acc / n


def model_from_matrix(r) -> DenseModel:
    """Dense model of any symmetric matrix, through one full
    eigendecomposition (no mirror blocks)."""
    return DenseModel(coloring=_symmetric_sqrt(*np.linalg.eigh(np.asarray(r, dtype=float))))


def sinc_matrix(geom: SurfaceGeometry) -> np.ndarray:
    """The L x L sinc correlation built entry by entry from every pair's
    offsets."""
    idx = np.arange(geom.n_presets)
    cols = idx % geom.lattice_cols
    rows = idx // geom.lattice_cols
    dx = (cols[:, None] - cols[None, :]) * (geom.a_h / (geom.lattice_cols - 1))
    dy = (rows[:, None] - rows[None, :]) * (geom.a_v / (geom.lattice_rows - 1))
    return np.sinc(2.0 / geom.wavelength * np.hypot(dx, dy))


def block_basis(corr: CorrelationModel, folded: np.ndarray) -> np.ndarray:
    """The rows of `folded`, indexed by folded lattice positions, carried
    into a mirror-block model's block coordinates: the butterfly over the
    swap pairs (`pairs`), then the permutation `to_blocks`."""
    basis = np.array(folded, dtype=float)
    upper, lower = basis[corr.pairs[0]], basis[corr.pairs[1]]
    basis[corr.pairs[0]] = (upper + lower) * np.sqrt(0.5)
    basis[corr.pairs[1]] = (upper - lower) * np.sqrt(0.5)
    return basis[corr.to_blocks]


def dense_coloring(corr: CorrelationModel) -> np.ndarray:
    """The L x L symmetric square root that a mirror-block model's roots make
    up: the block diagonal of its roots, one per coordinate run, carried from
    the block coordinates (`block_basis`) back onto the lattice."""
    rows, cols = corr.shape
    basis = block_basis(corr, np.kron(_fold_matrix(rows), _fold_matrix(cols)))
    colored = np.empty_like(basis)
    start = 0
    for root, runs in zip(corr.roots, corr.runs, strict=True):
        for _ in range(runs):
            stop = start + len(root)
            colored[start:stop] = root @ basis[start:stop]
            start = stop
    return basis.T @ colored


def folded_matrix(shape: tuple[int, int], blocks) -> np.ndarray:
    """The L x L matrix over the folded lattice positions that
    `CorrelationModel.to_blocks` reads whose four mirror blocks, in the order
    of `channel._PARITIES`, are `blocks`, and which is zero between them."""
    rows, cols = shape
    half_y, half_x = rows - rows // 2, cols - cols // 2
    grid = np.arange(rows * cols).reshape(rows, cols)
    out = np.zeros((rows * cols, rows * cols))
    for (odd_y, odd_x), block in zip(_PARITIES, blocks, strict=True):
        idx = grid[half_y:] if odd_y else grid[:half_y]
        idx = (idx[:, half_x:] if odd_x else idx[:, :half_x]).ravel()
        out[np.ix_(idx, idx)] = block.reshape(len(idx), len(idx))
    return out


def coordinate_runs(corr: CorrelationModel, folded: np.ndarray):
    """Each coordinate run of a mirror-block model with the diagonal block of
    `folded`, an L x L matrix over the folded lattice positions, in that
    run's block coordinates (`block_basis`). Yields (root, block) pairs, one
    per run, in coordinate order."""
    basis = block_basis(corr, np.eye(len(folded)))
    start = 0
    for root, runs in zip(corr.roots, corr.runs, strict=True):
        for _ in range(runs):
            run = basis[start : start + len(root)]
            yield root, run @ folded @ run.T
            start += len(root)


def dense_mirror_blocks(geom: SurfaceGeometry):
    """The four mirror blocks, in the order of `channel._PARITIES`, of the
    dense sinc matrix (`sinc_matrix`) carried into the mirror basis by the
    Kronecker product of the two axes' fold matrices, one quadrant each; the
    reference the blocks read off the offset table are checked against.
    Yields (k_y, k_x, k_y, k_x) arrays."""
    rows, cols = geom.lattice_rows, geom.lattice_cols
    fold = np.kron(_fold_matrix(rows), _fold_matrix(cols))
    folded = fold @ sinc_matrix(geom) @ fold.T
    half_y, half_x = rows - rows // 2, cols - cols // 2
    grid = np.arange(rows * cols).reshape(rows, cols)
    for odd_y, odd_x in _PARITIES:
        quadrant = grid[half_y:] if odd_y else grid[:half_y]
        quadrant = quadrant[:, half_x:] if odd_x else quadrant[:, :half_x]
        idx = quadrant.ravel()
        yield folded[np.ix_(idx, idx)].reshape(quadrant.shape * 2)


def dense_mirror_roots(geom: SurfaceGeometry) -> list[np.ndarray]:
    """The roots of the four-block build (`channel._mirror_roots` without
    the swap split) of the dense reference blocks (`dense_mirror_blocks`),
    each block rooted by its own eigendecomposition, (k, k) each."""
    return [block_root(block) for block in dense_mirror_blocks(geom)]


def block_root(block: np.ndarray) -> np.ndarray:
    """Symmetric square root of a (k_y, k_x, k_y, k_x) block or a (k, k)
    matrix from its clamped eigendecomposition, shape (k, k)."""
    k = int(np.sqrt(block.size))
    return _symmetric_sqrt(*np.linalg.eigh(block.reshape(k, k)))


def dense_swap_halves(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The swap-symmetric and swap-antisymmetric halves of an (h, h, h, h)
    mirror block of a diagonal quadrant, carried by dense products into the
    swap basis: e_p on the quadrant's diagonal and (e_p + e_(p^T)) / sqrt(2)
    above it, row-major, then (e_p - e_(p^T)) / sqrt(2) below it, row-major."""
    h = len(block)
    grid = np.arange(h * h).reshape(h, h)
    eye = np.eye(h * h)
    swapped = eye[grid.T.ravel()]
    symmetric = (eye + swapped)[grid[np.triu_indices(h)]]
    symmetric /= np.linalg.norm(symmetric, axis=1, keepdims=True)
    antisymmetric = (eye - swapped)[grid[np.tril_indices(h, -1)]] * np.sqrt(0.5)
    flat = block.reshape(h * h, h * h)
    return symmetric @ flat @ symmetric.T, antisymmetric @ flat @ antisymmetric.T


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
    return subarea_presets(geom)[m - 1] + 1


def preset_grid(geom: SurfaceGeometry, m: int) -> np.ndarray:
    """(n_h * n_v, 2) preset coordinates of subarea m (1-based), ascending
    flat index."""
    return preset_points(geom, subarea_presets(geom)[m - 1])


def placement_in_subareas(positions: np.ndarray, geom: SurfaceGeometry) -> bool:
    """True when every element of (M, 2) positions lies inside its own
    subarea, up to 1e-9 m."""
    if len(positions) != geom.n_subareas:
        return False
    lo, hi = subarea_corners(geom)
    return bool(np.all(positions >= lo - 1e-9) and np.all(positions <= hi + 1e-9))


def snr(h_f, h_u, phases, beta, power, noise_power):
    """Linear SNR of one user for given element phases and energy share.

    power * |sum_m conj(h_u[m]) * sqrt(beta) * exp(j phases[m]) * h_f[m]|^2
    / noise_power.
    """
    h_f = np.asarray(h_f)
    h_u = np.asarray(h_u)
    if h_f.shape != h_u.shape:
        raise ValueError(f"channel shapes differ: {h_f.shape} vs {h_u.shape}")
    if power <= 0 or noise_power <= 0:
        raise ValueError("power and noise_power must be positive")
    combined = np.sum(np.conj(h_u) * np.sqrt(beta) * np.exp(1j * np.asarray(phases)) * h_f, axis=-1)
    return power * np.abs(combined) ** 2 / noise_power


def optimal_phases(h_f, h_u) -> np.ndarray:
    """Per-element phases making every summand of the SNR real nonnegative.

    angle(h_u[m]) - angle(h_f[m]); entries where either channel vanishes get
    phase 0 by convention.
    """
    return np.angle(np.asarray(h_u) * np.conj(np.asarray(h_f)))


def optimal_split(g_r, g_t):
    """Reflect-side share maximizing min(beta * g_r, (1 - beta) * g_t).

    Both gains positive: the unique equalizer g_t / (g_r + g_t). One gain
    zero: all energy to the live user (the min is 0 either way; this keeps
    the other user's rate maximal). Both zero: 0.5.
    """
    g_r = np.asarray(g_r, dtype=float)
    g_t = np.asarray(g_t, dtype=float)
    if np.any(g_r < 0) or np.any(g_t < 0):
        raise ValueError("gains must be nonnegative")
    total = g_r + g_t
    beta = np.where(total > 0, g_t / np.where(total > 0, total, 1.0), 0.5)
    beta = np.where((g_r > 0) & (g_t == 0), 1.0, beta)
    beta = np.where((g_t > 0) & (g_r == 0), 0.0, beta)
    if np.ndim(beta) == 0:
        return float(beta)
    return beta


@dataclass(frozen=True, eq=False)
class UserRates:
    """Each user's achievable rate (bits/s/Hz) and linear SNR under optimal
    phases and the `optimal_split`; arrays of a batch's leading shape."""

    rate_r: np.ndarray
    rate_t: np.ndarray
    snr_r: np.ndarray
    snr_t: np.ndarray

    @property
    def effective(self) -> np.ndarray:
        """The max-min rate, min(rate_r, rate_t)."""
        return np.minimum(self.rate_r, self.rate_t)


def rate_report(a_r, a_t, power, noise_power) -> UserRates:
    """Per-user rates of placements from each element's amplitude products
    |h_f| |h_r| and |h_f| |h_t|, shaped (..., M): the reference of
    `rate.split_and_rates`, which returns only their min. With every phase
    aligned a user's gain is power * (sum of its products)^2 / noise, and
    the `optimal_split` shares it between the two users."""
    g_r = power * a_r.sum(axis=-1) ** 2 / noise_power
    g_t = power * a_t.sum(axis=-1) ** 2 / noise_power
    beta_r = optimal_split(g_r, g_t)
    snr_r = beta_r * g_r
    snr_t = (1.0 - beta_r) * g_t
    return UserRates(np.log2(1.0 + snr_r), np.log2(1.0 + snr_t), snr_r, snr_t)


def exact_rates(a_r, a_t, power, noise_power) -> np.ndarray:
    """The max-min rate log2(1 + (P/N) S_r^2 S_t^2 / (S_r^2 + S_t^2)) of
    each (..., M) row of amplitude products, with S_r and S_t the rows'
    sums, from the exact rational values of the floats (`Fraction`). The
    log2 of y = 1 + x goes through y's binary exponent e: e + log2(y / 2^e)
    with y / 2^e in [1, 2), so the only roundings are that quotient's, the
    log2's and the final sum's, about 2 eps x max(rate, 1) in all."""
    a_r, a_t = np.asarray(a_r, dtype=float), np.asarray(a_t, dtype=float)
    snr = Fraction(power) / Fraction(noise_power)
    out = np.empty(a_r.shape[:-1])
    for i in np.ndindex(out.shape):
        s_r2 = sum(map(Fraction, a_r[i].tolist()), Fraction(0)) ** 2
        s_t2 = sum(map(Fraction, a_t[i].tolist()), Fraction(0)) ** 2
        y = 1 + (snr * s_r2 * s_t2 / (s_r2 + s_t2) if s_r2 + s_t2 else 0)
        e = y.numerator.bit_length() - y.denominator.bit_length()
        if y < Fraction(2) ** e:
            e -= 1
        out[i] = e + math.log2(float(y / Fraction(2) ** e))
    return out


def assert_near_exact(rates, a_r, a_t, power, noise_power) -> None:
    """`rates` are within 4 eps x max(rate, 1) of the `exact_rates` of the
    amplitude products `a_r` and `a_t`."""
    exact = exact_rates(a_r, a_t, power, noise_power)
    error = np.abs(np.asarray(rates) - exact) / np.maximum(exact, 1.0)
    assert error.max() <= 4 * np.finfo(float).eps, f"{error.max() / np.finfo(float).eps:.2f} eps"


def channel_rates(h_f, h_r, h_t, power, noise_power) -> UserRates:
    """`rate_report` of explicit channel vectors: the amplitude products
    |h_f| |h_r| and |h_f| |h_t|, shaped (..., M)."""
    amp_f = np.abs(h_f)
    return rate_report(amp_f * np.abs(h_r), amp_f * np.abs(h_t), power, noise_power)


def evaluate(
    weights,
    positions: np.ndarray,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
) -> UserRates:
    """Per-user rates (`rate_report`) of a float placement, (M, 2)
    positions, from a realization's `amplitude_weights`: each element snaps
    to the nearest preset of its own subarea (ties toward the smaller flat
    index), and the weights at those presets are scored. Rejects weights of
    another preset count, as the program's scorers do, and a placement with
    an element outside its own subarea (`placement_in_subareas`)."""
    _check_weights(weights, geom)
    if not placement_in_subareas(positions, geom):
        raise ValueError("placement does not match geometry: element outside its subarea")
    idx = snap_to_subarea_presets(positions, geom)
    w_r, w_t = weights
    return rate_report(w_r[idx], w_t[idx], power, noise_power)


def fitness(
    positions: np.ndarray,
    weights,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cfg: PsoConfig,
) -> float:
    """The swarm's penalized objective of one placement, (M, 2) positions,
    from a realization's `amplitude_weights`: max-min rate minus tau *
    spacing violations."""
    fit = _batch_scores(positions[None, :, :], weights, geom, power, noise_power, cfg.tau)
    return float(fit[0])


def brute_force_oracle(
    weights,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cap: int = 1_000_000,
    chunk: int = 8192,
) -> tuple[np.ndarray, float]:
    """Exhaustive max-min rate over one preset per subarea, from a
    realization's `amplitude_weights`, and the (M, 2) positions reaching it.

    Spacing-infeasible combinations are skipped. Ties resolve to the
    lexicographically smallest tuple of flat preset indices. Refuses
    instances with more than `cap` combinations.
    """
    m = geom.n_subareas
    k = geom.n_h * geom.n_v
    total = k**m
    if total > cap:
        raise ValueError(f"{total} lattice combinations exceed the cap of {cap}")
    flats = subarea_presets(geom)  # (M, K)
    blocks = preset_points(geom, flats)  # (M, K, 2)
    digits = k ** np.arange(m - 1, -1, -1)  # combo id -> per-subarea digits

    best_rate = -np.inf
    best_positions = None
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total))
        local = (ids[:, None] // digits[None, :]) % k  # lexicographic order
        pos = blocks[np.arange(m)[None, :], local]  # (n, M, 2)
        feasible = pair_violation_counts(pos, geom.d_min) == 0
        if not feasible.any():
            continue
        lattice_idx = flats[np.arange(m)[None, :], local[feasible]]
        rates = lattice_rates(weights, lattice_idx, power, noise_power)
        top = int(np.argmax(rates))  # first max: smallest combo id
        if rates[top] > best_rate:
            best_rate = float(rates[top])
            best_positions = pos[feasible][top].copy()
    if best_positions is None:
        raise ValueError("no spacing-feasible lattice placement exists")
    return best_positions, best_rate
