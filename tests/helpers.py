"""Shared fixtures-in-spirit: small geometries, default link parameters, and
reference forms of the channel, lattice and rate models that only tests
need, among them the exhaustive lattice oracle."""

from dataclasses import dataclass

import numpy as np

from fires.channel import (
    ChannelRealization,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    _complex_pairs,
    _mirror_fold,
    _symmetric_sqrt,
)
from fires.geometry import Placement, SurfaceGeometry, pair_violation_counts, subarea_presets
from fires.pso import PsoConfig, _batch_scores
from fires.rate import RateReport, _equalizing_split, amplitude_weights, lattice_rates, split_and_rates

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
    return root.reshape(rows * cols, rows * cols)


def whole_window_mirror_roots(r4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`channel._mirror_roots` by whole-window folds: each row parity folds all
    of `r4` along axes 0 and 2, then each column parity along axes 1 and 3,
    with temporaries near 8 L^2 bytes; the reference the block-at-a-time
    build is checked against bit for bit. Also returns the four blocks'
    eigenvalues, sorted ascending and not clamped."""
    rows, cols = r4.shape[:2]
    vals, roots = [], []
    for odd_y in (False, True):
        r_y = _mirror_fold(_mirror_fold(r4, 0, odd_y), 2, odd_y)
        for odd_x in (False, True):
            block = _mirror_fold(_mirror_fold(r_y, 1, odd_x), 3, odd_x)
            k = block.shape[0] * block.shape[1]
            eig = np.linalg.eigh(block.reshape(k, k))
            vals.append(eig.eigenvalues)
            roots.append(_symmetric_sqrt(*eig).reshape(block.shape))
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
    beta = _equalizing_split(g_r, g_t)
    if np.ndim(beta) == 0:
        return float(beta)
    return beta


def channel_rates(h_f, h_r, h_t, power, noise_power) -> RateReport:
    """`split_and_rates` of explicit channel vectors: the amplitude products
    |h_f| |h_r| and |h_f| |h_t|, shaped (..., M)."""
    amp_f = np.abs(h_f)
    return split_and_rates(amp_f * np.abs(h_r), amp_f * np.abs(h_t), power, noise_power)


def fitness(
    placement: Placement,
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cfg: PsoConfig,
) -> float:
    """Penalized objective of one placement: max-min rate minus
    tau * spacing violations."""
    weights = amplitude_weights(realization)
    fit, _ = _batch_scores(
        placement.positions[None, :, :], weights, geom, power, noise_power, cfg.tau
    )
    return float(fit[0])


def brute_force_oracle(
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cap: int = 1_000_000,
    chunk: int = 8192,
) -> tuple[Placement, float]:
    """Exhaustive max-min rate over one preset per subarea.

    Spacing-infeasible combinations are skipped. Ties resolve to the
    lexicographically smallest tuple of flat preset indices. Refuses
    instances with more than `cap` combinations.
    """
    m = geom.n_subareas
    k = geom.n_h * geom.n_v
    total = k**m
    if total > cap:
        raise ValueError(f"{total} lattice combinations exceed the cap of {cap}")
    blocks, flats = subarea_presets(geom)  # (M, K, 2), (M, K)
    digits = k ** np.arange(m - 1, -1, -1)  # combo id -> per-subarea digits

    weights = amplitude_weights(realization)
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
        report = lattice_rates(weights, lattice_idx, power, noise_power)
        top = int(np.argmax(report.effective))  # first max: smallest combo id
        if report.effective[top] > best_rate:
            best_rate = float(report.effective[top])
            best_positions = pos[feasible][top].copy()
    if best_positions is None:
        raise ValueError("no spacing-feasible lattice placement exists")
    return Placement(best_positions), best_rate
