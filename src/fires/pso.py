"""Penalty-based particle swarm search over element placements.

A particle encodes one full placement (all M element positions jointly).
Per-subarea clamping keeps every particle inside its feasible rectangles;
the minimum-spacing constraint is handled by a large additive penalty plus
a final repair pass. The equalizing energy split meets the power budget
exactly, so the budget needs no penalty.

Outside the swarm's own loop, a placement is its (M,) flat presets:
`optimize` takes injected placements as presets and returns presets. The
swarm's best is snapped once, and the repair and the best-response polish
work on flat preset indices and check the spacing between presets. The
swarm, the repair and the polish score lattice indices with
`rate.lattice_rates`, from the per-preset amplitude weights of their
realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    SurfaceGeometry,
    clamp_to_subareas,
    clear_presets,
    pair_violation_counts as _pair_violation_counts,  # the swarm's spacing check
    preset_points,
    preset_violations,
    snap_to_subarea_presets,
    subarea_corners,
    subarea_presets,
)
from .rate import _check_weights, lattice_rates


@dataclass(frozen=True)
class PsoConfig:
    """Swarm parameters: size, schedule, inertia/attraction weights, penalty."""

    n_particles: int = 50
    n_iterations: int = 100
    w: float = 0.4
    c1: float = 0.5
    c2: float = 0.5
    tau: float = 1e6
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1 or self.n_iterations < 1:
            raise ValueError("need at least one particle and one iteration")
        if self.w < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("inertia and attraction factors must be nonnegative")
        if self.tau <= 0:
            raise ValueError("penalty coefficient must be positive")


def init_swarm(
    geom: SurfaceGeometry, cfg: PsoConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, velocities), each (n_particles, M, 2): uniform positions
    inside each subarea, and velocities uniform over +-10% of the subarea
    side per axis."""
    n, m = cfg.n_particles, geom.n_subareas
    lo, hi = subarea_corners(geom)
    positions = lo + rng.random((n, m, 2)) * (hi - lo)
    span = 0.1 * np.array([geom.subarea_w, geom.subarea_h])
    velocities = (2.0 * rng.random((n, m, 2)) - 1.0) * span
    return positions, velocities


def update_velocity(v, pos, p_best, g_best, cfg: PsoConfig, rng: np.random.Generator):
    """Inertia plus cognitive and social attraction, with fresh uniform
    draws per coordinate: r1 for every coordinate, then r2."""
    r1, r2 = rng.random((2,) + np.shape(pos))
    return cfg.w * v + cfg.c1 * r1 * (p_best - pos) + cfg.c2 * r2 * (g_best - pos)


def _batch_scores(
    positions: np.ndarray, weights, geom: SurfaceGeometry, power: float, noise_power: float, tau: float
) -> np.ndarray:
    """Fitness of a (n, M, 2) batch of placements: the max-min rate at their
    presets minus tau per pair of positions closer than d_min."""
    idx = snap_to_subarea_presets(positions, geom)
    violations = _pair_violation_counts(positions, geom.d_min)
    return lattice_rates(weights, idx, power, noise_power) - tau * violations


def repair_spacing(
    presets: np.ndarray, weights, geom: SurfaceGeometry, power: float, noise_power: float
) -> np.ndarray:
    """Re-place spacing offenders among (M,) flat presets, front to back.

    Element m moves only if its preset lies closer than d_min to the preset
    of an already-fixed element; it then takes the spacing-feasible preset
    of its own subarea with the best effective rate (other elements held
    still), or, if no preset clears the spacing, the preset maximizing the
    worst distance to the fixed ones. Ties resolve to the smaller flat
    index. `weights` are the realization's `amplitude_weights`.
    """
    idx = np.array(presets)
    flats = subarea_presets(geom)
    for i in range(1, geom.n_subareas):
        clear = clear_presets(geom, i, idx[:i])
        if clear[np.searchsorted(flats[i], idx[i])]:
            continue
        if clear.any():
            trials = np.repeat(idx[None, :], np.count_nonzero(clear), axis=0)
            trials[:, i] = flats[i][clear]
            rates = lattice_rates(weights, trials, power, noise_power)
            idx[i] = trials[int(np.argmax(rates)), i]
        else:
            own = preset_points(geom, flats[i])
            dd = ((own[:, None, :] - preset_points(geom, idx[:i])) ** 2).sum(axis=-1)
            idx[i] = flats[i][int(np.argmax(dd.min(axis=1)))]
    return idx


def best_response(
    presets: np.ndarray, weights, geom: SurfaceGeometry, power: float, noise_power: float, cfg: PsoConfig
) -> np.ndarray:
    """Best-response sweeps over the elements of (M,) flat presets, front to back.

    Element m, with every other element held still, moves to the preset of
    its own subarea that maximizes the polish's objective among the presets
    at least d_min from the presets of all other elements; it moves only
    when that strictly raises the objective, and among equal presets the
    smaller flat index wins. The objective is the max-min rate minus tau per
    pair of presets closer than d_min (`preset_violations`). The swarm's
    (`_batch_scores`) penalizes pairs of its unsnapped positions closer than
    d_min instead, so the two can disagree on one placement. Sweeps repeat
    until none moves. This is repair_spacing's step applied to every
    element, so the objective never decreases and a spacing-feasible start
    stays feasible. `weights` are the realization's `amplitude_weights`.
    """
    idx, m = np.array(presets), geom.n_subareas
    flats = subarea_presets(geom)  # ascending flat index
    violations = preset_violations(idx, geom)
    current = float(lattice_rates(weights, idx, power, noise_power)) - cfg.tau * violations
    # elements known to be best responses to the others as they stand; the
    # search ends when all m are, as after a full sweep without a move
    stable = i = 0
    while stable < m:
        others = np.delete(idx, i)
        clear = clear_presets(geom, i, others)
        stable += 1
        if clear.any():
            trials = np.repeat(idx[None, :], np.count_nonzero(clear), axis=0)
            trials[:, i] = flats[i][clear]
            # candidates clear every other element, which leaves the
            # violations among the others
            held = violations and preset_violations(others, geom)
            fit = lattice_rates(weights, trials, power, noise_power) - cfg.tau * held
            top = int(np.argmax(fit))
            if fit[top] > current:
                idx[i] = trials[top, i]
                current = float(fit[top])
                violations = held
                stable = 1
        i = (i + 1) % m
    return idx


def _checked_seeds(initial_presets, geom: SurfaceGeometry, cfg: PsoConfig) -> np.ndarray:
    """`initial_presets` as a (k, M) integer array, 1 <= k <= n_particles,
    whose every entry is a preset of its own element's subarea; raises
    ValueError otherwise (a negative or out-of-range index included)."""
    seeds, m = np.asarray(initial_presets), geom.n_subareas
    if seeds.ndim != 2 or seeds.shape[1] != m or len(seeds) == 0:
        raise ValueError(f"initial_presets must be a (k, {m}) array, k >= 1, got shape {seeds.shape}")
    if len(seeds) > cfg.n_particles:
        raise ValueError(f"{len(seeds)} injected placements for {cfg.n_particles} particles")
    if not np.issubdtype(seeds.dtype, np.integer):
        raise ValueError(f"initial_presets must hold integer preset indices, got {seeds.dtype}")
    own = (seeds[:, :, None] == subarea_presets(geom)).any(axis=-1)
    if not own.all():
        j, i = np.argwhere(~own)[0].tolist()
        raise ValueError(f"initial_presets[{j}, {i}] = {seeds[j, i]} is not a preset of subarea {i + 1}")
    return seeds


def optimize(
    weights,
    geom: SurfaceGeometry,
    cfg: PsoConfig,
    power: float,
    noise_power: float,
    initial_presets: np.ndarray | None = None,
) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """Run the swarm on a realization's `amplitude_weights` and return (the
    (M,) flat presets of the best placement, their max-min rate, history).

    The history is the swarm's own tuple of floats, without the polish:
    history[k] is the best fitness seen after k iterations (entry 0 covers
    the initial swarm), nondecreasing, one float object per run of equal
    values. The run is fully determined by cfg.seed. `initial_presets` is a
    (k, M) integer array, 1 <= k <= n_particles: row j puts particle j on
    the `preset_points` of its presets, one of each element's own subarea,
    which lower-bounds the result by the fitness of every injected
    placement. The swarm's best placement is snapped to its presets once; if
    two of them lie closer than d_min, a repair pass rebuilds them, and
    `best_response` sweeps then polish them; the rate is the final presets'.
    """
    _check_weights(weights, geom)
    rng = np.random.default_rng(cfg.seed)
    positions, velocities = init_swarm(geom, cfg, rng)
    if initial_presets is not None:
        seeds = _checked_seeds(initial_presets, geom, cfg)
        # a preset on a subarea edge can round to just outside it
        positions[: len(seeds)] = clamp_to_subareas(preset_points(geom, seeds), geom)
    # per element rather than per axis, so the clamp runs in long loops
    v_max = np.tile([geom.subarea_w, geom.subarea_h], (geom.n_subareas, 1))
    v_min = -v_max
    # personal bests per particle, the global best, and its value per scoring
    own_pos, own_fit = positions.copy(), np.full(cfg.n_particles, -np.inf)
    best_pos, best_fit = None, -np.inf
    history = []
    for step in range(cfg.n_iterations + 1):
        if step:  # the first scoring covers the initial swarm
            vel = update_velocity(velocities, positions, own_pos, best_pos, cfg, rng)
            velocities = np.minimum(np.maximum(vel, v_min), v_max)
            positions = clamp_to_subareas(positions + velocities, geom)
        fit = _batch_scores(positions, weights, geom, power, noise_power, cfg.tau)
        improved = fit > own_fit
        np.copyto(own_pos, positions, where=improved[:, None, None])
        np.copyto(own_fit, fit, where=improved)
        leader = int(np.argmax(fit))
        if fit[leader] > best_fit:
            best_fit, best_pos = float(fit[leader]), positions[leader].copy()
        history.append(best_fit)

    presets = snap_to_subarea_presets(best_pos, geom)
    if preset_violations(presets, geom):
        presets = repair_spacing(presets, weights, geom, power, noise_power)
    presets = best_response(presets, weights, geom, power, noise_power, cfg)
    return presets, float(lattice_rates(weights, presets, power, noise_power)), tuple(history)
