"""Penalty-based particle swarm search over element placements.

A particle encodes one full placement (all M element positions jointly).
Per-subarea clamping keeps every particle inside its feasible rectangles;
the minimum-spacing constraint is handled by a large additive penalty plus
a final repair pass. The equalizing energy split meets the power budget
exactly, so the budget needs no penalty. The swarm's result is then polished
by best-response sweeps over the elements on their preset lattices.

The swarm, the repair and the polish score lattice indices with
`rate.lattice_rates`, from the per-preset amplitude weights of their
realization (`rate.amplitude_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .geometry import (
    Placement,
    SurfaceGeometry,
    clamp_to_subareas,
    pair_violation_counts as _pair_violation_counts,  # the swarm's spacing check
    snap_to_subarea_presets,
    spacing_violations,
    subarea_corners,
    subarea_presets,
)
from .rate import RateReport, amplitude_weights, evaluate, lattice_rates


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
    positions: np.ndarray,
    weights,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(fitness, lattice indices) for a (n, M, 2) batch of placements."""
    idx = snap_to_subarea_presets(positions, geom)
    violations = _pair_violation_counts(positions, geom.d_min)
    return _scores_at(idx, violations, weights, power, noise_power, tau), idx


def _scores_at(
    idx: np.ndarray,
    violations,
    weights,
    power: float,
    noise_power: float,
    tau: float,
) -> np.ndarray:
    """Fitness of (n, M) lattice indices whose placements have the given
    spacing-violation counts: the max-min rate minus tau per violation."""
    return lattice_rates(weights, idx, power, noise_power).effective - tau * violations


def _clear_presets(geom: SurfaceGeometry, i: int, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances (K, len(others)) from each preset of element i's
    subarea, in ascending flat index, to the `others` positions, and the
    mask of those presets at least d_min from every one of them."""
    dd = ((subarea_presets(geom)[0][i][:, None, :] - others[None, :, :]) ** 2).sum(axis=-1)
    return dd, np.all(dd >= geom.d_min**2, axis=1)


def repair_spacing(
    positions: np.ndarray,
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
) -> np.ndarray:
    """Re-place spacing offenders on their subarea lattices, front to back.

    Element m moves only if it sits closer than d_min to an already-fixed
    element; it then takes the spacing-feasible preset of its own subarea
    with the best effective rate (other elements held still), or, if no
    preset clears the spacing, the preset maximizing the worst pairwise
    distance. Ties resolve to the smaller flat index.
    """
    pos = np.asarray(positions, dtype=float).copy()
    idx = snap_to_subarea_presets(pos, geom)
    blocks, flats = subarea_presets(geom)
    weights = amplitude_weights(realization)
    for i in range(1, geom.n_subareas):
        fixed = pos[:i]
        if np.all(((pos[i] - fixed) ** 2).sum(axis=-1) >= geom.d_min**2):
            continue
        dd, clear = _clear_presets(geom, i, fixed)
        if clear.any():
            trials = np.repeat(idx[None, :], np.count_nonzero(clear), axis=0)
            trials[:, i] = flats[i][clear]
            rates = lattice_rates(weights, trials, power, noise_power).effective
            k = np.flatnonzero(clear)[int(np.argmax(rates))]
        else:
            k = int(np.argmax(dd.min(axis=1)))
        pos[i] = blocks[i][k]
        idx[i] = flats[i][k]
    return pos


def best_response(
    positions: np.ndarray,
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cfg: PsoConfig,
) -> np.ndarray:
    """Best-response sweeps over the elements, front to back.

    Element m, with every other element held still, moves to the preset of
    its own subarea that maximizes the swarm's penalized objective among the
    presets at least d_min from all other elements; it moves only when that
    strictly raises the objective, and among equal presets the smaller flat
    index wins. Sweeps repeat until none moves. This is repair_spacing's step
    applied to every element, so the objective never decreases and a
    spacing-feasible start stays feasible.
    """
    pos = np.asarray(positions, dtype=float).copy()
    m = geom.n_subareas
    blocks, flats = subarea_presets(geom)  # ascending flat index
    weights = amplitude_weights(realization)
    fit, idx = _batch_scores(pos[None], weights, geom, power, noise_power, cfg.tau)
    current = float(fit[0])
    idx = idx[0]
    # elements known to be best responses to the others as they stand; the
    # search ends when all m are, as after a full sweep without a move
    stable = 0
    i = 0
    while stable < m:
        others = np.delete(pos, i, axis=0)
        _, clear = _clear_presets(geom, i, others)
        stable += 1
        if clear.any():
            trials = np.repeat(idx[None, :], np.count_nonzero(clear), axis=0)
            trials[:, i] = flats[i][clear]
            # candidates clear every other element, which leaves the
            # violations among the others
            held = spacing_violations(Placement(others), geom.d_min)
            fit = _scores_at(trials, held, weights, power, noise_power, cfg.tau)
            top = int(np.argmax(fit))
            if fit[top] > current:
                pos[i] = blocks[i][clear][top]
                idx[i] = trials[top, i]
                current = float(fit[top])
                stable = 1
        i = (i + 1) % m
    return pos


def optimize(
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    cfg: PsoConfig,
    power: float,
    noise_power: float,
    initial_placements: list[Placement] | None = None,
) -> tuple[Placement, RateReport, np.ndarray]:
    """Run the swarm and return (best placement, its rate report, history).

    history[k] is the best fitness seen after k iterations (entry 0 covers
    the initial swarm) and is nondecreasing. The run is fully determined by
    cfg.seed. `initial_placements` overwrite the leading particles, which
    lower-bounds the result by any injected candidate. If the best placement
    still violates spacing, a repair pass rebuilds it; best-response sweeps
    (`best_response`) then polish the placement, and the returned report
    reflects the final placement. The history is the swarm's own and does
    not include the polish.
    """
    rng = np.random.default_rng(cfg.seed)
    weights = amplitude_weights(realization)
    positions, velocities = init_swarm(geom, cfg, rng)
    if initial_placements:
        if len(initial_placements) > cfg.n_particles:
            raise ValueError("more injected placements than particles")
        for k, pl in enumerate(initial_placements):
            positions[k] = clamp_to_subareas(pl.positions, geom)
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
        fit = _batch_scores(positions, weights, geom, power, noise_power, cfg.tau)[0]
        improved = fit > own_fit
        np.copyto(own_pos, positions, where=improved[:, None, None])
        np.copyto(own_fit, fit, where=improved)
        leader = int(np.argmax(fit))
        if fit[leader] > best_fit:
            best_fit, best_pos = float(fit[leader]), positions[leader].copy()
        history.append(best_fit)

    if spacing_violations(Placement(best_pos), geom.d_min) > 0:
        best_pos = repair_spacing(best_pos, realization, geom, power, noise_power)
    placement = Placement(best_response(best_pos, realization, geom, power, noise_power, cfg))
    report = evaluate(realization, placement, geom, power, noise_power)
    return placement, report, np.asarray(history)
