"""Penalty-based particle swarm search over element placements.

A particle encodes one full placement (all M element positions jointly).
Per-subarea clamping keeps every particle inside its feasible rectangles;
the minimum-spacing constraint is handled by a large additive penalty plus
a final repair pass. The equalizing energy split meets the power budget
exactly, so the budget needs no penalty. The swarm's result is then polished
by best-response sweeps over the elements on their preset lattices.

Every search scores lattice indices through the per-preset amplitude
weights of its realization (`rate.amplitude_weights`, `rate.lattice_rates`).

A brute-force lattice enumerator doubles as the testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .geometry import (
    Placement,
    SurfaceGeometry,
    clamp_to_subareas,
    pair_violation_counts as _pair_violation_counts,  # the swarm's spacing check
    preset_grid,
    snap_to_subarea_presets,
    spacing_violations,
    subarea_corners,
    subarea_presets,
)
from .rate import RateReport, amplitude_weights, evaluate, lattice_rates

_OBJECTIVES = ("min", "sum")


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
    objective: str = "min"  # "min": max-min rate; "sum": summed rates

    def __post_init__(self):
        if self.n_particles < 1 or self.n_iterations < 1:
            raise ValueError("need at least one particle and one iteration")
        if self.w < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("inertia and attraction factors must be nonnegative")
        if self.tau <= 0:
            raise ValueError("penalty coefficient must be positive")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")


@dataclass(eq=False)
class SwarmState:
    """Mutable swarm bookkeeping; shapes are (n_particles, M, 2)."""

    positions: np.ndarray
    velocities: np.ndarray
    personal_best_pos: np.ndarray
    personal_best_fit: np.ndarray
    global_best_pos: np.ndarray
    global_best_fit: float
    history: list = field(default_factory=list)


def init_swarm(geom: SurfaceGeometry, cfg: PsoConfig, rng: np.random.Generator) -> SwarmState:
    """Uniform positions inside each subarea; small uniform velocities.

    Initial velocity spans +-10% of the subarea side per axis. Best trackers
    start empty (-inf) and are filled by the first fitness evaluation.
    """
    n, m = cfg.n_particles, geom.n_subareas
    lo, hi = subarea_corners(geom)
    positions = lo + rng.random((n, m, 2)) * (hi - lo)
    span = 0.1 * np.array([geom.subarea_w, geom.subarea_h])
    velocities = (2.0 * rng.random((n, m, 2)) - 1.0) * span
    return SwarmState(
        positions=positions,
        velocities=velocities,
        personal_best_pos=positions.copy(),
        personal_best_fit=np.full(n, -np.inf),
        global_best_pos=positions[0].copy(),
        global_best_fit=-np.inf,
    )


def update_velocity(v, pos, p_best, g_best, cfg: PsoConfig, rng: np.random.Generator):
    """Inertia plus cognitive and social attraction, with fresh uniform
    draws per coordinate: r1 for every coordinate, then r2."""
    r1, r2 = rng.random((2,) + np.shape(pos))
    return cfg.w * v + cfg.c1 * r1 * (p_best - pos) + cfg.c2 * r2 * (g_best - pos)


def update_position(pos, v, geom: SurfaceGeometry) -> np.ndarray:
    """Move and clamp each element back into its own subarea."""
    return clamp_to_subareas(pos + v, geom)


def _batch_scores(
    positions: np.ndarray,
    weights,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cfg: PsoConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fitness, lattice indices, spacing-violation counts) for a (n, M, 2)
    batch of placements."""
    idx = snap_to_subarea_presets(positions, geom)
    violations = _pair_violation_counts(positions, geom.d_min)
    return _scores_at(idx, violations, weights, power, noise_power, cfg), idx, violations


def _scores_at(
    idx: np.ndarray,
    violations,
    weights,
    power: float,
    noise_power: float,
    cfg: PsoConfig,
) -> np.ndarray:
    """Fitness of (n, M) lattice indices whose placements have the given
    spacing-violation counts: the objective minus tau per violation."""
    report = lattice_rates(weights, idx, power, noise_power)
    base = report.effective if cfg.objective == "min" else report.rate_r + report.rate_t
    return base - cfg.tau * violations


def fitness(
    placement: Placement,
    realization: ChannelRealization,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
    cfg: PsoConfig,
) -> float:
    """Penalized objective of one placement: base rate term minus
    tau * spacing violations."""
    weights = amplitude_weights(realization)
    fit, _, _ = _batch_scores(
        placement.positions[None, :, :], weights, geom, power, noise_power, cfg
    )
    return float(fit[0])


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
    weights = amplitude_weights(realization)
    d2min = geom.d_min**2
    for i in range(1, geom.n_subareas):
        fixed = pos[:i]
        if np.all(((pos[i] - fixed) ** 2).sum(axis=-1) >= d2min):
            continue
        block = preset_grid(geom, i + 1)  # ascending flat index
        dd = ((block[:, None, :] - fixed[None, :, :]) ** 2).sum(axis=-1)
        clear = np.all(dd >= d2min, axis=1)
        if clear.any():
            cands = block[clear]
            trials = np.repeat(pos[None, :, :], len(cands), axis=0)
            trials[:, i, :] = cands
            idx = snap_to_subarea_presets(trials, geom)
            report = lattice_rates(weights, idx, power, noise_power)
            pos[i] = cands[int(np.argmax(report.effective))]
        else:
            pos[i] = block[int(np.argmax(dd.min(axis=1)))]
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
    d2min = geom.d_min**2
    blocks, flats = subarea_presets(geom)  # ascending flat index
    weights = amplitude_weights(realization)
    fit, idx, _ = _batch_scores(pos[None], weights, geom, power, noise_power, cfg)
    current = float(fit[0])
    idx = idx[0]
    # elements known to be best responses to the others as they stand; the
    # search ends when all m are, as after a full sweep without a move
    stable = 0
    i = 0
    while stable < m:
        others = np.delete(pos, i, axis=0)
        dd = ((blocks[i][:, None, :] - others[None, :, :]) ** 2).sum(axis=-1)
        clear = np.all(dd >= d2min, axis=1)
        stable += 1
        if clear.any():
            trials = np.repeat(idx[None, :], np.count_nonzero(clear), axis=0)
            trials[:, i] = flats[i][clear]
            # candidates clear every other element, which leaves the
            # violations among the others
            held = spacing_violations(Placement(others), geom.d_min)
            fit = _scores_at(trials, held, weights, power, noise_power, cfg)
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
    state = init_swarm(geom, cfg, rng)
    if initial_placements:
        if len(initial_placements) > cfg.n_particles:
            raise ValueError("more injected placements than particles")
        for k, pl in enumerate(initial_placements):
            state.positions[k] = clamp_to_subareas(pl.positions, geom)
    # per element rather than per axis, so the clamp runs in long loops
    v_max = np.tile([geom.subarea_w, geom.subarea_h], (geom.n_subareas, 1))
    v_min = -v_max

    def record_bests(fit: np.ndarray) -> None:
        improved = fit > state.personal_best_fit
        np.copyto(state.personal_best_pos, state.positions, where=improved[:, None, None])
        np.copyto(state.personal_best_fit, fit, where=improved)
        leader = int(np.argmax(fit))
        if fit[leader] > state.global_best_fit:
            state.global_best_fit = float(fit[leader])
            state.global_best_pos = state.positions[leader].copy()
        state.history.append(state.global_best_fit)

    record_bests(_batch_scores(state.positions, weights, geom, power, noise_power, cfg)[0])

    for _ in range(cfg.n_iterations):
        vel = update_velocity(
            state.velocities, state.positions, state.personal_best_pos,
            state.global_best_pos, cfg, rng,
        )
        state.velocities = np.minimum(np.maximum(vel, v_min), v_max)
        state.positions = update_position(state.positions, state.velocities, geom)
        record_bests(_batch_scores(state.positions, weights, geom, power, noise_power, cfg)[0])

    best_pos = state.global_best_pos
    if spacing_violations(Placement(best_pos), geom.d_min) > 0:
        best_pos = repair_spacing(best_pos, realization, geom, power, noise_power)
    placement = Placement(best_response(best_pos, realization, geom, power, noise_power, cfg))
    report = evaluate(realization, placement, geom, power, noise_power)
    return placement, report, np.asarray(state.history)


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
        feasible = _pair_violation_counts(pos, geom.d_min) == 0
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
