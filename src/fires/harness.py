"""Experiment engine: configuration, unit conversions, seeded Monte Carlo
trials, parameter sweeps, and CSV/JSON result emission.

Every trial owns two random streams derived from (master seed, trial index),
one for the channel draw and one for the swarm, so trials are independent,
reproducible in isolation, and shared across sweep values (the same trial
index sees the same channel at every power, making curves comparable).

With aligned phases and the equalizing split, a placement's max-min rate
rises with the transmit power for every placement, so the best placement
does not depend on it. A power-sweep trial therefore runs its swarm once, at
the highest sweep power, and reads every power's rates off that placement;
every power's record carries that swarm's own history.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields, replace
from functools import cache
from numbers import Integral, Real
from operator import ge, gt

import numpy as np

from .baseline import evaluate_baseline, fixed_surface_presets
from .channel import (
    DENSE_MAX_PRESETS,
    CorrelationModel,
    LinkParams,
    PlaneWaveField,
    correlation_matrix,
    plane_wave_field,
    synthesize_channel,
)
from .geometry import SurfaceGeometry, partition_surface
from .pso import PsoConfig, optimize
from .rate import amplitude_weights, lattice_rates
from .runtime import model_file, store

SPEED_OF_LIGHT = 299_792_458.0

SWEEP_AXES = ("none", "power", "area", "iterations")


def dbm_to_watts(x: float) -> float:
    """10 ** ((x - 30) / 10); 30 dBm is one watt."""
    return 10.0 ** ((x - 30.0) / 10.0)


def _has_wattage(dbm: float) -> bool:
    """Whether dbm_to_watts(dbm) is a positive, finite number of watts."""
    try:
        return 0.0 < dbm_to_watts(dbm) < math.inf
    except OverflowError:
        return False


def wavelength(f_c: float) -> float:
    """Carrier wavelength in meters."""
    if f_c <= 0:
        raise ValueError(f"carrier frequency must be positive, got {f_c}")
    return SPEED_OF_LIGHT / f_c


# config field types by their annotation; bool is not a number here
_FIELD_KINDS = {
    "int": (Integral, "an integer"),
    "float": (Real, "a number"),
    "bool": (bool, "true or false"),
}

# config field ranges: (fields, comparison, bound, wording)
_FIELD_RANGES = (
    (("n_trials", "n_particles", "n_iterations", "n_subareas", "n_h", "n_v", "m_hat"), ge, 1, "at least 1"),
    (("a_h", "a_v", "f_c", "d_f", "d_u", "alpha", "tau"), gt, 0, "positive"),
    (("k_f", "k_u", "w", "c1", "c2", "seed"), ge, 0, "nonnegative"),
)


def _is_kind(value, kind) -> bool:
    return isinstance(value, kind) and (kind is bool) == isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; defaults follow the reference setup
    except for the desk-scale preset density (see n_h, n_v)."""

    a_h: float = 2.0  # aperture (m); 4 m^2 total by default
    a_v: float = 2.0
    n_subareas: int = 4  # fluid elements M
    m_hat: int = 4  # fixed-surface element count
    n_h: int = 10  # presets per subarea row; 100 in the reference setup. The default
    n_v: int = 10  # keeps L <= 8000 so trials use the exact dense sinc model
    grid: tuple[int, int] | None = None  # explicit subarea grid (cols, rows)
    f_c: float = 3.5e9  # Hz
    power_dbm: float = 40.0
    noise_dbm: float = -90.0
    k_f: float = 5.0  # Rician factors, linear
    k_u: float = 5.0
    d_f: float = 100.0  # BS-surface distance (m)
    d_u: float = 200.0  # surface-user distance (m)
    alpha: float = 2.5  # path-loss exponent
    min_spacing: float | str = "half-lambda"  # meters, or the half-wavelength token
    n_particles: int = 50
    n_iterations: int = 100
    w: float = 0.4
    c1: float = 0.5
    c2: float = 0.5
    tau: float = 1e6
    n_trials: int = 100
    seed: int = 0
    sweep: str = "none"
    power_sweep_dbm: tuple[float, ...] = (20.0, 25.0, 30.0, 35.0, 40.0)
    area_sweep_m2: tuple[float, ...] = (1.0, 4.0, 16.0)
    inject_baseline: bool = False

    def __post_init__(self):
        if self.sweep not in SWEEP_AXES:
            raise ValueError(f"sweep must be one of {SWEEP_AXES}, got {self.sweep!r}")
        if isinstance(self.power_dbm, (list, tuple)):
            raise ValueError("power_dbm must be a scalar; put sweep values in power_sweep_dbm")
        for f in fields(self):
            kind, noun = _FIELD_KINDS.get(f.type, (None, None))
            value = getattr(self, f.name)
            if kind is not None and not _is_kind(value, kind):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            # finite, and no integer too large for a float (math.isfinite raises there)
            if kind is Real and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for names, holds, bound, noun in _FIELD_RANGES:
            for name in names:
                if not holds(getattr(self, name), bound):
                    raise ValueError(f"{name} must be {noun}, got {getattr(self, name)!r}")
        spacing = self.min_spacing
        if spacing != "half-lambda" and not (
            _is_kind(spacing, Real) and abs(spacing) <= sys.float_info.max and spacing > 0
        ):
            raise ValueError(
                f"min_spacing must be 'half-lambda' or finite positive meters, got {spacing!r}"
            )
        for name in ("power_sweep_dbm", "area_sweep_m2"):
            seq = getattr(self, name)
            if not isinstance(seq, (list, tuple)) or not all(
                _is_kind(x, Real) and abs(x) <= sys.float_info.max for x in seq
            ):
                raise ValueError(f"{name} must be a list of finite numbers, got {seq!r}")
            if len(seq) == 0:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, tuple(seq))
        for name in ("power_dbm", "noise_dbm", "power_sweep_dbm"):
            value = getattr(self, name)
            if not all(map(_has_wattage, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be a power with a positive, finite wattage, got {value!r}")
        noise = dbm_to_watts(self.noise_dbm)
        powers = (self.power_dbm, *self.power_sweep_dbm)
        if not all(math.isfinite(dbm_to_watts(p) / noise) for p in powers):
            raise ValueError(f"noise_dbm must be high enough for a finite SNR, got {self.noise_dbm!r}")
        if any(a <= 0 for a in self.area_sweep_m2):
            raise ValueError(f"area_sweep_m2 must hold positive areas, got {self.area_sweep_m2}")
        if self.grid is not None:
            if not isinstance(self.grid, (list, tuple)) or len(self.grid) != 2 or not all(
                _is_kind(n, Integral) and n >= 1 for n in self.grid
            ):
                raise ValueError(f"grid must be two positive integers [cols, rows], got {self.grid!r}")
            object.__setattr__(self, "grid", tuple(self.grid))
        # area scaling keeps the aspect ratio, so what tiles this aperture tiles
        # every swept one; the fixed surface tiles as evaluate_baseline does
        try:
            geom = geometry_from_config(self)
        except (ValueError, OverflowError) as exc:
            name = "n_subareas" if self.grid is None else "grid"
            raise ValueError(f"{name} must be able to tile the aperture: {exc}") from None
        # both field models of the channel need 2 presets along each lattice axis
        for name, count in (("n_h", geom.lattice_cols), ("n_v", geom.lattice_rows)):
            if count < 2:
                raise ValueError(
                    f"{name} must be large enough for 2 presets per lattice axis, "
                    f"got a {geom.lattice_cols} x {geom.lattice_rows} lattice"
                )
        try:  # the presets depend on the lattice, not its scale: this covers every area
            fixed_surface_presets(geom, self.m_hat)
        except (ValueError, OverflowError):
            msg = f"m_hat must be able to tile the aperture in squares on distinct presets, got {self.m_hat}"
            raise ValueError(msg) from None

    def digest(self) -> str:
        """Short stable hash of the full configuration."""
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


def config_from_json(path) -> ExperimentConfig:
    """Load a config whose JSON keys mirror ExperimentConfig field names."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)


def geometry_from_config(cfg: ExperimentConfig, area_m2: float | None = None) -> SurfaceGeometry:
    """The surface geometry, optionally rescaled to a target area; equal
    geometries are one shared instance (`_shared_geometry`)."""
    wl = wavelength(cfg.f_c)
    a_h, a_v = cfg.a_h, cfg.a_v
    if area_m2 is not None:
        scale = float(np.sqrt(area_m2 / (a_h * a_v)))
        a_h, a_v = a_h * scale, a_v * scale
    d_min = wl / 2.0 if cfg.min_spacing == "half-lambda" else float(cfg.min_spacing)
    geom = partition_surface(
        a_h, a_v, cfg.n_subareas, wl, n_h=cfg.n_h, n_v=cfg.n_v, d_min=d_min, grid=cfg.grid
    )
    return _shared_geometry(geom)


# the process's first geometry equal to a given one, so that its cached tables
# (subarea bounds, presets, blocked offsets) are built once, not once per trial
_shared_geometry = cache(lambda geom: geom)


@cache
def _field_model(geom: SurfaceGeometry) -> CorrelationModel | PlaneWaveField:
    """Scattered-field model of a geometry, kept for the life of the process:
    the dense sinc model up to DENSE_MAX_PRESETS presets, the plane-wave
    model above that.

    The dense model's roots take one block-sized eigendecomposition and four
    half-block ones on a square lattice of equal pitches, four block-sized
    ones on others. So it is also kept on disk (`runtime.model_file`): a
    process that does not hold it yet loads it from there, and where no
    readable file fits the lattice, it builds the model and writes it for
    the next (`runtime.store`).
    """
    if geom.n_presets > DENSE_MAX_PRESETS:
        return plane_wave_field(geom)
    path = model_file(geom)
    if path is not None:
        try:
            with open(path, "rb") as fh:  # closed also where np.load cannot read the zip
                model = CorrelationModel.load(fh, (geom.lattice_rows, geom.lattice_cols))
        except Exception:
            # absent, unreadable, damaged or of another lattice: build anew
            # (a damaged zip raises any of half a dozen types)
            pass
        else:
            # The build frees block-sized arrays, and glibc's malloc then
            # raises its mmap and trim thresholds to their size. Free one
            # such block here too, untouched: without it, every trial at
            # L = 2,500 grows and trims the heap anew, about 170 page
            # faults and 4% of its time.
            np.empty(max(root.size for root in model.roots))
            return model
    model = correlation_matrix(geom)
    if path is not None:
        store(model, path)
    return model


def trial_links(cfg: ExperimentConfig, rng: np.random.Generator) -> tuple[LinkParams, LinkParams, LinkParams]:
    """Draw all angles uniformly over (0, pi) and build the three links.

    The BS departure angle is drawn first to keep the stream layout stable,
    although the single-antenna feed makes it inert.
    """
    angles = rng.uniform(0.0, np.pi, size=7)
    f = LinkParams(cfg.k_f, cfg.d_f, cfg.alpha, azimuth=angles[1], elevation=angles[2])
    r = LinkParams(cfg.k_u, cfg.d_u, cfg.alpha, azimuth=angles[3], elevation=angles[4])
    t = LinkParams(cfg.k_u, cfg.d_u, cfg.alpha, azimuth=angles[5], elevation=angles[6])
    return f, r, t


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Outcome of one Monte Carlo repetition at one sweep value (the area on
    the area axis, the power in dBm elsewhere); `history` and `presets`, the
    final flat presets, are its swarm's tuples, shared across the trial."""

    trial_index: int
    fires_rate: float
    baseline_rate: float
    history: tuple[float, ...]
    sweep_value: float
    presets: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class _TrialSwarm:
    """A trial's channel draw as its `amplitude_weights`, the flat presets of
    its swarm's placement and the history `optimize` returned at the reference
    power, as the tuples every record keeps: one per trial on the power axis."""

    geom: SurfaceGeometry
    weights: tuple[np.ndarray, np.ndarray]
    presets: tuple[int, ...]
    history: tuple[float, ...]


# while _sweep_worker runs one power-axis trial at its sweep powers: the
# trial's swarm, which it ran before the first power's run_trial
_power_share: ContextVar[_TrialSwarm | None] = ContextVar("power_share", default=None)


def _run_swarm(cfg: ExperimentConfig, trial_index: int, area_m2: float | None) -> _TrialSwarm:
    """Draw the trial's channel, convert it to its `amplitude_weights` (the
    trial's only conversion), and run the swarm on them at the reference
    power: the highest sweep power on the power axis, cfg.power_dbm
    otherwise."""
    geom = geometry_from_config(cfg, area_m2)
    corr = _field_model(geom)
    channel_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(trial_index,)))
    links = trial_links(cfg, channel_rng)
    weights = amplitude_weights(synthesize_channel(geom, *links, rng=channel_rng, corr=corr))

    power = dbm_to_watts(float(max(cfg.power_sweep_dbm) if cfg.sweep == "power" else cfg.power_dbm))
    swarm_seq = np.random.SeedSequence(cfg.seed, spawn_key=(trial_index, 1))
    pso_seed = int(swarm_seq.generate_state(1, np.uint64)[0])
    # every swarm parameter but the seed is the config's field of the same name
    swarm_fields = {f.name: getattr(cfg, f.name) for f in fields(PsoConfig) if f.name != "seed"}
    pso_cfg = PsoConfig(**swarm_fields, seed=pso_seed)
    # the fixed surface of n_subareas elements, one on a preset of each subarea
    injected = fixed_surface_presets(geom)[None] if cfg.inject_baseline else None
    presets, _, history = optimize(
        weights, geom, pso_cfg, power, dbm_to_watts(cfg.noise_dbm), initial_presets=injected
    )
    return _TrialSwarm(geom, weights, tuple(presets.tolist()), history)


def run_trial(cfg: ExperimentConfig, trial_index: int, area_m2: float | None = None) -> TrialRecord:
    """One repetition: draw angles and channels, optimize the fluid surface,
    evaluate the fixed baseline. Deterministic in (cfg.seed, trial_index).

    On the power axis the swarm runs at the highest sweep power, which gives
    the history; the rates are its placement's at cfg.power_dbm. Inside
    sweep_trials the sweep worker runs that swarm and run_trial only scores
    it, to the same records. Every power reads the max-min rates of the
    swarm's presets and of the fixed surface off the trial's weights,
    without another snap or conversion.
    """
    swarm = _power_share.get() or _run_swarm(cfg, trial_index, area_m2)
    power = dbm_to_watts(float(cfg.power_dbm))
    noise = dbm_to_watts(cfg.noise_dbm)
    return TrialRecord(
        trial_index=trial_index,
        fires_rate=float(lattice_rates(swarm.weights, np.array(swarm.presets), power, noise)),
        baseline_rate=float(evaluate_baseline(swarm.weights, swarm.geom, power, noise, cfg.m_hat)),
        history=swarm.history,
        sweep_value=float(cfg.power_dbm if area_m2 is None else area_m2),
        presets=swarm.presets,
    )


@dataclass(frozen=True, eq=False)
class ResultRecord:
    """Aggregated outcome for one sweep value."""

    sweep_value: float
    fires_mean: float
    fires_stderr: float
    baseline_mean: float
    baseline_stderr: float
    n_trials: int
    seed: int
    config_digest: str


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(len(values)))


def _sweep_worker(job) -> list[TrialRecord]:
    """Records of one trial at each (config, area) variant of the job, in
    variant order. Power-axis variants differ only in power_dbm: the worker
    runs their trial's swarm once, and each variant's run_trial scores it."""
    trial_index, variants = job
    cfg = variants[0][0]
    token = _power_share.set(_run_swarm(cfg, trial_index, None) if cfg.sweep == "power" else None)
    try:
        return [run_trial(c, trial_index, a) for c, a in variants]
    finally:
        _power_share.reset(token)


def sweep_trials(cfg: ExperimentConfig, threads: int = 1) -> list[list[TrialRecord]]:
    """The records of cfg.n_trials trials: row t holds trial t, one record
    per sweep value in sweep order (one at cfg.power_dbm off the power and
    area axes).

    Trial substreams depend only on (seed, trial index), so every sweep value
    reuses the same channel draws. Each job is one trial at every sweep value;
    a power-axis job runs the trial's swarm once, for every power. With
    threads > 1 the jobs run in a process pool of at most one worker per trial.
    """
    if cfg.sweep == "power":
        variants = [(replace(cfg, power_dbm=float(p)), None) for p in cfg.power_sweep_dbm]
    elif cfg.sweep == "area":
        variants = [(cfg, float(a)) for a in cfg.area_sweep_m2]
    else:  # none, iterations
        variants = [(cfg, None)]

    jobs = [(t, variants) for t in range(cfg.n_trials)]
    workers = min(threads, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_worker, jobs, chunksize=1))  # in job order
    return [_sweep_worker(job) for job in jobs]


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[ResultRecord]:
    """One ResultRecord per sweep value, each over cfg.n_trials trials: the
    column means of `sweep_trials`. The iterations axis runs each trial once
    at the full schedule and reads its records off the best-so-far history."""
    by_trial = sweep_trials(cfg, threads)
    values = [rec.sweep_value for rec in by_trial[0]]
    fires = np.array([[rec.fires_rate for rec in recs] for recs in by_trial])
    baselines = np.array([[rec.baseline_rate for rec in recs] for recs in by_trial])
    if cfg.sweep == "iterations":  # one column per swarm iteration
        fires = np.array([recs[0].history for recs in by_trial])
        baselines = np.broadcast_to(baselines, fires.shape)
        values = range(fires.shape[1])
    digest = cfg.digest()
    records = []
    for j, value in enumerate(values):
        fires_mean, fires_err = _mean_stderr(fires[:, j])
        base_mean, base_err = _mean_stderr(baselines[:, j])
        records.append(
            ResultRecord(
                sweep_value=float(value),
                fires_mean=fires_mean,
                fires_stderr=fires_err,
                baseline_mean=base_mean,
                baseline_stderr=base_err,
                n_trials=cfg.n_trials,
                seed=cfg.seed,
                config_digest=digest,
            )
        )
    return records


# every ResultRecord field but the digest, which JSON output keeps
_CSV_COLUMNS = tuple(f.name for f in fields(ResultRecord) if f.name != "config_digest")


def emit_results(records, path, fmt: str, config: ExperimentConfig | None = None) -> None:
    """Write records as CSV (fixed column set) or JSON (embeds the config)."""
    if fmt == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for rec in records:
            cells = [repr(float(getattr(rec, name))) for name in _CSV_COLUMNS[:-2]]
            lines.append(",".join(cells + [str(rec.n_trials), str(rec.seed)]))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "config": asdict(config) if config is not None else None,
            "records": [asdict(rec) for rec in records],
        }
        text = json.dumps(doc, indent=2)
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
