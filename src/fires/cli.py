"""Command-line front end for the experiment engine.

Subcommands pick the sweep axis; a JSON config file supplies everything else,
with flags (and the FIRES_SEED / FIRES_THREADS environment variables) layered
on top. Results land in CSV or JSON next to a one-line summary per record.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .harness import ExperimentConfig, config_from_json, emit_results, run_sweep

# subcommand: (sweep axis, help)
_COMMANDS = {
    "sweep-power": ("power", "effective rate vs transmit power"),
    "sweep-area": ("area", "effective rate vs aperture area"),
    "convergence": ("iterations", "mean best-so-far rate vs swarm iteration"),
    "single": ("none", "one operating point, no sweep"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fires",
        description="Monte Carlo sweeps for a fluid reflecting-and-emitting surface "
        "against a fixed-element baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (axis, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(sweep=axis)
        cmd.add_argument("--config", help="JSON config file (keys = ExperimentConfig fields)")
        cmd.add_argument("--seed", type=int, help="master seed (fallback: FIRES_SEED)")
        cmd.add_argument("--trials", type=int, help="Monte Carlo repetitions per sweep value")
        cmd.add_argument("--out", default="results.csv", help="output path")
        cmd.add_argument("--format", choices=("csv", "json"), default=None,
                         help="output format (default: from --out extension, else csv)")
        cmd.add_argument("--threads", type=int, help="worker processes (fallback: FIRES_THREADS)")
        cmd.add_argument("--inject-baseline", action="store_true",
                         help="seed each swarm with the presets of the fixed surface of "
                         "n_subareas elements (the baseline's own when m_hat equals n_subareas)")
    return parser


def _env_int(name: str) -> int | None:
    """The integer in environment variable `name`, or None when it is unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _resolve_config(args) -> tuple[ExperimentConfig, int]:
    cfg = config_from_json(args.config) if args.config else ExperimentConfig()
    overrides = {"sweep": args.sweep}
    seed = args.seed if args.seed is not None else _env_int("FIRES_SEED")
    if seed is not None:
        overrides["seed"] = seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.inject_baseline:
        overrides["inject_baseline"] = True
    cfg = replace(cfg, **overrides)

    threads = args.threads if args.threads is not None else _env_int("FIRES_THREADS")
    if threads is None:
        threads = 1
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    return cfg, threads


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, threads = _resolve_config(args)
        fmt = args.format or ("json" if str(args.out).lower().endswith(".json") else "csv")
        records = run_sweep(cfg, threads=threads)
        emit_results(records, args.out, fmt, config=cfg)
    except (ValueError, OSError) as exc:
        # a bad config or an unreadable/unwritable path; anything else is a
        # fault in the program and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print(
            f"sweep={rec.sweep_value:g} fires={rec.fires_mean:.4f}"
            f"(+-{rec.fires_stderr:.4f}) baseline={rec.baseline_mean:.4f}"
            f"(+-{rec.baseline_stderr:.4f}) trials={rec.n_trials}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
