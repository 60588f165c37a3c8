"""Layer timing from outside the program.

Every layer of fires calls the next through a name it looks up in its own
module namespace at call time (`harness.optimize`, `pso.split_and_rates`, ...).
The benchmark swaps those names for wrappers while a sweep runs and puts the
originals back afterwards, so nothing under src/ changes and an untraced sweep
runs the program exactly as shipped. Spans stay in memory and are written
when the run ends. A name the program no longer has is skipped and the
metrics built on it are reported as absent.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from fires import baseline, channel, harness, pso, rate

# (module whose namespace the caller looks the name up in, name, span)
SPANNED = (
    (harness, "run_sweep", "harness.sweep"),
    (harness, "run_trial", "harness.trial"),
    (harness, "emit_results", "harness.emit"),
    (harness, "correlation_matrix", "channel.correlation"),
    (harness, "synthesize_channel", "channel.synthesize"),
    (harness, "optimize", "pso.optimize"),
    (harness, "evaluate_baseline", "baseline.evaluate"),
    (pso, "repair_spacing", "pso.repair"),
    (pso, "split_and_rates", "rate.split_and_rates"),
    (rate, "split_and_rates", "rate.split_and_rates"),
    (baseline, "split_and_rates", "rate.split_and_rates"),
    (pso, "snap_to_subarea_presets", "geometry.snap"),
    (channel, "snap_to_subarea_presets", "geometry.snap"),
    (pso, "clamp_to_subareas", "geometry.clamp"),
)
# the swarm's per-batch spacing check, observed for counts but not timed
SPACING_COUNTS = (pso, "_pair_violation_counts")


@contextmanager
def patched(targets, absent: set | None = None):
    """Replace `module.name` by `wrap(original)` for each (module, name, wrap)
    inside the block; names the module lacks go to `absent`."""
    saved = []
    try:
        for module, name, wrap in targets:
            original = getattr(module, name, None)
            if original is None:
                if absent is not None:
                    absent.add(f"{module.__name__}.{name}")
                continue
            saved.append((module, name, original))
            setattr(module, name, wrap(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class TrialCollector:
    """Keeps every TrialRecord that run_sweep's trials return, keyed by sweep
    value; reads no clock, so it stays on in untraced runs."""

    def __init__(self):
        self.trials: list[tuple] = []

    def installed(self):
        def wrap(run_trial):
            def collected(cfg, trial_index, area_m2=None):
                rec = run_trial(cfg, trial_index, area_m2)
                value = area_m2 if area_m2 is not None else cfg.power_dbm
                self.trials.append(
                    (float(value), trial_index, rec.fires_rate, rec.baseline_rate, rec.history)
                )
                return rec

            return collected

        return patched([(harness, "run_trial", wrap)])


class Tracer:
    """Spans are (name, start, end, self seconds, parent index, sweep); self
    time is the span minus the time its child spans cover. Sweep -1 marks the
    warm-up sweep, which holds the process's set-up work."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.sweep = -1
        self.absent: set[str] = set()
        self.rows_scored = 0
        self.spacing_checked = 0
        self.spacing_infeasible = 0
        self.histories: list[np.ndarray] = []
        self._open: list[int] = []
        self._child_s: list[float] = []

    def installed(self):
        targets = [(m, n, lambda f, s=span: self._spanned(s, f)) for m, n, span in SPANNED]
        targets.append((*SPACING_COUNTS, self._observe_spacing))
        return patched(targets, self.absent)

    def _spanned(self, span: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(idx)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                child_s = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += end - start
                self.spans[idx] = (span, start, end, end - start - child_s, parent, self.sweep)
            if self.sweep >= 0:
                if span == "rate.split_and_rates":
                    self.rows_scored += math.prod(np.shape(args[0])[:-1])
                elif span == "pso.optimize":
                    self.histories.append(np.asarray(result[2]))
            return result

        return traced

    def _observe_spacing(self, fn):
        def observed(*args, **kwargs):
            counts = fn(*args, **kwargs)
            if self.sweep >= 0:
                self.spacing_checked += len(counts)
                self.spacing_infeasible += int(np.count_nonzero(counts))
            return counts

        return observed

    def _installed_spans(self) -> set[str]:
        missing = self.absent
        return {s for m, n, s in SPANNED if f"{m.__name__}.{n}" not in missing}

    def metrics(self, sweeps: int, evaluations: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced sweeps (all `sweeps` of them,
        `evaluations` trial evaluations in total), name -> (value, unit)."""
        present = self._installed_spans()
        run = [s for s in self.spans if s[5] >= 0]

        def of(span):
            return [s for s in run if s[0] == span]

        def total_s(span):
            return sum(s[2] - s[1] for s in of(span))

        def self_s(*spans):
            return sum(s[3] for s in run if s[0] in spans)

        def per_eval_ms(seconds):
            return 1e3 * seconds / evaluations

        out: dict[str, tuple[float, str]] = {}
        if "channel.correlation" in present:
            builds = [s for s in self.spans if s[0] == "channel.correlation"]
            out["channel.correlation_s"] = (sum(s[2] - s[1] for s in builds), "s")
            out["channel.correlation_calls"] = (len(builds), "count")
        for span in ("channel.synthesize", "pso.optimize", "rate.split_and_rates"):
            if span in present:
                out[f"{span}_ms"] = (per_eval_ms(total_s(span)), "ms")
                out[f"{span}_calls"] = (len(of(span)) / sweeps, "count")
        if "pso.optimize" in present:
            out["pso.self_ms"] = (per_eval_ms(self_s("pso.optimize", "pso.repair")), "ms")
            if of("pso.optimize") and "pso.repair" in present:
                out["pso.repair_share"] = (len(of("pso.repair")) / len(of("pso.optimize")), "ratio")
            reach = [_iters_to_99(h) for h in self.histories]
            reach = [r for r in reach if r is not None]
            if reach:
                out["pso.iters_to_99"] = (float(statistics.median(reach)), "count")
        if self.spacing_checked:
            out["pso.infeasible_share"] = (self.spacing_infeasible / self.spacing_checked, "ratio")
        if "rate.split_and_rates" in present:
            out["rate.placements_scored"] = (self.rows_scored / evaluations, "count")
        for span, name in (
            ("geometry.snap", "geometry.snap_ms"),
            ("geometry.clamp", "geometry.clamp_ms"),
            ("baseline.evaluate", "baseline.evaluate_ms"),
        ):
            if span in present:
                out[name] = (per_eval_ms(total_s(span)), "ms")
        trial_ms = [1e3 * (s[2] - s[1]) for s in of("harness.trial")]
        if len(trial_ms) >= 2:
            out["harness.trial_ms_p50"] = (statistics.median(trial_ms), "ms")
            out["harness.trial_ms_p90"] = (statistics.quantiles(trial_ms, n=10)[8], "ms")
            out["harness.trial_samples"] = (len(trial_ms), "count")
        if "harness.sweep" in present:
            out["harness.self_ms"] = (per_eval_ms(self_s("harness.sweep")), "ms")
        if "harness.emit" in present:
            out["harness.emit_ms"] = (1e3 * total_s("harness.emit") / sweeps, "ms")
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name over the whole run."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, self_s, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
        return out

    def dump(self) -> dict:
        """All spans, start and end relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "self_s", "parent", "sweep"],
            "names": names,
            "spans": [
                [code[n], round(a - t0, 7), round(b - t0, 7), round(s, 7), p, k]
                for n, a, b, s, p, k in self.spans
            ],
        }


def _iters_to_99(history: np.ndarray) -> int | None:
    """First iteration whose best-so-far reaches 99% of the final value."""
    final = float(history[-1])
    if not np.isfinite(final) or final <= 0:
        return None
    return int(np.argmax(history >= 0.99 * final))
