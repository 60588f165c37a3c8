"""SNR, optimal phase alignment, energy-split selection, and max-min rates.

All array functions reduce over the last axis, so they accept a single
placement's (M,) channel vectors or a batch shaped (..., M) and return
matching leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, channel_at
from .geometry import Placement, SurfaceGeometry

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class SplitConfig:
    """Energy-splitting ratios and per-element phases for both users."""

    beta_r: float
    beta_t: float
    phases_r: np.ndarray  # (..., M), wrapped into (0, 2*pi]
    phases_t: np.ndarray

    def __post_init__(self):
        if not np.all((np.asarray(self.beta_r) >= 0) & (np.asarray(self.beta_r) <= 1)):
            raise ValueError("beta_r must lie in [0, 1]")
        if not np.allclose(np.asarray(self.beta_r) + np.asarray(self.beta_t), 1.0):
            raise ValueError("energy split must satisfy beta_r + beta_t = 1")


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-user achievable rates (bits/s/Hz), their min, and the linear SNRs."""

    rate_r: float
    rate_t: float
    effective: float
    snr_r: float
    snr_t: float


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


def amplitude_sum(h_f, h_u) -> np.ndarray:
    """sum_m |h_f[m]| * |h_u[m]| over the last axis."""
    return np.sum(np.abs(np.asarray(h_f)) * np.abs(np.asarray(h_u)), axis=-1)


def aligned_rate(h_f, h_u, beta, power, noise_power):
    """Rate under phase alignment: log2(1 + beta * power * S^2 / noise_power)
    with S the element-wise amplitude sum."""
    s = amplitude_sum(h_f, h_u)
    return np.log2(1.0 + beta * power * s**2 / noise_power)


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


def _equalizing_split(g_r, g_t):
    """optimal_split of gains already known to be nonnegative.

    When every gain is positive, which is all but always, the result is the
    plain equalizer; the zero-gain cases are only looked at otherwise.
    """
    if np.all(g_r > 0) and np.all(g_t > 0):
        return g_t / (g_r + g_t)
    total = g_r + g_t
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(total > 0, g_t / np.where(total > 0, total, 1.0), 0.5)
    beta = np.where((g_r > 0) & (g_t == 0), 1.0, beta)
    return np.where((g_t > 0) & (g_r == 0), 0.0, beta)


def wrap_phases(phases) -> np.ndarray:
    """Wrap angles into (0, 2*pi]."""
    w = np.asarray(phases, dtype=float) % _TWO_PI
    return np.where(w == 0.0, _TWO_PI, w)


def _split_rates(s_r, s_t, power, noise_power):
    """(beta_r, beta_t, report) of the equalizing split for amplitude sums
    s_r and s_t, the gains under phase alignment being power * s^2 / noise."""
    g_r = power * s_r**2 / noise_power
    g_t = power * s_t**2 / noise_power
    beta_r = _equalizing_split(g_r, g_t)
    beta_t = 1.0 - np.asarray(beta_r)
    snr_r = beta_r * g_r
    snr_t = beta_t * g_t
    rate_r = np.log2(1.0 + snr_r)
    rate_t = np.log2(1.0 + snr_t)
    report = RateReport(
        rate_r=rate_r,
        rate_t=rate_t,
        effective=np.minimum(rate_r, rate_t),
        snr_r=snr_r,
        snr_t=snr_t,
    )
    return beta_r, beta_t, report


def split_and_rates(h_f, h_r, h_t, power, noise_power) -> tuple[SplitConfig, RateReport]:
    """Optimal phases, equalizing split, and the resulting rates.

    With both gains positive the two rates coincide; the effective rate is
    their min in every case.
    """
    beta_r, beta_t, report = _split_rates(
        amplitude_sum(h_f, h_r), amplitude_sum(h_f, h_t), power, noise_power
    )
    config = SplitConfig(
        beta_r=beta_r,
        beta_t=float(beta_t) if np.ndim(beta_t) == 0 else beta_t,
        phases_r=wrap_phases(optimal_phases(h_f, h_r)),
        phases_t=wrap_phases(optimal_phases(h_f, h_t)),
    )
    return config, report


def amplitude_weights(realization: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Per-preset products |h_f| |h_r| and |h_f| |h_t|, shape (L,) each.

    Under phase alignment a placement's amplitude sums are these weights
    summed over its presets, so they are all a placement search needs.
    """
    amp_f = np.abs(realization.h_f)
    return amp_f * np.abs(realization.h_r), amp_f * np.abs(realization.h_t)


def lattice_rates(weights, idx, power, noise_power) -> RateReport:
    """Rate report of a batch of (..., M) flat lattice indices, from the
    `amplitude_weights` of a realization.

    Equal, bit for bit, to split_and_rates on the channels at those presets,
    without computing phases or the split configuration.
    """
    w_r, w_t = weights
    _, _, report = _split_rates(
        np.sum(w_r[idx], axis=-1), np.sum(w_t[idx], axis=-1), power, noise_power
    )
    return report


def evaluate(
    realization: ChannelRealization,
    placement: Placement,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
) -> RateReport:
    """Max-min rate report of a placement: lattice lookup, per-user phase
    alignment, equalizing energy split."""
    h_f, h_r, h_t = channel_at(realization, placement, geom)
    _, report = split_and_rates(h_f, h_r, h_t, power, noise_power)
    return report
