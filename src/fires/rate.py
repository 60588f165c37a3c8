"""SNR, optimal phase alignment, energy-split selection, and max-min rates.

With every element's phase aligned, a user's SNR depends only on the sum
over the elements of |h_f| |h_u|, and the equalizing split fixes the rest.
A placement's rates therefore follow from two per-preset amplitude weights
of the realization (`amplitude_weights`), and every rate the program reports
is scored from them by `lattice_rates`. `snr`, `optimal_phases`,
`optimal_split` and `split_and_rates` state the closed forms that path rests
on, over explicit channel vectors.

All array functions reduce over the last axis, so they accept a single
placement's (M,) channel vectors or a batch shaped (..., M) and return
matching leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .geometry import Placement, SurfaceGeometry, placement_in_subareas, snap_to_subarea_presets


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
    if (g_r > 0).all() and (g_t > 0).all():
        return g_t / (g_r + g_t)
    total = g_r + g_t
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(total > 0, g_t / np.where(total > 0, total, 1.0), 0.5)
    beta = np.where((g_r > 0) & (g_t == 0), 1.0, beta)
    return np.where((g_t > 0) & (g_r == 0), 0.0, beta)


def _split_rates(s_r, s_t, power, noise_power) -> RateReport:
    """Rate report of the equalizing split for amplitude sums s_r and s_t,
    the gains under phase alignment being power * s^2 / noise."""
    g_r = power * s_r**2 / noise_power
    g_t = power * s_t**2 / noise_power
    beta_r = _equalizing_split(g_r, g_t)
    snr_r = beta_r * g_r
    snr_t = (1.0 - beta_r) * g_t
    rate_r = np.log2(1.0 + snr_r)
    rate_t = np.log2(1.0 + snr_t)
    return RateReport(
        rate_r=rate_r,
        rate_t=rate_t,
        effective=np.minimum(rate_r, rate_t),
        snr_r=snr_r,
        snr_t=snr_t,
    )


def split_and_rates(h_f, h_r, h_t, power, noise_power) -> RateReport:
    """Rates of channel vectors under optimal phases and the equalizing split.

    The closed form the scoring path rests on: with each element's phase set
    by `optimal_phases`, a user's gain is power * (sum |h_f| |h_u|)^2 / noise.
    With both gains positive the two rates coincide; the effective rate is
    their min in every case.
    """
    return _split_rates(
        np.sum(np.abs(h_f) * np.abs(h_r), axis=-1),
        np.sum(np.abs(h_f) * np.abs(h_t), axis=-1),
        power,
        noise_power,
    )


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

    Equal, bit for bit, to split_and_rates on the channels at those presets.
    """
    w_r, w_t = weights
    return _split_rates(w_r[idx].sum(axis=-1), w_t[idx].sum(axis=-1), power, noise_power)


def evaluate(
    realization: ChannelRealization,
    placement: Placement,
    geom: SurfaceGeometry,
    power: float,
    noise_power: float,
) -> RateReport:
    """Max-min rate report of a placement: each element snaps to the nearest
    preset of its own subarea (ties toward the smaller flat index), and the
    presets are scored by `lattice_rates`."""
    if realization.n_presets != geom.n_presets:
        raise ValueError(
            f"realization covers {realization.n_presets} presets, geometry has {geom.n_presets}"
        )
    if not placement_in_subareas(placement, geom):
        raise ValueError("placement does not match geometry: element outside its subarea")
    idx = snap_to_subarea_presets(placement.positions, geom)
    return lattice_rates(amplitude_weights(realization), idx, power, noise_power)
