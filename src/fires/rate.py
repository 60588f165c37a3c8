"""Max-min rates of placements under the closed-form phases and energy split.

With every element's phase aligned, a user's SNR depends only on the sum
over the elements of |h_f| |h_u|, and the equalizing split fixes the rest.
`split_and_rates` is that closed form and the one scoring primitive: every
rate the program reports comes from it, fed the per-preset amplitude
products of the realization (`amplitude_weights`) gathered at a placement's
presets by `lattice_rates`. Every scorer takes those weights, not the
realization, so a trial converts its channel once.

`split_and_rates` and `lattice_rates` reduce over the last axis, so they
accept one placement's (M,) products or indices, or a batch shaped
(..., M), and return matching leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .geometry import SurfaceGeometry


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-user achievable rates (bits/s/Hz), their min, and the linear SNRs."""

    rate_r: float
    rate_t: float
    effective: float
    snr_r: float
    snr_t: float


def _equalizing_split(g_r, g_t):
    """Reflect-side share maximizing min(beta * g_r, (1 - beta) * g_t) for
    nonnegative gains.

    Both gains positive: the unique equalizer g_t / (g_r + g_t), which is
    all but always the case and is then the only thing computed. One gain
    zero: all energy to the live user (the min is 0 either way; this keeps
    the other user's rate maximal). Both zero: 0.5.
    """
    if (g_r > 0).all() and (g_t > 0).all():
        return g_t / (g_r + g_t)
    total = g_r + g_t
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = np.where(total > 0, g_t / np.where(total > 0, total, 1.0), 0.5)
    beta = np.where((g_r > 0) & (g_t == 0), 1.0, beta)
    return np.where((g_t > 0) & (g_r == 0), 0.0, beta)


def split_and_rates(a_r, a_t, power, noise_power) -> RateReport:
    """Rate report of placements under optimal phases and the equalizing split.

    `a_r` and `a_t` are arrays of each element's amplitude products
    |h_f| |h_r| and |h_f| |h_t|, shaped (..., M). With every element's
    phase aligned, a user's gain is power * (sum of its products)^2 / noise;
    the equalizing split makes the two rates coincide whenever both gains
    are positive, and the effective rate is their min in every case.
    """
    g_r = power * a_r.sum(axis=-1) ** 2 / noise_power
    g_t = power * a_t.sum(axis=-1) ** 2 / noise_power
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


def amplitude_weights(realization: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Per-preset products |h_f| |h_r| and |h_f| |h_t|, shape (L,) each.

    Under phase alignment a placement's amplitude sums are these weights
    summed over its presets, so they are all a placement search needs.
    """
    amp_f = np.abs(realization.h_f)
    return amp_f * np.abs(realization.h_r), amp_f * np.abs(realization.h_t)


def lattice_rates(weights, idx, power, noise_power) -> RateReport:
    """Rate report of a batch of (..., M) flat lattice indices, from the
    `amplitude_weights` of a realization: `split_and_rates` of the weights
    gathered at those presets."""
    w_r, w_t = weights
    return split_and_rates(w_r[idx], w_t[idx], power, noise_power)


def _check_weights(weights, geom: SurfaceGeometry) -> None:
    """Reject `amplitude_weights` drawn on a lattice of another preset count."""
    if len(weights[0]) != geom.n_presets:
        raise ValueError(f"weights cover {len(weights[0])} presets, geometry has {geom.n_presets}")
