"""Max-min rates of placements under the closed-form phases and energy split.

With every element's phase aligned, a user's SNR depends only on the sum
over the elements of |h_f| |h_u|, and the equalizing split fixes the rest.
`split_and_rates` is that closed form and the one scoring primitive: it
returns the max-min rate itself, and every rate the program reports comes
from it, fed the per-preset amplitude products of the realization
(`amplitude_weights`) gathered at a placement's presets by `lattice_rates`.
Every scorer takes those weights, not the realization, so a trial converts
its channel once. The per-user rates and SNRs are not computed here.

`split_and_rates` and `lattice_rates` reduce over the last axis, so they
accept one placement's (M,) products or indices, or a batch shaped
(..., M), and return matching leading dimensions.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .geometry import SurfaceGeometry


def split_and_rates(a_r, a_t, power, noise_power):
    """Max-min rates (bits/s/Hz) of placements under optimal phases and the
    equalizing split.

    `a_r` and `a_t` are arrays of each element's amplitude products
    |h_f| |h_r| and |h_f| |h_t|, shaped (..., M). With every element's
    phase aligned, a user's gain is power * (sum of its products)^2 / noise;
    the reflect-side share g_t / (g_r + g_t) equalizes the two users' SNRs,
    and the rate is log2(1 + min of the two). With either gain zero the min
    is 0 whatever the share, so the divisor is guarded only where both are.
    """
    g_r = power * a_r.sum(axis=-1) ** 2 / noise_power
    g_t = power * a_t.sum(axis=-1) ** 2 / noise_power
    total = g_r + g_t
    beta_r = g_t / np.where(total > 0, total, 1.0)
    return np.log2(1.0 + np.minimum(beta_r * g_r, (1.0 - beta_r) * g_t))


def amplitude_weights(realization: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Per-preset products |h_f| |h_r| and |h_f| |h_t|, shape (L,) each.

    Under phase alignment a placement's amplitude sums are these weights
    summed over its presets, so they are all a placement search needs.
    """
    amp_f = np.abs(realization.h_f)
    return amp_f * np.abs(realization.h_r), amp_f * np.abs(realization.h_t)


def lattice_rates(weights, idx, power, noise_power):
    """Max-min rates of a batch of (..., M) flat lattice indices, from the
    `amplitude_weights` of a realization: `split_and_rates` of the weights
    gathered at those presets."""
    w_r, w_t = weights
    return split_and_rates(w_r[idx], w_t[idx], power, noise_power)


def _check_weights(weights, geom: SurfaceGeometry) -> None:
    """Reject `amplitude_weights` drawn on a lattice of another preset count."""
    if len(weights[0]) != geom.n_presets:
        raise ValueError(f"weights cover {len(weights[0])} presets, geometry has {geom.n_presets}")
