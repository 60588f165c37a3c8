"""Max-min rates of placements under the closed-form phases and energy split.

With every element's phase aligned and the equalizing split, a placement's
max-min rate depends only on the sums over its elements of |h_f| |h_r| and
|h_f| |h_t|. `split_and_rates` is that closed form and the one scoring
primitive: every rate the program reports comes from it, fed the
per-preset products of a realization (`amplitude_weights`) gathered at a
placement's presets by `lattice_rates`, so a trial converts its channel
once. Both reduce over the last axis: one placement's (M,) products or
indices, or a batch shaped (..., M), give matching leading dimensions.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .geometry import SurfaceGeometry


def split_and_rates(a_r, a_t, power, noise_power):
    """Max-min rates (bits/s/Hz) of placements under optimal phases and the
    equalizing split: log2(1 + (P/N) S_r^2 S_t^2 / (S_r^2 + S_t^2)).

    `a_r` and `a_t` hold each element's amplitude products |h_f| |h_r| and
    |h_f| |h_t|, shaped (..., M), and S_r, S_t are their sums. The form is
    symmetric in the users and keeps its precision when one gain dwarfs the
    other. The sums combine before the scaling by P/N, which a config
    may set near 1e304. The rate is 0 where either sum is, so the divisor
    is guarded only where both are. The name stays from the split this once
    returned: the benchmark's tracer times the scoring under it.
    """
    s_r2, s_t2 = a_r.sum(axis=-1) ** 2, a_t.sum(axis=-1) ** 2
    total = s_r2 + s_t2
    return np.log2(1.0 + power * (s_r2 * s_t2 / np.where(total > 0, total, 1.0)) / noise_power)


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
