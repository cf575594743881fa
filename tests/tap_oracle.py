"""The per-link tap loop of ``channel.ratio_scenario``, kept as an oracle.

Each link (r, q) drew its own stream ``derive_rng(*key, r, q)``: first the
real parts of its taps, then the imaginary parts.  ``ratio_scenario`` now
draws every link in one ``keyed_normals`` call and must match this loop
bit for bit.
"""

import numpy as np

from specnash.rng import derive_rng


def oracle_taps(Q, channel_order, seed, tap_variance=None, tap_decay=None):
    if tap_decay is not None:
        profile = np.exp(-np.arange(channel_order + 1) / float(tap_decay))
        profile /= profile.sum()
    elif tap_variance is not None:
        profile = np.full(channel_order + 1, float(tap_variance))
    else:
        profile = np.full(channel_order + 1, 1.0 / (channel_order + 1))
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    taps = np.empty((Q, Q, channel_order + 1), dtype=np.complex128)
    for r in range(Q):
        for q in range(Q):
            rng = derive_rng(*key, r, q)
            taps[r, q] = np.sqrt(profile / 2.0) * (
                rng.standard_normal(channel_order + 1)
                + 1j * rng.standard_normal(channel_order + 1)
            )
    return taps
