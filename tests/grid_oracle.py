"""``pareto._box_simplex_grid`` as it was written with one branch per N.

The package now builds the grid with one meshgrid-and-filter for every
N <= 3; the per-N branches it replaced are kept here verbatim so a test can
assert the arrays are bit-equal.
"""

from __future__ import annotations

import numpy as np

from specnash.errors import InvalidInputError


def oracle_box_simplex_grid(pmax_q: np.ndarray, N: int, resolution: int) -> np.ndarray:
    """Gridded strategies covering one user's whole set (budget may be slack)."""
    total = float(N)
    cap = np.minimum(pmax_q, total)
    if N == 1:
        return np.linspace(0.0, cap[0], resolution)[:, None]
    if N == 2:
        ax0 = np.linspace(0.0, cap[0], resolution)
        ax1 = np.linspace(0.0, cap[1], resolution)
        P0, P1 = np.meshgrid(ax0, ax1, indexing="ij")
        pts = np.column_stack([P0.ravel(), P1.ravel()])
        return pts[pts.sum(axis=1) <= total + 1e-12]
    if N == 3:
        axes = [np.linspace(0.0, cap[j], resolution) for j in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        return pts[pts.sum(axis=1) <= total + 1e-12]
    raise InvalidInputError("grid sampling implemented for N <= 3")
