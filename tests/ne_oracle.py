"""Exhaustive gridded search for Nash equilibria, kept as a test oracle.

``brute_force_ne`` enumerates every profile of a desk-scale game on the
full-budget face of each user's strategy set and keeps the ones no user
can improve on by more than the grid-induced slack.  It shares only the
grid helpers with ``specnash`` and none of the waterfilling code, so it
cross-checks :func:`specnash.equilibrium.solve` (criterion 02 and
``TestBruteForce``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from specnash.channel import NormalizedGame
from specnash.errors import InvalidInputError
from specnash.pareto import _budget_face_grid, _grid_rates


@dataclass(frozen=True)
class BruteForceResult:
    """Gridded approximate equilibria found by exhaustive search."""

    profiles: list
    indices: np.ndarray
    delta: np.ndarray
    clusters: list
    grids: list


def brute_force_ne(game: NormalizedGame, grid: int = 64) -> BruteForceResult:
    """Enumerate gridded profiles and keep the approximate equilibria.

    Desk-scale oracle (Q*N <= 6, grid >= 16): a profile is kept when no
    user can improve its rate by more than the grid-induced slack delta_q
    through any gridded deviation.  Each user's rate is concave along its
    own strategy axis, so the continuum best response can beat the best
    grid point by at most the smaller discrete payoff drop next to the
    gridded argmax; delta_q is that drop maximized over opponent strategies
    (with a 4x safety factor covering the opponents' own grid offsets).
    """
    Q, N = game.Q, game.N
    if Q * N > 6:
        raise InvalidInputError("brute force is desk-scale only (Q*N <= 6)")
    if grid < 16:
        raise InvalidInputError("grid must be >= 16 points per dimension")
    grids = [_budget_face_grid(game.pmax[q], grid) for q in range(Q)]
    sizes = [g.shape[0] for g in grids]
    if int(np.prod(sizes)) * N > 4_000_000:
        raise InvalidInputError("grid too large; lower the resolution")

    delta = np.empty(Q)
    rates = []
    for q in range(Q):
        R = _grid_rates(game, grids, q)
        rates.append(R)
        delta[q] = 4.0 * _argmax_drop(R, axis=q) + 1e-12

    accepted = np.ones(tuple(sizes), dtype=bool)
    for q in range(Q):
        best = rates[q].max(axis=q, keepdims=True)
        accepted &= rates[q] >= best - delta[q]
    idx = np.argwhere(accepted)

    profiles = [np.stack([grids[q][i[q]] for q in range(Q)]) for i in idx]
    labels, nlab = ndimage.label(accepted, structure=np.ones((3,) * Q, dtype=int))
    point_label = labels[tuple(idx.T)] if idx.size else np.empty(0, dtype=int)
    clusters = [np.nonzero(point_label == lab)[0].tolist() for lab in range(1, nlab + 1)]
    return BruteForceResult(
        profiles=profiles, indices=idx, delta=delta, clusters=clusters, grids=grids
    )


def _argmax_drop(R: np.ndarray, axis: int) -> float:
    """Worst-case gap between grid and continuum maxima along one axis.

    For a concave section, the continuum max exceeds the grid max by at
    most the smaller payoff drop to the argmax's two neighbors (one-sided
    at the boundary).  Returns that drop maximized over all sections.
    """
    R = np.moveaxis(R, axis, -1)
    S = R.shape[-1]
    if S < 2:
        return 0.0
    flat = R.reshape(-1, S)
    m = flat.argmax(axis=1)
    rows = np.arange(flat.shape[0])
    best = flat[rows, m]
    left = best - flat[rows, np.maximum(m - 1, 0)]
    right = best - flat[rows, np.minimum(m + 1, S - 1)]
    # Interior argmax: min of the two drops; boundary: the available one.
    drop = np.minimum(left, right)
    drop[m == 0] = right[m == 0]
    drop[m == S - 1] = left[m == S - 1]
    return float(drop.max())
