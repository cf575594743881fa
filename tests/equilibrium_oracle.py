"""Per-user equilibrium iteration and waterfill, kept as test oracles.

``oracle_waterfill`` is the one-row waterfill as it stood before
``specnash.waterfilling.waterfill_rows`` solved stacks of rows: it tries
the level solve and falls back to the trivial or saturation branch when
the solve finds no level (NaN), and it also names the branch it took.
``oracle_response_map`` stacks Q validated ``best_response`` calls, and
``oracle_solve`` is the sweep loop of ``specnash.equilibrium.solve`` built
on them: each sequential step and each residual map recomputes the whole
interference map and validates one user's ``WaterfillInput``.
"""

from __future__ import annotations

import numpy as np

from specnash.equilibrium import best_response
from specnash.errors import InfeasibleWaterfillError, NumericFailureError
from specnash.rng import derive_rng
from specnash.waterfilling import level_solve


def oracle_waterfill(g, i, Gamma: float, pmax, budget: float = 1.0):
    """One row: returns (p, mu, branch), mu None off the level branch.

    ``branch`` is "level", "polish" (the level after its Newton polish),
    "trivial" (all caps short of the budget) or "saturate" (the caps of
    the usable bins short of it).
    """
    g, i, pmax = (np.asarray(a, dtype=np.float64) for a in (g, i, pmax))
    target = budget * g.size
    if g.min() > 0.0:
        prices = Gamma * i / g
    else:
        prices = np.divide(Gamma * i, g, out=np.full(g.size, np.inf), where=g > 0.0)
    mu = level_solve(prices, pmax, target)
    if np.isnan(mu):
        if pmax.sum() < target:
            return pmax.copy(), None, "trivial"
        if not (g > 0.0).any():
            raise InfeasibleWaterfillError("all gains are zero with caps above budget")
        return np.where(g > 0.0, pmax, 0.0), None, "saturate"
    p = np.minimum(np.maximum(mu - prices, 0.0), pmax)
    err = p.sum() - target
    if abs(err) > 1e-13 * max(1.0, target):
        interior = (p > 0.0) & (p < pmax)
        if interior.any():
            mu -= err / interior.sum()
            return np.minimum(np.maximum(mu - prices, 0.0), pmax), mu, "polish"
    return p, mu, "level"


def oracle_response_map(p: np.ndarray, game) -> np.ndarray:
    return np.stack([best_response(q, p, game) for q in range(game.Q)])


def oracle_solve(game, schedule="sequential", init=None, tol=1e-8, max_iter=1000,
                 order_seed=None):
    """The per-user sweep loop: returns (p, residual, trace, iterations, converged)."""
    p = np.minimum(1.0, game.pmax) if init is None else np.array(init, dtype=np.float64)
    order_rng = derive_rng(order_seed) if order_seed is not None else None
    trace = []
    residual = np.inf
    iterations = 0
    converged = False
    nxt = oracle_response_map(p, game) if schedule == "simultaneous" else None
    for it in range(1, max_iter + 1):
        iterations = it
        if schedule == "sequential":
            order = np.arange(game.Q) if order_rng is None else order_rng.permutation(game.Q)
            for q in order:
                p[q] = best_response(q, p, game)
        else:
            p = nxt
        if not np.isfinite(p).all():
            raise NumericFailureError(f"non-finite iterate at sweep {it}")
        nxt = oracle_response_map(p, game)
        residual = float(np.abs(p - nxt).max())
        trace.append(residual)
        if residual <= tol:
            converged = True
            break
    return p, residual, np.asarray(trace), iterations, converged
