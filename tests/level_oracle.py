"""Bisection level solves, kept as cross-check oracles for the tests.

``oracle_level`` finds mu with sum_k clip(mu - prices_k, 0, caps_k) = target
by bisecting on the supply curve of one row; ``oracle_project`` projects a
vector onto {0 <= x <= pmax, mean(x) <= 1} by bisecting on the simplex
multiplier.  Neither shares code with ``specnash.waterfilling.level_solve``,
which solves both problems exactly by walking sorted breakpoints.
"""

from __future__ import annotations

import numpy as np

from specnash.errors import InfeasibleWaterfillError


def oracle_level(prices: np.ndarray, caps: np.ndarray, target: float, iters: int = 200) -> float:
    """Level of one row by bisection; bins with an infinite price never enter."""
    prices = np.asarray(prices, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    live = np.isfinite(prices)
    if not live.any():
        raise InfeasibleWaterfillError("every price is infinite")
    prices, caps = prices[live], caps[live]
    if caps.sum() < target:
        raise InfeasibleWaterfillError("caps cannot absorb the target")
    lo = float(prices.min())
    hi, step = float(prices.max()) + target, target
    while np.clip(hi - prices, 0.0, caps).sum() < target:
        hi, step = hi + step, 2.0 * step
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(mid - prices, 0.0, caps).sum() < target:
            lo = mid
        else:
            hi = mid
    return hi


def oracle_project(y: np.ndarray, pmax: np.ndarray) -> np.ndarray:
    """Projection onto one user's strategy set (budget 1) by an 80-step bisection."""
    y = np.asarray(y, dtype=np.float64)
    x = np.clip(y, 0.0, pmax)
    target = float(y.size)
    if x.sum() <= target + 1e-15:
        return x
    lo, hi = 0.0, float(y.max())
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.clip(y - mid, 0.0, pmax).sum() > target:
            lo = mid
        else:
            hi = mid
    return np.clip(y - hi, 0.0, pmax)
