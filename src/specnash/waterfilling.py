"""Masked single-user waterfilling: the best-response operator of the game.

Given direct gains g(k), interference-plus-noise factors i(k) >= 1, a gap
Gamma and per-bin caps, the operator returns

    p(k) = clip(mu - Gamma * i(k) / g(k), 0, pmax(k)),

with the level mu chosen so that mean_k p(k) equals the budget whenever the
caps allow it.  If the caps sum to less than the budget the constraint set
pins every bin to its cap and that trivial allocation is returned.  Bins
with g(k) = 0 carry an infinite price and always receive zero power.

The level is found by :func:`level_solve`, an exact sort-based solve over
the piecewise-linear supply curve (O(N log N)) that also serves stacks of
rows at once: usable-bin pruning and the Euclidean projection onto a
user's strategy set solve the same problem.  Budget is met to 1e-12
absolute, which leaves headroom for fixed-point residual targets of 1e-8
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import NormalizedGame
from .errors import InfeasibleWaterfillError, InvalidInputError

# Mask-sum shortfalls smaller than this are treated as exact ties.
_TRIVIAL_TOL = 1e-15


@dataclass(frozen=True)
class PowerProfile:
    """Stacked per-user, per-bin normalized powers, shape (Q, N)."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        if self.p.ndim != 2:
            raise InvalidInputError(f"profile must be (Q, N), got shape {self.p.shape}")

    @property
    def Q(self) -> int:
        return self.p.shape[0]

    @property
    def N(self) -> int:
        return self.p.shape[1]

    def budget_used(self) -> np.ndarray:
        """Fraction of each user's budget in use, shape (Q,)."""
        return self.p.mean(axis=1)

    def is_feasible(self, game: NormalizedGame, tol: float = 1e-9) -> bool:
        """Check 0 <= p <= pmax per bin and mean_k p(k) <= 1 per user."""
        p = self.p
        if p.shape != (game.Q, game.N):
            return False
        return bool(
            (p >= -tol).all()
            and (p <= game.pmax + tol).all()
            and (self.budget_used() <= 1.0 + tol).all()
        )


@dataclass(frozen=True)
class WaterfillInput:
    """Operands of one waterfilling solve.

    g: direct squared gains per bin; i: interference-plus-noise factors
    (>= 1); Gamma: SNR gap (>= 1); pmax: per-bin caps (inf = uncapped);
    budget: target mean power (1 in the normalized game).
    """

    g: np.ndarray
    i: np.ndarray
    Gamma: float
    pmax: np.ndarray
    budget: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64))
        object.__setattr__(self, "i", np.asarray(self.i, dtype=np.float64))
        object.__setattr__(self, "pmax", np.asarray(self.pmax, dtype=np.float64))
        object.__setattr__(self, "Gamma", float(self.Gamma))
        object.__setattr__(self, "budget", float(self.budget))
        if not (self.g.shape == self.i.shape == self.pmax.shape) or self.g.ndim != 1:
            raise InvalidInputError("g, i, pmax must be 1-D vectors of equal length")
        if not np.isfinite(self.g).all() or (self.g < 0).any():
            raise InvalidInputError("gains must be finite and nonnegative")
        if not np.isfinite(self.i).all() or (self.i < 1.0 - 1e-12).any():
            raise InvalidInputError("interference factors must be finite and >= 1")
        if np.isnan(self.pmax).any() or (self.pmax < 0).any():
            raise InvalidInputError("pmax must be nonnegative")
        if self.Gamma < 1.0:
            raise InvalidInputError("Gamma must be >= 1")
        if self.budget <= 0:
            raise InvalidInputError("budget must be positive")

    @property
    def N(self) -> int:
        return self.g.size

    def mask_total(self) -> float:
        """Mean of the caps (inf if any bin is uncapped)."""
        return float(self.pmax.mean())


@cache
def _counts(n: int) -> np.ndarray:
    return np.arange(1.0, n + 1.0)


@cache
def _signs(n: int) -> np.ndarray:
    """Supply slope change at each of n entry then n saturation breakpoints."""
    return np.repeat([1.0, -1.0], n)


def _pick(a: np.ndarray, idx) -> np.ndarray:
    """``a[..., idx]`` row by row, for a 1-D or (M, n) ``a`` and matching ``idx``."""
    if a.ndim == 1:
        return a[idx]
    rows = np.arange(a.shape[0])
    return a[rows[:, None] if idx.ndim == 2 else rows, idx]


def _cummean_level(prices: np.ndarray, target: np.ndarray):
    """Levels of rows with no finite cap: the sorted cumulative-mean solve."""
    c = np.sort(prices, axis=-1)
    candidates = (target[..., None] + c.cumsum(-1)) / _counts(c.shape[-1])
    # Largest active set whose level still clears its worst price; the
    # cheapest bin always enters at a positive target.
    clears = candidates > c
    clears[..., 0] = True
    mu = _pick(candidates, c.shape[-1] - 1 - clears[..., ::-1].argmax(-1))
    if np.count_nonzero(mu == np.inf):
        raise InfeasibleWaterfillError("every price is infinite: no bin can take power")
    return mu


def _walk_level(prices: np.ndarray, caps: np.ndarray, target: np.ndarray):
    """Levels of rows by walking their sorted supply breakpoints.

    Each bin enters at its price and saturates at price + cap.  A breakpoint
    that is never reached (infinite price or cap) becomes NaN: it sorts
    last, and the walk stops before the first one.
    """
    pts = np.concatenate([prices, prices + caps], axis=-1)
    pts[pts == np.inf] = np.nan
    order = pts.argsort(-1)
    pts = _pick(pts, order)
    active = _signs(prices.shape[-1])[order].cumsum(-1)
    supply = np.zeros(pts.shape)
    (active[..., :-1] * (pts[..., 1:] - pts[..., :-1])).cumsum(-1, out=supply[..., 1:])
    # Last breakpoint before the first whose supply exceeds the target or is
    # NaN; -1 (the last one) when there is none.  supply[0] = 0 < target.
    j = (supply <= target[..., None]).argmin(-1) - 1
    base, s, a = _pick(pts, j), _pick(supply, j), _pick(active, j)
    # Off the short rows s equals the target, so the step is zero.
    mu = base + (target - s) / np.maximum(a, 1.0)
    if np.count_nonzero((s < target) & (a <= 0) | np.isnan(mu)):
        raise InfeasibleWaterfillError("caps cannot absorb the target, or no bin can enter")
    return mu


def level_solve(prices, caps, target) -> np.ndarray | float:
    """Levels mu with sum_k clip(mu - prices_k, 0, caps_k) = target.

    Solves each row of ``(..., N)`` price and cap arrays (caps broadcast
    against prices; the positive ``target`` is a scalar or has shape
    ``(...)``) and returns shape ``(...)``, or a float for 1-D prices.
    Supply is piecewise linear and nondecreasing in mu.  A ``+inf`` price
    keeps its bin empty at every level; a ``+inf`` cap lets its bin grow
    without bound.  Rows with no finite cap take the sorted
    cumulative-mean formula; the others walk their sorted breakpoints and
    invert the active segment.  Raises if a row's capacity falls short of
    its target or all of its prices are infinite.
    """
    prices = np.asarray(prices, dtype=np.float64)
    caps = np.asarray(caps, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prices.ndim == 1:
        if caps.min() < np.inf:
            return float(_walk_level(prices, caps, target))
        return float(_cummean_level(prices, target))
    shape, N = prices.shape[:-1], prices.shape[-1]
    prices = prices.reshape(-1, N)
    caps = np.broadcast_to(caps, shape + (N,)).reshape(-1, N)
    target = np.broadcast_to(target, shape).reshape(-1)
    capped = caps.min(-1) < np.inf
    mu = np.empty(prices.shape[0])
    if not capped.all():
        mu[~capped] = _cummean_level(prices[~capped], target[~capped])
    if capped.any():
        mu[capped] = _walk_level(prices[capped], caps[capped], target[capped])
    return mu.reshape(shape)


def _solve_arrays(g: np.ndarray, i: np.ndarray, Gamma: float, pmax: np.ndarray, budget: float):
    """Solve on raw arrays: returns (p, mu), mu None off the level branch."""
    if pmax.sum() / g.size < budget - _TRIVIAL_TOL:
        return pmax.copy(), None
    target = budget * g.size
    if g.min() > 0.0:
        prices = Gamma * i / g
    else:
        usable = g > 0.0
        if not usable.any():
            raise InfeasibleWaterfillError("all gains are zero with caps above budget")
        caps = pmax[usable]
        if np.isfinite(caps).all() and caps.sum() < target - _TRIVIAL_TOL * g.size:
            # Budget unattainable on the usable bins alone: saturate them and
            # leave the remainder unused (rate-optimal, level unbounded).
            return np.where(usable, pmax, 0.0), None
        # A dead bin's infinite price keeps it empty at every level.
        prices = np.divide(Gamma * i, g, out=np.full(g.size, np.inf), where=usable)
    mu = level_solve(prices, pmax, target)
    # np.clip without its dispatch overhead, which shows at N = 64.
    p = np.minimum(np.maximum(mu - prices, 0.0), pmax)
    err = p.sum() - target
    if abs(err) > 1e-13 * max(1.0, target):
        # Newton polish on the interior bins guards against float drift.
        interior = (p > 0.0) & (p < pmax)
        if interior.any():
            mu -= err / interior.sum()
            p = np.minimum(np.maximum(mu - prices, 0.0), pmax)
    return p, mu


def waterfill(inp: WaterfillInput) -> np.ndarray:
    """Optimal single-user allocation for the given prices and caps.

    Returns the cap vector itself when the caps cannot absorb the budget
    (the feasible set collapses onto its upper face), otherwise the
    level-clipped allocation with the budget met to 1e-12.
    """
    p, _ = _solve_arrays(inp.g, inp.i, inp.Gamma, inp.pmax, inp.budget)
    return p


def water_level(inp: WaterfillInput) -> float:
    """Level mu at which the clipped allocation meets the budget exactly.

    Defined only when the caps admit the budget; raises otherwise.
    """
    if inp.mask_total() < inp.budget - _TRIVIAL_TOL:
        raise InvalidInputError("caps sum below budget: the level is undefined (trivial branch)")
    p, mu = _solve_arrays(inp.g, inp.i, inp.Gamma, inp.pmax, inp.budget)
    if mu is None:
        raise InfeasibleWaterfillError(
            "caps on usable bins cannot absorb the budget; no finite level exists"
        )
    return mu


def kkt_residual(p: np.ndarray, inp: WaterfillInput, feas_tol: float = 1e-9) -> float:
    """Worst stationarity / complementary-slackness violation of ``p``.

    Measured in water-level units: zero (up to rounding) exactly when ``p``
    solves the same problem as :func:`waterfill`.  Interior bins must sit on
    a common level Gamma*i/g + p = mu; bins at zero must price at or above
    mu, capped bins at or below; the budget must be exhausted whenever the
    caps allow it, and zero-gain bins must carry no power while it binds.

    Raises if ``p`` is infeasible beyond ``feas_tol``.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != inp.g.shape:
        raise InvalidInputError("profile and input shapes disagree")
    if (p < -feas_tol).any() or (p > inp.pmax + feas_tol).any():
        raise InvalidInputError("power vector violates its box constraints")
    if p.mean() > inp.budget + feas_tol:
        raise InvalidInputError("power vector exceeds the budget")

    usable = inp.g > 0
    atol = 1e-12 * max(1.0, inp.budget)
    mask_total = inp.mask_total()
    capacity = inp.pmax[usable].sum() / inp.N if usable.any() else 0.0

    if mask_total < inp.budget - _TRIVIAL_TOL:
        # Trivial branch: the unique optimum is the cap vector.
        return float(np.abs(p - inp.pmax).max())
    if capacity < inp.budget - _TRIVIAL_TOL:
        # Saturation branch: usable bins at cap, dead bins irrelevant.
        return float(np.abs(p[usable] - inp.pmax[usable]).max()) if usable.any() else 0.0

    prices = inp.Gamma * inp.i[usable] / inp.g[usable]
    caps = inp.pmax[usable]
    pu = p[usable]
    level = prices + pu
    at_zero = pu <= atol
    at_cap = np.isfinite(caps) & (pu >= caps - atol)
    interior = ~(at_zero | at_cap)

    if interior.any():
        mu = float(level[interior].mean())
    else:
        lo = float(level[at_cap].max()) if at_cap.any() else -np.inf
        hi = float(prices[at_zero].min()) if at_zero.any() else np.inf
        if lo <= hi:
            mu = lo if np.isfinite(lo) else (hi if np.isfinite(hi) else 0.0)
        else:
            mu = 0.5 * (lo + hi)

    res = abs(p.mean() - inp.budget)
    if interior.any():
        res = max(res, float(np.abs(level[interior] - mu).max()))
    if at_zero.any():
        res = max(res, max(0.0, mu - float(prices[at_zero].min())))
    if at_cap.any():
        res = max(res, max(0.0, float(level[at_cap].max()) - mu))
    if (~usable).any():
        # While the budget binds, any power on a dead bin is wasted.
        res = max(res, float(p[~usable].max()))
    return float(res)
