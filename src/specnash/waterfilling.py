"""Masked single-user waterfilling: the best-response operator of the game.

Given direct gains g(k), interference-plus-noise factors i(k) >= 1, a gap
Gamma and per-bin caps, the operator returns

    p(k) = clip(mu - Gamma * i(k) / g(k), 0, pmax(k)),

with the level mu chosen so that mean_k p(k) equals the budget whenever the
caps allow it.  The caps absorb the budget exactly when the caps of the
bins that can enter sum to at least N * budget, with no tolerance (caps
summing to exactly that put every bin at its cap).  If all caps sum to
less, the constraint set pins every bin to its cap and that trivial
allocation is returned; if only the usable bins fall short, they are
saturated.  A bin is usable when its price Gamma*i(k)/g(k) (:func:`bin_prices`)
is finite: bins with g(k) = 0, or so small that the price overflows, carry
an infinite price and receive zero power whenever the budget can be met.

The level is found by :func:`level_solve`, an exact sort-based solve over
the piecewise-linear supply curve (O(N log N)) that also serves stacks of
rows at once: usable-bin pruning and the Euclidean projection onto a
user's strategy set solve the same problem.  A row whose enterable caps
fall short gets a NaN level.  :func:`waterfill_rows` runs the whole
operator on raw stacks of rows (one equilibrium sweep, all users at once)
and is the one place that raises :class:`InfeasibleWaterfillError`, for a
user with no usable bin and caps above the budget; :func:`waterfill` is
its validated one-row form.  Budget is met to 1e-12 absolute, which
leaves headroom for fixed-point residual targets of 1e-8 downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import NormalizedGame
from .errors import InfeasibleWaterfillError, InvalidInputError, NumericFailureError


@dataclass(frozen=True)
class PowerProfile:
    """Stacked per-user, per-bin normalized powers, shape (Q, N)."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        if self.p.ndim != 2:
            raise InvalidInputError(f"profile must be (Q, N), got shape {self.p.shape}")

    def budget_used(self) -> np.ndarray:
        """Fraction of each user's budget in use, shape (Q,)."""
        return self.p.mean(axis=1)

    def is_feasible(self, game: NormalizedGame) -> bool:
        """Check 0 <= p <= pmax per bin and mean_k p(k) <= 1 per user, to 1e-9."""
        p = self.p
        return p.shape == (game.Q, game.N) and bool(
            (p >= -1e-9).all() and (p <= game.pmax + 1e-9).all()
            and (self.budget_used() <= 1.0 + 1e-9).all())


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
        for name in ("g", "i", "pmax"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
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


def bin_prices(g, i, Gamma) -> np.ndarray:
    """Prices Gamma * i / g: +inf exactly on a dead bin (g = 0, or a quotient that overflows, as
    Gamma * i >= 1).  The package's one rule for whether a bin can carry power."""
    with np.errstate(divide="ignore", over="ignore"):
        return Gamma * i / g


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
    candidates = c.cumsum(-1)  # (target + cumsum) / count, in place: no stack-sized temporaries
    candidates += target[..., None]
    candidates /= _counts(c.shape[-1])
    # Largest active set whose level still clears its worst price; the
    # cheapest bin always enters at a positive target.
    clears = candidates > c
    clears[..., 0] = True
    mu = _pick(candidates, c.shape[-1] - 1 - clears[..., ::-1].argmax(-1))
    dead = mu == np.inf  # every price infinite: no bin can take power
    return np.where(dead, np.nan, mu) if np.count_nonzero(dead) else mu


def _capacity(caps: np.ndarray, enterable=True):
    """Sum of the caps of the enterable bins, row by row.

    The one capacity rule: caps absorb a target exactly when this sum is at
    least the target, compared with no tolerance.
    """
    return np.where(enterable, caps, 0.0).sum(-1)


def _walk_level(prices: np.ndarray, caps: np.ndarray, target: np.ndarray):
    """Levels of rows by walking their sorted supply breakpoints.

    Each bin enters at its price and saturates at price + cap.  A breakpoint
    that is never reached (infinite price or cap) becomes NaN: it sorts
    last, and the walk stops before the first one.  Past the last
    breakpoint every bin sits at its cap.
    """
    short = _capacity(caps, prices < np.inf) < target
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
    # With no bin active (past the last breakpoint) the step of a row that
    # is not short only makes up the rounding of its supply sum.
    mu = base + (target - s) / np.maximum(a, 1.0)
    return np.where(short, np.nan, mu) if np.count_nonzero(short) else mu


def level_solve(prices, caps, target) -> np.ndarray | float:
    """Levels mu with sum_k clip(mu - prices_k, 0, caps_k) = target.

    Solves each row of ``(..., N)`` price and cap arrays (caps broadcast
    against prices; the positive ``target`` is a scalar or has shape
    ``(...)``) and returns shape ``(...)``, or a float for 1-D prices.
    Supply is piecewise linear and nondecreasing in mu.  A ``+inf`` price
    keeps its bin empty at every level; a ``+inf`` cap lets its bin grow
    without bound.  Rows with no finite cap take the sorted
    cumulative-mean formula; the others walk their sorted breakpoints and
    invert the active segment.  A row whose enterable caps sum to less than
    its target (all prices infinite included) gets NaN, not a level.
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
    if capped.all():
        mu = _walk_level(prices, caps, target)
    elif not capped.any():
        mu = _cummean_level(prices, target)
    else:
        mu = np.empty(prices.shape[0])
        mu[~capped] = _cummean_level(prices[~capped], target[~capped])
        mu[capped] = _walk_level(prices[capped], caps[capped], target[capped])
    return mu.reshape(shape)


def waterfill_rows(g, i, Gamma, pmax, budget: float = 1.0):
    """Waterfill every row of ``(..., N)`` arrays at once: returns (p, mu).

    Row r solves the problem of :func:`waterfill` for gains ``g[r]``,
    interference factors ``i[r]``, gap ``Gamma[r]`` (``Gamma`` is a scalar
    or has shape ``(...)``) and caps ``pmax[r]``, and is bit-equal to the
    same row solved alone; ``mu[r]`` is its level, NaN on the trivial and
    saturation branches; a row with no usable bin and caps above the budget
    raises :class:`InfeasibleWaterfillError`, one whose level's rounding
    loses the budget :class:`NumericFailureError`.  The operands are not
    validated: the caller guarantees what :class:`WaterfillInput` checks.
    1-D operands give a 1-D allocation and a float level.
    """
    g = np.asarray(g, dtype=np.float64)
    i = np.asarray(i, dtype=np.float64)
    pmax = np.asarray(pmax, dtype=np.float64)
    # Per-row scalars broadcast along a new last axis; a 1-D row keeps them
    # scalar, which keeps the one-row path as fast as a plain 1-D solve.
    rows = g.ndim > 1
    col = (lambda a: np.asarray(a)[..., None]) if rows else (lambda a: a)
    target = budget * g.shape[-1]
    prices = bin_prices(g, i, col(Gamma))
    mu = level_solve(prices, pmax, target)
    # np.clip without its dispatch overhead, which shows at N = 64.
    p = np.minimum(np.maximum(col(mu) - prices, 0.0), pmax)
    err = p.sum(-1) - target
    met = abs(err) <= 1e-13 * max(1.0, target)
    if not (met.all() if rows else met):
        # Newton polish on the interior bins guards against float drift.  A
        # short row fails the test too, but its NaN level has no interior.
        interior = ((p > 0.0) & (p < pmax)).sum(-1)
        drift = ~met & (interior > 0)
        mu = np.where(drift, mu - err / np.maximum(interior, 1), mu)
        polished = np.minimum(np.maximum(col(mu) - prices, 0.0), pmax)
        p = np.where(col(drift), polished, p)
        short = np.isnan(mu)
        missed = abs(p.sum(-1) - target) > 1e-13 * max(1.0, target)
        if (missed & ~short & (((p > 0.0) & (p < pmax)).sum(-1) == 0)).any():
            raise NumericFailureError("waterfill level lost to rounding: the budget is missed")
        if short.any():
            # The caps of the usable bins (those with a finite price) cannot
            # absorb the budget.  Where all caps fall short too, the strategy
            # set collapses onto them; otherwise the usable bins saturate and
            # the rest stay unused (rate-optimal, level unbounded).
            usable = prices < np.inf
            trivial = _capacity(pmax) < target
            if (short & ~trivial & ~usable.any(-1)).any():
                raise InfeasibleWaterfillError(
                    "a user has no usable bin (each gain is zero or too small for a finite "
                    "price) and caps above its budget")
            fill = np.where(col(trivial) | usable, pmax, 0.0)
            p = np.where(col(short), fill, p)
    return p, (mu if rows else float(mu))


def waterfill(inp: WaterfillInput) -> np.ndarray:
    """Optimal single-user allocation for the given prices and caps.

    Returns the cap vector itself when the caps cannot absorb the budget
    (the feasible set collapses onto its upper face), otherwise the
    level-clipped allocation with the budget met to 1e-12.
    """
    return waterfill_rows(inp.g, inp.i, inp.Gamma, inp.pmax, inp.budget)[0]


def kkt_residual(p: np.ndarray, inp: WaterfillInput) -> float:
    """Worst stationarity / complementary-slackness violation of ``p``.

    Measured in water-level units: zero (up to rounding) exactly when ``p``
    solves the same problem as :func:`waterfill`.  Interior bins must sit on
    a common level Gamma*i/g + p = mu; bins at zero must price at or above
    mu, capped bins at or below; the budget must be exhausted whenever the
    caps allow it, and dead bins (infinite price) must carry no power while it binds.

    Raises if ``p`` leaves its box or budget by more than 1e-9.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != inp.g.shape:
        raise InvalidInputError("profile and input shapes disagree")
    if (p < -1e-9).any() or (p > inp.pmax + 1e-9).any():
        raise InvalidInputError("power vector violates its box constraints")
    if p.mean() > inp.budget + 1e-9:
        raise InvalidInputError("power vector exceeds the budget")

    all_prices = bin_prices(inp.g, inp.i, inp.Gamma)
    usable = all_prices < np.inf
    atol = 1e-12 * max(1.0, inp.budget)
    target = inp.budget * inp.N

    if _capacity(inp.pmax) < target:
        # Trivial branch: the unique optimum is the cap vector.
        return float(np.abs(p - inp.pmax).max())
    if _capacity(inp.pmax, usable) < target:
        # Saturation branch: usable bins at cap, dead bins irrelevant.
        return float(np.abs(p[usable] - inp.pmax[usable]).max()) if usable.any() else 0.0

    prices, caps, pu = all_prices[usable], inp.pmax[usable], p[usable]
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
