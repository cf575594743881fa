"""Rate region, Pareto frontier, and cooperative benchmarks.

Everything here judges how good an equilibrium is: achievable rate
vectors over the feasible profiles, the Pareto subset, the weighted-sum
scalarization of the multi-objective problem, a modified game whose
equilibria sit on the frontier, and the max-min rate each user can
guarantee against arbitrary (feasible) opponents.

Rates default to bits per symbol per bin (base 2); the log base is a
parameter everywhere, with natural logs used internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NormalizedGame
from .equilibrium import _budget_face_grid, _grid_rates, solve
from .errors import InvalidInputError
from .rng import derive_rng
from .waterfilling import PowerProfile, WaterfillInput, level_solve, waterfill


@dataclass(frozen=True)
class RatePoint:
    """One achievable rate vector and where it came from."""

    r: np.ndarray
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=np.float64))
        if (self.r < -1e-12).any():
            raise InvalidInputError("rates must be nonnegative")


def _check_weights(weights, Q: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (Q,) or (w <= 0).any():
        raise InvalidInputError("weights must be (Q,) and strictly positive")
    return w


def _interference(p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    """Per-user interference-plus-noise factors i_q(k), shape (Q, N)."""
    direct = game.direct_gain2()
    total = np.einsum("rqk,rk->qk", game.gain2, p)
    return np.maximum(1.0 + total - direct * p, 1.0)


def rate_array(p: np.ndarray, game: NormalizedGame, base: float = 2.0) -> np.ndarray:
    """Per-user information rates of a profile, shape (Q,)."""
    p = np.asarray(p, dtype=np.float64)
    direct = game.direct_gain2()
    sinr = direct * p / _interference(p, game)
    return np.log1p(sinr / game.Gamma[:, None]).sum(axis=1) / (game.N * np.log(base))


def rate_vector(
    p: np.ndarray | PowerProfile,
    game: NormalizedGame,
    base: float = 2.0,
    provenance: str = "profile",
) -> RatePoint:
    """Rates of a feasible profile as a tagged point."""
    arr = p.p if isinstance(p, PowerProfile) else np.asarray(p, dtype=np.float64)
    return RatePoint(r=rate_array(arr, game, base=base), provenance=provenance)


def rate_gradient(
    p: np.ndarray, game: NormalizedGame, q: int, base: float = 2.0
) -> np.ndarray:
    """Gradient of user q's rate with respect to every power, shape (Q, N).

    Own-power entries are positive wherever the direct gain is; cross
    entries are never positive (interference only hurts).  Closed form:
    with i = interference factor and d = i + g*p_q/Gamma,

        dR_q/dp_q(k) =  (g/Gamma) / (ln(base) N d)
        dR_q/dp_r(k) = -(g p_q/Gamma) c_r / (ln(base) N i d),  r != q.
    """
    p = np.asarray(p, dtype=np.float64)
    g = game.gain2[q, q, :]
    i = 1.0 + np.einsum("rk,rk->k", game.gain2[:, q, :], p) - g * p[q]
    np.maximum(i, 1.0, out=i)
    scaled = g / game.Gamma[q]
    d = i + scaled * p[q]
    coef = 1.0 / (game.N * np.log(base))
    grad = np.empty_like(p)
    grad[q] = coef * scaled / d
    cross = -coef * (scaled * p[q]) / (i * d)
    for r in range(game.Q):
        if r != q:
            grad[r] = cross * game.gain2[r, q, :]
    return grad


def scalarized_gradient(
    p: np.ndarray, game: NormalizedGame, weights: np.ndarray, base: float = 2.0
) -> np.ndarray:
    """Gradient of sum_q weights_q * R_q(p), shape (Q, N)."""
    total = np.zeros_like(np.asarray(p, dtype=np.float64))
    for q in range(game.Q):
        total += weights[q] * rate_gradient(p, game, q, base=base)
    return total


def project_profile(y: np.ndarray, pmax: np.ndarray, budget: float = 1.0) -> np.ndarray:
    """Euclidean projection of one user's vector onto its strategy set.

    The set is {0 <= x <= pmax, mean(x) <= budget}.  When the budget cuts,
    the projection is clip(y + mu, 0, pmax), with the shift mu solved
    exactly as the water level of prices -y (see ``level_solve``).
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.clip(y, 0.0, pmax)
    target = budget * y.size
    if x.sum() <= target + 1e-15:
        return x
    return np.clip(y + level_solve(-y, pmax, target), 0.0, pmax)


def project_all(p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    """Per-user projection of a stacked profile."""
    return np.stack([project_profile(p[q], game.pmax[q]) for q in range(game.Q)])


def random_feasible_profile(
    game: NormalizedGame, rng: np.random.Generator, sparse: bool = False
) -> np.ndarray:
    """Random feasible profile; sparse draws favor near-vertex splits."""
    if sparse:
        raw = rng.dirichlet(np.full(game.N, 0.35), size=game.Q) * game.N
    else:
        raw = rng.uniform(0.0, 2.0, size=(game.Q, game.N))
    return project_all(raw, game)


def pareto_filter(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an (M, Q) point cloud.

    Rows are visited in decreasing coordinate-sum order (a point can only
    be dominated by one with a larger sum), so each surviving row prunes
    its whole dominated cone in one vector pass.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    keep = np.ones(n, dtype=bool)
    order = np.argsort(-points.sum(axis=1), kind="stable")
    for i in order:
        if keep[i]:
            c = points[i]
            sel = np.nonzero(keep)[0]
            worse = (points[sel] <= c).all(axis=1) & (points[sel] < c).any(axis=1)
            keep[sel[worse]] = False
    return keep


def _box_simplex_grid(pmax_q: np.ndarray, N: int, resolution: int) -> np.ndarray:
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


@dataclass(frozen=True)
class RegionSample:
    """Sampled rate points with their Pareto mask."""

    points: np.ndarray
    pareto: np.ndarray
    mode: str
    meta: dict


def sample_rate_region(
    game: NormalizedGame,
    resolution: int = 16,
    budget_mode: str = "per_user",
    splits: np.ndarray | None = None,
    base: float = 2.0,
    solver_tol: float = 1e-8,
) -> RegionSample:
    """Sample achievable rate vectors and flag the Pareto subset.

    budget_mode="per_user" grids every user's own strategy set (the
    multi-objective feasible region).  budget_mode="total_split" sweeps a
    two-user split of the pooled budget and records the equilibrium rates
    of each split (the fixed-total-power equilibrium region).
    """
    Q = game.Q
    if budget_mode == "per_user":
        if Q > 3:
            raise InvalidInputError("grid sampling is limited to Q <= 3")
        grids = [_box_simplex_grid(game.pmax[q], game.N, resolution) for q in range(Q)]
        sizes = [g.shape[0] for g in grids]
        if int(np.prod(sizes)) * game.N > 8_000_000:
            raise InvalidInputError("resolution too high for grid sampling")
        points = np.column_stack(
            [_grid_rates(game, grids, q).ravel() for q in range(Q)]
        )
        return RegionSample(
            points=points,
            pareto=pareto_filter(points),
            mode=budget_mode,
            meta={"sizes": sizes, "base": base},
        )
    if budget_mode == "total_split":
        if Q != 2:
            raise InvalidInputError("total_split sweep is defined for Q = 2")
        if splits is None:
            splits = np.linspace(0.1, 0.9, resolution)
        pts = []
        for t in np.asarray(splits, dtype=np.float64):
            scaled = game.scaled_powers(np.array([2.0 * t, 2.0 * (1.0 - t)]))
            res = solve(scaled, schedule="sequential", tol=solver_tol)
            pts.append(rate_array(res.profile.p, scaled, base=base))
        points = np.asarray(pts)
        return RegionSample(
            points=points,
            pareto=pareto_filter(points),
            mode=budget_mode,
            meta={"splits": np.asarray(splits).tolist(), "base": base},
        )
    raise InvalidInputError(f"unknown budget_mode {budget_mode!r}")


def _ascend(value, gradient, project, p0: np.ndarray, step: float, tol: float, max_iter: int):
    """Projected gradient ascent with halving backtracking."""
    p = project(p0)
    val = value(p)
    alpha = step
    for _ in range(max_iter):
        g = gradient(p)
        while True:
            cand = project(p + alpha * g)
            cand_val = value(cand)
            if cand_val >= val - 1e-14:
                break
            alpha *= 0.5
            if alpha < 1e-13:
                cand, cand_val = p, val
                break
        move = float(np.abs(cand - p).max())
        p, val = cand, cand_val
        alpha = min(step, alpha * 1.8)
        if move <= tol:
            break
    return p, val


@dataclass(frozen=True)
class ScalarizedResult:
    """Best local optimum of the weighted-sum objective over restarts."""

    profile: PowerProfile
    value: float
    restart_values: np.ndarray
    weights: np.ndarray


def solve_scalarized(
    game: NormalizedGame,
    weights,
    restarts: int = 8,
    step: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 3000,
    seed: int = 0,
    base: float = 2.0,
) -> ScalarizedResult:
    """Multi-start projected-gradient ascent on sum_q w_q R_q.

    The objective is nonconvex once interference couples the users, so
    only local optimality is claimed; restarts are seeded and their final
    values reported so callers can judge the spread.
    """
    w = _check_weights(weights, game.Q)

    def value(p):
        return float(w @ rate_array(p, game, base=base))

    def gradient(p):
        return scalarized_gradient(p, game, w, base=base)

    def project(p):
        return project_all(p, game)

    best_p, best_val = None, -np.inf
    values = np.empty(restarts)
    for s in range(restarts):
        if s == 0:
            p0 = np.minimum(1.0, game.pmax)
        else:
            p0 = random_feasible_profile(game, derive_rng(seed, s), sparse=(s % 2 == 0))
        p, val = _ascend(value, gradient, project, p0, step, tol, max_iter)
        values[s] = val
        if val > best_val:
            best_p, best_val = p, val
    return ScalarizedResult(
        profile=PowerProfile(best_p), value=best_val, restart_values=values, weights=w
    )


@dataclass(frozen=True)
class ModifiedGameResult:
    """Fixed point of the cooperative-payoff game for one weight vector."""

    profile: PowerProfile
    rates: np.ndarray
    residual: float
    iterations: int
    converged: bool
    weights: np.ndarray


def solve_modified_game(
    game: NormalizedGame,
    weights,
    step: float = 1.0,
    tol: float = 1e-7,
    max_iter: int = 5000,
    init: np.ndarray | None = None,
    base: float = 2.0,
) -> ModifiedGameResult:
    """Simultaneous projected-gradient play of the side-payment game.

    Each user's payoff is its own rate plus the weighted sum of the
    others' rates (scaled by 1/w_q), so each user ascends the common
    weighted-sum objective with its own positive scaling; the updates of
    all users are applied simultaneously, Rosen style.  The residual is
    the sup-norm displacement of one unit-step projected update.
    """
    w = _check_weights(weights, game.Q)
    p = np.minimum(1.0, game.pmax) if init is None else project_all(np.asarray(init, float), game)

    def objective(x):
        return float(w @ rate_array(x, game, base=base))

    def play_gradient(x):
        return scalarized_gradient(x, game, w, base=base) / w[:, None]

    val = objective(p)
    alpha = step
    residual = np.inf
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        g = play_gradient(p)
        while True:
            cand = project_all(p + alpha * g, game)
            cand_val = objective(cand)
            if cand_val >= val - 1e-14:
                break
            alpha *= 0.5
            if alpha < 1e-13:
                cand, cand_val = p, val
                break
        p, val = cand, cand_val
        alpha = min(step, alpha * 1.8)
        residual = float(np.abs(project_all(p + play_gradient(p), game) - p).max())
        if residual <= tol:
            converged = True
            break
    return ModifiedGameResult(
        profile=PowerProfile(p),
        rates=rate_array(p, game, base=base),
        residual=residual,
        iterations=iterations,
        converged=converged,
        weights=w,
    )


@dataclass(frozen=True)
class MinmaxResult:
    """Certified lower bound on the rate a user can secure."""

    value: float
    method: str
    profile: PowerProfile


def _worst_opponents(
    game: NormalizedGame, q: int, p_q: np.ndarray, p0: np.ndarray, base: float,
    tol: float, max_iter: int,
) -> np.ndarray:
    """Opponent profile minimizing user q's rate at fixed p_q (convex)."""
    others = [r for r in range(game.Q) if r != q]
    p = p0.copy()
    p[q] = p_q

    def value(x):
        return float(rate_array(x, game, base=base)[q])

    val = value(p)
    alpha = 1.0
    for _ in range(max_iter):
        grad = rate_gradient(p, game, q, base=base)
        cand = p.copy()
        while True:
            for r in others:
                cand[r] = project_profile(p[r] - alpha * grad[r], game.pmax[r])
            cand_val = value(cand)
            if cand_val <= val + 1e-14:
                break
            alpha *= 0.5
            if alpha < 1e-13:
                cand, cand_val = p, val
                break
        move = float(max(np.abs(cand[r] - p[r]).max() for r in others))
        p, val = cand, cand_val
        alpha = min(1.0, alpha * 1.8)
        if move <= tol:
            break
    return p


def minmax_bound(
    game: NormalizedGame,
    q: int,
    method: str = "auto",
    grid: int = 64,
    outer_iters: int = 80,
    inner_iters: int = 400,
    tol: float = 1e-9,
    base: float = 2.0,
) -> MinmaxResult:
    """Max over own powers of the min over opponents of user q's rate.

    The inner problem is convex in the opponents (solved by projected
    descent); the outer concave problem is ascended with supergradients.
    The returned value is always a certified lower bound: it is the inner
    minimum evaluated at a fixed own profile.  Desk-scale games can use an
    exhaustive grid instead ("grid"); with no interferers the bound is the
    single-user waterfilling rate ("closed_form").
    """
    Q, N = game.Q, game.N
    direct = game.gain2[q, q, :]
    cross_present = any(
        game.gain2[r, q, :].max() > 0 for r in range(Q) if r != q
    )
    solo = waterfill(
        WaterfillInput(g=direct, i=np.ones(N), Gamma=game.Gamma[q], pmax=game.pmax[q], budget=1.0)
    )
    if Q == 1 or not cross_present:
        p = np.zeros((Q, N))
        p[q] = solo
        return MinmaxResult(
            value=float(rate_array(p, game, base=base)[q]),
            method="closed_form",
            profile=PowerProfile(p),
        )

    if method == "auto":
        method = "grid" if Q * N <= 6 else "saddle"
    if method == "grid":
        if Q * N > 6:
            raise InvalidInputError("grid minmax is desk-scale only (Q*N <= 6)")
        grids = [_budget_face_grid(game.pmax[r], grid) for r in range(Q)]
        R = _grid_rates(game, grids, q)
        axes = tuple(r for r in range(Q) if r != q)
        inner = R.min(axis=axes) if axes else R
        j = int(inner.argmax())
        p = np.zeros((Q, N))
        p[q] = grids[q][j]
        return MinmaxResult(
            value=float(inner[j]), method="grid", profile=PowerProfile(p)
        )
    if method != "saddle":
        raise InvalidInputError(f"unknown method {method!r}")

    p_q = solo.copy()
    opp0 = np.minimum(1.0, game.pmax)
    best_val, best_pq = -np.inf, p_q.copy()
    for t in range(1, outer_iters + 1):
        p = _worst_opponents(game, q, p_q, opp0, base, tol, inner_iters)
        val = float(rate_array(p, game, base=base)[q])
        if val > best_val:
            best_val, best_pq = val, p_q.copy()
        grad_own = rate_gradient(p, game, q, base=base)[q]
        p_q = project_profile(p_q + (0.5 / np.sqrt(t)) * grad_own, game.pmax[q])
        opp0 = p
    # Certify the best candidate with a tighter inner solve.
    p = _worst_opponents(game, q, best_pq, opp0, base, tol * 0.1, 4 * inner_iters)
    value = float(rate_array(p, game, base=base)[q])
    return MinmaxResult(value=value, method="saddle", profile=PowerProfile(p))


def low_interference_rate(
    p: np.ndarray, game: NormalizedGame, base: float = 2.0
) -> np.ndarray:
    """High-SNR / weak-coupling rate approximation (full-support profiles).

    Drops the +1 inside the log of the SINR expression:
    R_q ~ (1/N) sum_k log(g_q p_q / Gamma_q / (1 + sum_r c_r p_r)).
    Requires every user to load every bin; raises otherwise.
    """
    p = np.asarray(p, dtype=np.float64)
    if (p <= 0).any():
        raise InvalidInputError("approximation needs strictly positive power on every bin")
    direct = game.direct_gain2()
    ratio = direct * p / (game.Gamma[:, None] * _interference(p, game))
    return np.log(ratio).sum(axis=1) / (game.N * np.log(base))
