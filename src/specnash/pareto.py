"""Rate region, Pareto frontier, and cooperative benchmarks.

Everything here judges how good an equilibrium is: achievable rate
vectors over the feasible profiles, the Pareto subset, the weighted-sum
scalarization of the multi-objective problem, a modified game whose
equilibria sit on the frontier, and the max-min rate each user can
guarantee against arbitrary (feasible) opponents.

Rates are in bits per symbol per bin.  ``sample_rate_region`` grids the
per-user region; ``total_split_rates`` sweeps two-user splits of a pooled budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NormalizedGame
from .equilibrium import solve
from .errors import InvalidInputError
from .rng import derive_rng
from .waterfilling import PowerProfile, WaterfillInput, level_solve, waterfill


def _check_weights(weights, Q: int, tol: float) -> np.ndarray:
    if not tol > 0:  # NaN too
        raise InvalidInputError(f"tol must be positive, got {tol!r}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (Q,) or not ((w > 0) & np.isfinite(w)).all():
        raise InvalidInputError("weights must be (Q,), finite and strictly positive")
    return w


def rate_array(p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    """Per-user information rates of a profile in bits, shape (Q,)."""
    p = np.asarray(p, dtype=np.float64)
    direct = game.direct_gain2()
    sinr = direct * p / game.interference(p)
    return np.log1p(sinr / game.Gamma[:, None]).sum(axis=1) / (game.N * np.log(2.0))


def rate_gradient(p: np.ndarray, game: NormalizedGame, q: int) -> np.ndarray:
    """Gradient of user q's rate with respect to every power, shape (Q, N).

    Own-power entries are positive wherever the direct gain is; cross
    entries are never positive (interference only hurts).  Closed form:
    with i = interference factor and d = i + g*p_q/Gamma,

        dR_q/dp_q(k) =  (g/Gamma) / (ln(2) N d)
        dR_q/dp_r(k) = -(g p_q/Gamma) c_r / (ln(2) N i d),  r != q.
    """
    p = np.asarray(p, dtype=np.float64)
    return _rate_gradient(p, game, q, game.interference(p)[q])


def _rate_gradient(p: np.ndarray, game: NormalizedGame, q: int, i: np.ndarray) -> np.ndarray:
    """``rate_gradient`` given user q's interference factors ``i``."""
    g = game.gain2[q, q, :]
    scaled = g / game.Gamma[q]
    d = i + scaled * p[q]
    coef = 1.0 / (game.N * np.log(2.0))
    grad = np.empty_like(p)
    grad[q] = coef * scaled / d
    cross = -coef * (scaled * p[q]) / (i * d)
    for r in range(game.Q):
        if r != q:
            grad[r] = cross * game.gain2[r, q, :]
    return grad


def scalarized_gradient(p: np.ndarray, game: NormalizedGame, weights: np.ndarray) -> np.ndarray:
    """Gradient of sum_q weights_q * R_q(p), shape (Q, N)."""
    p = np.asarray(p, dtype=np.float64)
    i = game.interference(p)
    total = np.zeros_like(p)
    for q in range(game.Q):
        total += weights[q] * _rate_gradient(p, game, q, i[q])
    return total


def project_profile(y: np.ndarray, pmax: np.ndarray) -> np.ndarray:
    """Euclidean projection of one user's vector onto its strategy set.

    The set is {0 <= x <= pmax, mean(x) <= 1} (budgets are normalized).  When
    the budget cuts, the projection is clip(y + mu, 0, pmax), with the shift
    mu solved exactly as the water level of prices -y (see ``level_solve``).
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.clip(y, 0.0, pmax)
    target = float(y.size)
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
    axes = [np.linspace(0.0, cap[j], resolution) for j in range(N)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, N)
    return pts[pts.sum(axis=1) <= total + 1e-12]


def _budget_face_grid(pmax_q: np.ndarray, grid: int) -> np.ndarray:
    """Gridded strategies on the full-budget face of one user's set.

    Best responses always exhaust the budget whenever the caps allow it, so
    every equilibrium (and every profitable deviation) lives on this face;
    if the caps sum below the budget the set collapses to the cap vector.
    """
    N = pmax_q.size
    total = float(N)
    cap = np.minimum(pmax_q, total)
    if cap.sum() < total:
        return pmax_q[None, :].copy()
    if N == 1:
        return np.array([[min(1.0, cap[0])]])
    if N == 2:
        lo = max(0.0, total - cap[1])
        hi = min(total, cap[0])
        t = np.linspace(lo, hi, grid)
        return np.column_stack([t, total - t])
    if N == 3:
        pts = []
        t0 = np.linspace(0.0, min(total, cap[0]), grid)
        for x in t0:
            rem = total - x
            lo = max(0.0, rem - cap[2])
            hi = min(rem, cap[1])
            if lo > hi + 1e-12:
                continue
            steps = max(2, int(np.ceil(grid * (hi - lo) / total)) + 1)
            for y in np.linspace(lo, hi, steps):
                pts.append((x, y, rem - y))
        return np.asarray(pts)
    raise InvalidInputError("gridded strategies implemented for N <= 3")


def _grid_rates(game: NormalizedGame, grids: list, q: int) -> np.ndarray:
    """User q's rate over the cross product of gridded strategies."""
    Q, N = game.Q, game.N
    shape = tuple(g.shape[0] for g in grids)
    denom = np.ones(shape + (N,))
    for r in range(Q):
        if r == q:
            continue
        view = [1] * Q + [N]
        view[r] = shape[r]
        denom = denom + game.gain2[r, q, :] * grids[r].reshape(view)
    view = [1] * Q + [N]
    view[q] = shape[q]
    num = (game.gain2[q, q, :] / game.Gamma[q]) * grids[q].reshape(view)
    return np.log2(1.0 + num / denom).mean(axis=-1)


@dataclass(frozen=True)
class RegionSample:
    """Sampled rate points with their Pareto mask."""

    points: np.ndarray
    pareto: np.ndarray


def sample_rate_region(game: NormalizedGame, resolution: int) -> RegionSample:
    """Grid every user's own strategy set (the multi-objective feasible
    region) and flag the Pareto subset of the rate points."""
    Q = game.Q
    if Q > 3 or game.N > 3:
        raise InvalidInputError("grid sampling is limited to Q <= 3 and N <= 3")
    grids = [_box_simplex_grid(game.pmax[q], game.N, resolution) for q in range(Q)]
    if int(np.prod([g.shape[0] for g in grids])) * game.N > 8_000_000:
        raise InvalidInputError("resolution too high for grid sampling")
    points = np.column_stack([_grid_rates(game, grids, q).ravel() for q in range(Q)])
    return RegionSample(points=points, pareto=pareto_filter(points))


def total_split_rates(game: NormalizedGame, splits) -> np.ndarray:
    """Equilibrium rates of each two-user split of the pooled budget, shape (S, 2).

    Split t gives the users 2t and 2(1 - t) times their budgets (the
    fixed-total-power equilibrium region).
    """
    if game.Q != 2:
        raise InvalidInputError("total_split sweep is defined for Q = 2")
    pts = []
    for t in np.asarray(splits, dtype=np.float64):
        scaled = game.scaled_powers(np.array([2.0 * t, 2.0 * (1.0 - t)]))
        res = solve(scaled, schedule="sequential", tol=1e-8)
        pts.append(rate_array(res.profile.p, scaled))
    return np.asarray(pts)


def _ascent(value, gradient, project, p: np.ndarray, step: float):
    """Projected gradient ascent from a feasible ``p`` with halving backtracking.

    Yields ``(p, value(p), sup-norm move)`` after every step, without end.
    """
    val = value(p)
    alpha = step
    while True:
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
        yield p, val, move


@dataclass(frozen=True)
class ScalarizedResult:
    """Best local optimum of the weighted-sum objective over restarts."""

    profile: PowerProfile
    value: float
    restart_values: np.ndarray


def solve_scalarized(
    game: NormalizedGame,
    weights,
    restarts: int = 8,
    step: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 3000,
    seed: int = 0,
) -> ScalarizedResult:
    """Multi-start projected-gradient ascent on sum_q w_q R_q.

    The objective is nonconvex once interference couples the users, so
    only local optimality is claimed; restarts are seeded and their final
    values reported so callers can judge the spread.
    """
    w = _check_weights(weights, game.Q, tol)

    def value(p):
        return float(w @ rate_array(p, game))

    def gradient(p):
        return scalarized_gradient(p, game, w)

    def project(p):
        return project_all(p, game)

    best_p, best_val = None, -np.inf
    values = np.empty(restarts)
    for s in range(restarts):
        if s == 0:
            p0 = np.minimum(1.0, game.pmax)
        else:
            p0 = random_feasible_profile(game, derive_rng(seed, s), sparse=(s % 2 == 0))
        p = project(p0)
        val = value(p)
        for _, (p, val, move) in zip(range(max_iter), _ascent(value, gradient, project, p, step)):
            if move <= tol:
                break
        values[s] = val
        if val > best_val:
            best_p, best_val = p, val
    return ScalarizedResult(profile=PowerProfile(best_p), value=best_val, restart_values=values)


@dataclass(frozen=True)
class ModifiedGameResult:
    """Fixed point of the cooperative-payoff game for one weight vector."""

    profile: PowerProfile
    rates: np.ndarray
    residual: float
    iterations: int
    converged: bool


def solve_modified_game(
    game: NormalizedGame,
    weights,
    step: float = 1.0,
    tol: float = 1e-7,
    max_iter: int = 5000,
    init: np.ndarray | None = None,
) -> ModifiedGameResult:
    """Simultaneous projected-gradient play of the side-payment game.

    Each user's payoff is its own rate plus the weighted sum of the
    others' rates (scaled by 1/w_q), so each user ascends the common
    weighted-sum objective with its own positive scaling; the updates of
    all users are applied simultaneously, Rosen style.  The residual is
    the sup-norm displacement of one unit-step projected update.
    """
    w = _check_weights(weights, game.Q, tol)
    p = np.minimum(1.0, game.pmax) if init is None else project_all(np.asarray(init, float), game)

    def objective(x):
        return float(w @ rate_array(x, game))

    # The residual at p and the next step from p need the same gradient;
    # iterates are never modified in place, so the last one is kept by identity.
    last = [None, None]

    def play_gradient(x):
        if x is not last[0]:
            last[:] = x, scalarized_gradient(x, game, w) / w[:, None]
        return last[1]

    residual = np.inf
    iterations = 0
    converged = False
    steps = _ascent(objective, play_gradient, lambda x: project_all(x, game), p, step)
    for iterations, (p, _, _) in zip(range(1, max_iter + 1), steps):
        residual = float(np.abs(project_all(p + play_gradient(p), game) - p).max())
        if residual <= tol:
            converged = True
            break
    return ModifiedGameResult(
        profile=PowerProfile(p),
        rates=rate_array(p, game),
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class MinmaxResult:
    """Max-min rate a user can secure: closed form, or a grid estimate."""

    value: float
    method: str
    profile: PowerProfile


def minmax_bound(game: NormalizedGame, q: int, grid: int = 64) -> MinmaxResult:
    """Max over own powers of the min over opponents of user q's rate.

    With no interferer (Q = 1 or zero cross gains into q) the value is the
    single-user waterfilling rate ("closed_form"), at any size.  Otherwise
    every user's full-budget face is gridded at resolution ``grid`` and
    the max-min is taken over the grid ("grid"), for desk-scale games
    (Q*N <= 6) only.  Gridding the opponents can miss their exact inner
    minimum, so the grid value may sit slightly above the inner minimum at
    the returned own profile: it is an estimate, not a certified lower
    bound, and it tightens as ``grid`` grows.
    """
    Q, N = game.Q, game.N
    if not any(game.gain2[r, q, :].max() > 0 for r in range(Q) if r != q):
        p = np.zeros((Q, N))
        p[q] = waterfill(WaterfillInput(
            g=game.gain2[q, q, :], i=np.ones(N), Gamma=game.Gamma[q], pmax=game.pmax[q], budget=1.0
        ))
        return MinmaxResult(
            value=float(rate_array(p, game)[q]),
            method="closed_form",
            profile=PowerProfile(p),
        )
    if Q * N > 6:
        raise InvalidInputError("grid minmax is desk-scale only (Q*N <= 6)")
    grids = [_budget_face_grid(game.pmax[r], grid) for r in range(Q)]
    R = _grid_rates(game, grids, q)
    axes = tuple(r for r in range(Q) if r != q)
    inner = R.min(axis=axes)
    j = int(inner.argmax())
    p = np.zeros((Q, N))
    p[q] = grids[q][j]
    return MinmaxResult(value=float(inner[j]), method="grid", profile=PowerProfile(p))
