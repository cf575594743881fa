"""Nash equilibria of the vector power game.

An equilibrium is a profile where every user's allocation is the masked
waterfilling response to the interference produced by the others.  The
solver iterates that map either user-by-user (Gauss-Seidel) or all at
once (Jacobi) and reports the sup-norm fixed-point residual; convergence
is an empirical matter here and non-convergence is returned as data, not
raised, because the high-interference regime legitimately hosts several
equilibria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .channel import NormalizedGame
from .errors import InvalidInputError, NumericFailureError
from .rng import derive_rng
from .waterfilling import PowerProfile, WaterfillInput, waterfill


@dataclass(frozen=True)
class Classification:
    """Regime summary of a converged profile.

    exclusive[q] holds the bins where only user q transmits; the profile is
    orthogonal when every active bin is exclusive to someone.  flatness[q]
    is the coefficient of variation of user q's power over its support
    (0 for a perfectly flat allocation).
    """

    exclusive: tuple
    orthogonal: bool
    shared_carriers: int
    flatness: np.ndarray
    eps: float


@dataclass(frozen=True)
class EquilibriumResult:
    profile: PowerProfile
    residual: float
    iterations: int
    schedule: str
    converged: bool
    classification: Classification | None
    trace: np.ndarray = field(repr=False, default=None)


def best_response(q: int, p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    """Waterfilling response of user q against the interference in ``p``."""
    p = np.asarray(p, dtype=np.float64)
    i = 1.0 + np.einsum("rk,rk->k", game.gain2[:, q, :], p) - game.gain2[q, q, :] * p[q]
    # Clamp rounding: the factor is >= 1 by construction.
    np.maximum(i, 1.0, out=i)
    inp = WaterfillInput(
        g=game.gain2[q, q, :], i=i, Gamma=game.Gamma[q], pmax=game.pmax[q], budget=1.0
    )
    return waterfill(inp)


def _response_map(p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    return np.stack([best_response(q, p, game) for q in range(game.Q)])


def solve(
    game: NormalizedGame,
    schedule: str = "sequential",
    init: np.ndarray | PowerProfile | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    order_seed: int | None = None,
    classify_eps: float = 1e-6,
) -> EquilibriumResult:
    """Iterate the waterfilling map to a fixed point.

    schedule: "sequential" sweeps users in order (optionally shuffled per
    sweep when ``order_seed`` is given), "simultaneous" updates all users
    from the previous iterate.  The residual is the sup-norm of p - WF(p)
    stacked over users; iteration stops at ``tol`` or ``max_iter``.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    if schedule not in ("sequential", "simultaneous"):
        raise InvalidInputError(f"unknown schedule {schedule!r}")
    Q = game.Q
    if init is None:
        p = np.minimum(1.0, game.pmax)
    else:
        p = np.array(init.p if isinstance(init, PowerProfile) else init, dtype=np.float64)
        if p.shape != (Q, game.N):
            raise InvalidInputError("init profile has the wrong shape")
        if not np.isfinite(p).all():
            raise InvalidInputError("init profile must be finite")
    order_rng = derive_rng(order_seed) if order_seed is not None else None

    trace = []
    residual = np.inf
    iterations = 0
    converged = False
    # Jacobi's next iterate is the response map its residual already needs.
    nxt = _response_map(p, game) if schedule == "simultaneous" else None
    for it in range(1, max_iter + 1):
        iterations = it
        if schedule == "sequential":
            order = np.arange(Q) if order_rng is None else order_rng.permutation(Q)
            for q in order:
                p[q] = best_response(q, p, game)
        else:
            p = nxt
        if not np.isfinite(p).all():
            raise NumericFailureError(f"non-finite iterate at sweep {it}")
        nxt = _response_map(p, game)
        residual = float(np.abs(p - nxt).max())
        trace.append(residual)
        if residual <= tol:
            converged = True
            break

    return EquilibriumResult(
        profile=PowerProfile(p),
        residual=residual,
        iterations=iterations,
        schedule=schedule,
        converged=converged,
        classification=classify_profile(p, game, eps=classify_eps) if converged else None,
        trace=np.asarray(trace),
    )


def classify_profile(p: np.ndarray, game: NormalizedGame, eps: float = 1e-6) -> Classification:
    """Regime classification of a raw profile (see :class:`Classification`)."""
    p = np.asarray(p, dtype=np.float64)
    above = p > eps
    users_on = above.sum(axis=0)
    exclusive = tuple(np.nonzero(above[q] & (users_on == 1))[0] for q in range(game.Q))
    active = users_on > 0
    orthogonal = bool((users_on[active] == 1).all()) if active.any() else True
    shared = int((users_on >= 2).sum())
    flatness = np.zeros(game.Q)
    for q in range(game.Q):
        support = p[q, above[q]]
        if support.size > 0 and support.mean() > 0:
            flatness[q] = support.std() / support.mean()
    return Classification(
        exclusive=exclusive,
        orthogonal=orthogonal,
        shared_carriers=shared,
        flatness=flatness,
        eps=eps,
    )


def classify_equilibrium(
    res: EquilibriumResult, game: NormalizedGame, eps: float = 1e-6
) -> Classification:
    """Classify a converged equilibrium result."""
    if not res.converged:
        raise InvalidInputError("classification requires a converged result")
    return classify_profile(res.profile.p, game, eps=eps)


@dataclass(frozen=True)
class AllocationRuleCheck:
    """Pairwise verdicts of the orthogonal-NE bin-assignment ordering."""

    pairs: dict
    violations: list
    premise_margin: float


def check_allocation_rule(
    res: EquilibriumResult | PowerProfile | np.ndarray,
    game: NormalizedGame,
    eps: float = 1e-6,
    rtol: float = 1e-12,
) -> AllocationRuleCheck:
    """Verify the bin-assignment ordering at an orthogonal equilibrium.

    At a unique orthogonal NE under moderate cross gains, the bins each
    user owns must beat (in the ratio of the two users' direct gains) every
    bin owned by the other user: for all k_r in user r's set and k_q in
    user q's set,

        g_rr(k_r)/g_qq(k_r) >= g_rr(k_q)/g_qq(k_q).

    Preconditions: the profile is orthogonal, and on every owned bin the
    owner's direct gain dominates its outgoing cross gain times its gap
    (the moderate-interference premise).  Violations of either raise.
    """
    if isinstance(res, EquilibriumResult):
        if not res.converged:
            raise InvalidInputError("allocation rule requires a converged result")
        p = res.profile.p
    elif isinstance(res, PowerProfile):
        p = res.p
    else:
        p = np.asarray(res, dtype=np.float64)
    cls = classify_profile(p, game, eps=eps)
    if not cls.orthogonal:
        raise InvalidInputError("allocation rule applies to orthogonal equilibria only")

    Q = game.Q
    direct = game.direct_gain2()
    # Premise: Gamma_q * g_{q->r}(k) <= g_{qq}(k) on every bin user q owns.
    premise_margin = 0.0
    for q in range(Q):
        own = cls.exclusive[q]
        if own.size == 0:
            continue
        for r in range(Q):
            if r == q:
                continue
            ratio = game.Gamma[q] * game.gain2[q, r, own] / direct[q, own]
            premise_margin = max(premise_margin, float(ratio.max()))
    if premise_margin > 1.0 + 1e-9:
        raise InvalidInputError(
            f"moderate-interference premise fails (margin {premise_margin:.3g} > 1)"
        )

    pairs = {}
    violations = []
    for r in range(Q):
        for q in range(Q):
            if r == q:
                continue
            kr, kq = cls.exclusive[r], cls.exclusive[q]
            if kr.size == 0 or kq.size == 0:
                pairs[(r, q)] = True
                continue
            ratio_r = direct[r, kr] / direct[q, kr]
            ratio_q = direct[r, kq] / direct[q, kq]
            ok = ratio_r.min() >= ratio_q.max() * (1.0 - rtol)
            pairs[(r, q)] = bool(ok)
            if not ok:
                i_bad = int(kr[np.argmin(ratio_r)])
                j_bad = int(kq[np.argmax(ratio_q)])
                violations.append((r, q, i_bad, j_bad, float(ratio_r.min()), float(ratio_q.max())))
    return AllocationRuleCheck(pairs=pairs, violations=violations, premise_margin=premise_margin)


def orthogonal_profile(game: NormalizedGame, partition) -> np.ndarray:
    """Profile with each user waterfilling only its own bins.

    ``partition`` is a sequence of disjoint bin index collections, one per
    user.  Used to build candidate FDMA-like equilibria for the
    high-interference regime.
    """
    Q, N = game.Q, game.N
    seen = np.zeros(N, dtype=bool)
    p = np.zeros((Q, N))
    for q, bins in enumerate(partition):
        bins = np.asarray(bins, dtype=int)
        if bins.size and seen[bins].any():
            raise InvalidInputError("partition sets must be disjoint")
        seen[bins] = True
        restricted = np.zeros(N)
        restricted[bins] = game.pmax[q, bins]
        if not restricted.any():
            continue
        inp = WaterfillInput(
            g=game.gain2[q, q, :],
            i=np.ones(N),
            Gamma=game.Gamma[q],
            pmax=restricted,
            budget=1.0,
        )
        p[q] = waterfill(inp)
    return p


@dataclass(frozen=True)
class BruteForceResult:
    """Gridded approximate equilibria found by exhaustive search."""

    profiles: list
    indices: np.ndarray
    delta: np.ndarray
    clusters: list
    grids: list


def _budget_face_grid(pmax_q: np.ndarray, grid: int) -> np.ndarray:
    """Gridded strategies on the full-budget face of one user's set.

    Best responses always exhaust the budget whenever the caps allow it, so
    every equilibrium (and every profitable deviation) lives on this face;
    if the caps sum below the budget the set collapses to the cap vector.
    """
    N = pmax_q.size
    total = float(N)
    cap = np.minimum(pmax_q, total)
    if cap.sum() < total - 1e-15:
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
