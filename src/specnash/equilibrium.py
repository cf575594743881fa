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

from .channel import NormalizedGame
from .errors import InvalidInputError, NumericFailureError
from .rng import derive_rng
from .waterfilling import PowerProfile, WaterfillInput, waterfill, waterfill_rows


@dataclass(frozen=True)
class Classification:
    """Regime summary of a converged profile.

    A user transmits on a bin where its power exceeds 1e-6.  exclusive[q]
    holds the bins where only user q transmits; the profile is orthogonal
    when every active bin is exclusive to someone.  flatness[q] is the
    coefficient of variation of user q's power over its support (0 for a
    perfectly flat allocation).
    """

    exclusive: tuple
    orthogonal: bool
    shared_carriers: int
    flatness: np.ndarray


@dataclass(frozen=True)
class EquilibriumResult:
    profile: PowerProfile
    residual: float
    iterations: int
    converged: bool
    classification: Classification | None
    trace: np.ndarray = field(repr=False)


def best_response(q: int, p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    """Waterfilling response of user q against the interference in ``p``."""
    inp = WaterfillInput(
        g=game.gain2[q, q, :], i=game.interference(p)[q], Gamma=game.Gamma[q], pmax=game.pmax[q]
    )
    return waterfill(inp)


def _finite(i: np.ndarray) -> np.ndarray:
    """Interference factors ``i``, checked as WaterfillInput checks them."""
    if not np.isfinite(i).all():
        raise InvalidInputError("interference factors must be finite and >= 1")
    return i


def _response_map(p: np.ndarray, game: NormalizedGame) -> np.ndarray:
    """Every user's waterfilling response to ``p``: one batched solve."""
    return waterfill_rows(game.direct_gain2(), _finite(game.interference(p)), game.Gamma,
                          game.pmax)[0]


def solve(
    game: NormalizedGame,
    schedule: str = "sequential",
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    order_seed: int | None = None,
) -> EquilibriumResult:
    """Iterate the waterfilling map to a fixed point.

    schedule: "sequential" sweeps users in order (optionally shuffled per
    sweep when ``order_seed`` is given), "simultaneous" updates all users
    from the previous iterate.  The residual is the sup-norm of p - WF(p)
    stacked over users; iteration stops at ``tol`` or ``max_iter``.  The
    game and ``init`` are validated once here; the sweeps then run on raw
    arrays.  A batched response map is made for the start profile and
    after every sweep, for its residual.  Jacobi steps to it; Gauss-Seidel
    copies its first user's row from it (a batched row is bit-equal to the
    row solved alone), then solves each later user on one interference
    row.  (Finite gains and NaN-free caps are the game's own invariants.)
    """
    if not tol > 0:  # NaN too
        raise InvalidInputError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    if schedule not in ("sequential", "simultaneous"):
        raise InvalidInputError(f"unknown schedule {schedule!r}")
    Q = game.Q
    direct = game.direct_gain2()
    if init is None:
        p = np.minimum(1.0, game.pmax)
    else:
        p = np.array(init, dtype=np.float64)
        if p.shape != (Q, game.N):
            raise InvalidInputError("init profile has the wrong shape")
        if not np.isfinite(p).all():
            raise InvalidInputError("init profile must be finite")
    order_rng = derive_rng(order_seed) if order_seed is not None else None

    trace = []
    residual = np.inf
    iterations = 0
    converged = False
    # The response map of the current iterate, which the residual needs anyway.
    nxt = _response_map(p, game)
    for it in range(1, max_iter + 1):
        iterations = it
        if schedule == "sequential":
            first, *rest = range(Q) if order_rng is None else order_rng.permutation(Q).tolist()
            p[first] = nxt[first]
            for q in rest:
                p[q] = waterfill_rows(direct[q], _finite(game.interference_row(p, q)),
                                      game.Gamma[q], game.pmax[q])[0]
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
        converged=converged,
        classification=classify_profile(p, game) if converged else None,
        trace=np.asarray(trace),
    )


def classify_profile(p: np.ndarray, game: NormalizedGame) -> Classification:
    """Regime classification of a raw profile (see :class:`Classification`)."""
    p = np.asarray(p, dtype=np.float64)
    above = p > 1e-6
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
    )


@dataclass(frozen=True)
class AllocationRuleCheck:
    """Pairwise verdicts of the orthogonal-NE bin-assignment ordering."""

    pairs: dict
    violations: list
    premise_margin: float


def check_allocation_rule(
    res: EquilibriumResult | np.ndarray,
    game: NormalizedGame,
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
    else:
        p = np.asarray(res, dtype=np.float64)
    cls = classify_profile(p, game)
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
            ok = ratio_r.min() >= ratio_q.max() * (1.0 - 1e-12)
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
        )
        p[q] = waterfill(inp)
    return p
