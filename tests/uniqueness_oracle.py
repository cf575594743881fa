"""Per-game uniqueness certificates, kept as a test oracle.

This is ``specnash.uniqueness.check_conditions`` as it stood before it
certified stacks of games: the usable set of each user comes from its own
level solve (one row per alive bin), the coupling stack of one game is
built alone, and C5/C6 take the strongest pairwise coupling in a Python
double loop.  It shares the eigen-solvers ``spectral_radius`` and
``perron_weights`` with the package; those have their own oracle in
``perron_oracle.py``.

``oracle_usable_stack`` is the stacked usable-set kernel as it stood before
the supply screen: every (game, user, alive bin) row goes through one level
solve.
"""

from __future__ import annotations

import numpy as np

from specnash.channel import NormalizedGame
from specnash.errors import InvalidInputError, NumericFailureError
from specnash.uniqueness import (DQ_MODES, ConditionVerdict, UniquenessReport, perron_weights,
                                 spectral_radius)
from specnash.waterfilling import level_solve

_BOUNDARY = 1e-9


def oracle_usable_carriers(game: NormalizedGame, q: int, mode: str = "virtual_interferer"):
    """Boolean mask of bins user q could populate under some opponent play."""
    Q, N = game.Q, game.N
    if mode == "all":
        return np.ones(N, dtype=bool)
    if mode != "virtual_interferer":
        raise InvalidInputError(f"unknown Dq mode {mode!r}")
    direct = game.gain2[q, q, :]
    alive = direct > 0
    if Q == 1 or N == 1 or not alive.any():
        return alive
    cross = np.delete(game.gain2[:, q, :], q, axis=0)
    virtual_gain = cross.max(axis=0)
    pooled_budget = float(Q - 1)
    i_spread = 1.0 + virtual_gain * (pooled_budget * N / (N - 1))
    gamma_q = float(game.Gamma[q])
    pmax_q = game.pmax[q]
    own = np.nonzero(alive)[0]
    rows = np.arange(own.size)
    prices = np.full((own.size, N), np.inf)
    prices[:, alive] = gamma_q * i_spread[alive] / direct[alive]
    prices[rows, own] = gamma_q / direct[own]
    mu = level_solve(prices, pmax_q, float(N))
    if np.isnan(mu).any():
        return alive & (pmax_q > 1e-12)
    kept = np.zeros(N, dtype=bool)
    kept[own] = np.clip(mu - prices[rows, own], 0.0, pmax_q[own]) > 1e-12
    return kept


def oracle_usable_stack(gain2, direct, pmax, Gamma, mode: str) -> np.ndarray:
    """Usable sets of stacked games, shape (G, Q, N), from one level solve.

    Every (game, user, alive bin) is one row of a single level solve.  A
    user whose alive bins cannot absorb the budget has NaN levels; it
    saturates them, so it keeps those with a nonzero cap.
    """
    G, Q, N = direct.shape
    if mode == "all":
        return np.ones((G, Q, N), dtype=bool)
    if mode not in DQ_MODES:
        raise InvalidInputError(f"unknown Dq mode {mode!r}")
    alive = direct > 0
    if Q == 1 or N == 1:
        return alive
    cross = gain2.copy()
    cross[:, range(Q), range(Q)] = 0.0
    i_spread = 1.0 + cross.max(axis=1) * (float(Q - 1) * N / (N - 1))
    gamma, safe = Gamma[..., None], np.where(alive, direct, 1.0)
    # One row per alive bin k: bin k is priced free of the adversary, the
    # other bins at the spread interference, and dead bins never enter.
    g, q, k = np.nonzero(alive)
    rows = np.arange(k.size)
    with np.errstate(over="ignore"):  # a subnormal direct gain prices its bin out
        prices = np.where(alive, gamma * i_spread / safe, np.inf)[g, q]
        prices[rows, k] = (gamma / safe)[g, q, k]
    caps = pmax[g, q] if np.isfinite(pmax).any() else np.inf  # no (rows, N) copy of inf caps
    mu = level_solve(prices, caps, float(N))
    cap = pmax[g, q, k]
    kept = np.zeros((G, Q, N), dtype=bool)
    kept[g, q, k] = np.where(np.isnan(mu), cap, np.clip(mu - prices[rows, k], 0.0, cap)) > 1e-12
    return kept


def oracle_usable_sets(game: NormalizedGame, mode: str = "virtual_interferer") -> np.ndarray:
    return np.stack([oracle_usable_carriers(game, q, mode) for q in range(game.Q)])


def oracle_coupling_stack(game: NormalizedGame, kept: np.ndarray) -> np.ndarray:
    """Per-bin coupling matrices of one game, shape (N, Q, Q)."""
    Q = game.Q
    direct = game.direct_gain2()
    if (kept & (direct <= 0)).any():
        raise NumericFailureError("zero direct gain inside a kept bin set (internal invariant)")
    safe = np.where(kept, direct, 1.0)
    ratio = game.gain2.transpose(1, 0, 2) / safe[:, None, :]
    both = kept[:, None, :] & kept[None, :, :]
    H = game.Gamma[:, None, None] * ratio * both
    H[np.arange(Q), np.arange(Q), :] = 0.0
    return H.transpose(2, 0, 1)


def _verdict_less_than_one(name: str, margin: float, detail: dict) -> ConditionVerdict:
    sat = None if abs(margin - 1.0) <= _BOUNDARY else bool(margin < 1.0)
    return ConditionVerdict(name=name, satisfied=sat, margin=margin, threshold=1.0, detail=detail)


def oracle_check_conditions(game: NormalizedGame, Dq_mode: str = "virtual_interferer"):
    """All seven uniqueness conditions of one game, with margins."""
    Q, N = game.Q, game.N
    kept = oracle_usable_sets(game, Dq_mode)
    Hk = oracle_coupling_stack(game, kept)
    try:
        rho_k = spectral_radius(Hk)
        c1 = _verdict_less_than_one(
            "C1", float(rho_k.max()), {"rho_per_bin": rho_k, "argmax_bin": int(rho_k.argmax())}
        )
    except NumericFailureError as err:
        c1 = ConditionVerdict("C1", None, np.nan, 1.0, {}, error=str(err))

    Hmax = Hk.max(axis=0)
    try:
        c2 = _verdict_less_than_one("C2", spectral_radius(Hmax), {})
    except NumericFailureError as err:
        c2 = ConditionVerdict("C2", None, np.nan, 1.0, {}, error=str(err))

    w_unit = np.ones(Q)
    w_perron = perron_weights(Hmax)
    row_margins = {}
    col_margins = {}
    for label, w in (("unit", w_unit), ("perron", w_perron)):
        rows = np.einsum("kqr,r->kq", Hk, w) / w
        cols = np.einsum("kqr,q->kr", Hk, w) / w
        row_margins[label] = float(rows.max()) if rows.size else 0.0
        col_margins[label] = float(cols.max()) if cols.size else 0.0
    best_row = min(row_margins, key=row_margins.get)
    best_col = min(col_margins, key=col_margins.get)
    c3 = _verdict_less_than_one(
        "C3",
        row_margins[best_row],
        {"weights": w_perron if best_row == "perron" else w_unit, "weighting": best_row,
         "unit_margin": row_margins["unit"]},
    )
    c4 = _verdict_less_than_one(
        "C4",
        col_margins[best_col],
        {"weights": w_perron if best_col == "perron" else w_unit, "weighting": best_col,
         "unit_margin": col_margins["unit"]},
    )

    direct = game.direct_gain2()
    alive = direct > 0
    pair_max = np.zeros((Q, Q))
    for q in range(Q):
        for r in range(Q):
            if r == q or not alive[q].any():
                continue
            ratios = game.gain2[r, q, alive[q]] / direct[q, alive[q]]
            pair_max[q, r] = game.Gamma[q] * float(ratios.max())
    strongest = float(pair_max.max())
    c5 = _verdict_less_than_one(
        "C5", strongest * (Q - 1), {"strongest_pair": strongest, "threshold_raw": 1.0 / max(Q - 1, 1)}
    )
    c6 = _verdict_less_than_one(
        "C6",
        strongest * (2 * Q - 3) if Q >= 2 else 0.0,
        {"strongest_pair": strongest, "threshold_raw": 1.0 / max(2 * Q - 3, 1)},
    )

    H7 = oracle_coupling_stack(game, np.ones((Q, N), dtype=bool) & alive)
    eigmins = np.linalg.eigvalsh(np.eye(Q) + 0.5 * (H7 + H7.transpose(0, 2, 1)))[:, 0]
    m7 = float(eigmins.min())
    sat7 = None if abs(m7) <= _BOUNDARY else bool(m7 > 0)
    c7 = ConditionVerdict(
        name="C7", satisfied=sat7, margin=m7, threshold=0.0, detail={"argmin_bin": int(eigmins.argmin())}
    )
    conditions = {v.name: v for v in (c1, c2, c3, c4, c5, c6, c7)}
    return UniquenessReport(conditions=conditions, Dq_mode=Dq_mode, usable=kept)
