"""Equilibrium-uniqueness certificates for the power game.

The certificates are spectral or row/column-sum bounds on per-bin coupling
matrices whose (q, r) entry measures how strongly interferer r impinges on
link q relative to q's own gain.  Bins a user would never populate under
any opponent behavior can be pruned before the matrices are built, which
is what makes the spectral condition robust to deep fades: a bin where a
user's direct gain vanishes also drops out of that user's matrix rows.

Seven conditions are evaluated, from the sharp per-bin spectral-radius
test (C1) through its max-aggregated (C2), weighted row/column-sum
(C3/C4), pairwise-coupling (C5/C6) and positive-definiteness (C7)
relaxations.  Verdicts come with the margin that produced them; margins
within 1e-9 of the threshold are reported as boundary cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import matrix_balance

from .channel import NormalizedGame
from .errors import InvalidInputError, NumericFailureError
from .waterfilling import level_solve

_BOUNDARY = 1e-9

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


@dataclass(frozen=True)
class ConditionVerdict:
    """One uniqueness condition: margin against its threshold.

    ``satisfied`` is None when the margin sits within 1e-9 of the
    threshold (boundary case) or when a numeric failure left the margin
    unknown (then ``error`` is set).  For C1-C6 the condition holds when
    margin < 1; for C7 (positive definiteness) when margin > 0.
    """

    name: str
    satisfied: bool | None
    margin: float
    threshold: float
    detail: dict
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "threshold": self.threshold,
            "error": self.error,
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
        }


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


@dataclass(frozen=True)
class UniquenessReport:
    """Per-condition verdicts plus the bin sets used to build them."""

    conditions: dict
    Dq_mode: str
    usable: np.ndarray

    def __getitem__(self, name: str) -> ConditionVerdict:
        return self.conditions[name]

    def satisfied(self, name: str) -> bool:
        v = self.conditions[name].satisfied
        return bool(v) if v is not None else False

    def to_dict(self) -> dict:
        return {
            "Dq_mode": self.Dq_mode,
            "usable": self.usable.tolist(),
            "conditions": {k: v.to_dict() for k, v in self.conditions.items()},
        }


def usable_carriers(game: NormalizedGame, q: int, mode: str = "virtual_interferer") -> np.ndarray:
    """Boolean mask of bins user q could populate under some opponent play.

    mode="all" keeps every bin.  mode="virtual_interferer" replaces all
    opponents by a single adversary holding their pooled budget and, per
    bin, the strongest cross gain; a bin is dropped only if user q still
    leaves it empty when the adversary spends everything on the *other*
    bins (uniformly) and nothing on the bin under test.  The returned set
    therefore contains every bin the true best responses can touch.
    """
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
    if pmax_q[alive].sum() < N:
        # The alive bins cannot absorb the budget, so all of them saturate.
        return alive & (pmax_q > 1e-12)
    # One row per alive bin k: bin k is priced free of the adversary, the
    # other bins at the spread interference, and dead bins never enter.
    own = np.nonzero(alive)[0]
    rows = np.arange(own.size)
    prices = np.full((own.size, N), np.inf)
    prices[:, alive] = gamma_q * i_spread[alive] / direct[alive]
    prices[rows, own] = gamma_q / direct[own]
    mu = level_solve(prices, pmax_q, float(N))
    kept = np.zeros(N, dtype=bool)
    kept[own] = np.clip(mu - prices[rows, own], 0.0, pmax_q[own]) > 1e-12
    return kept


def usable_sets(game: NormalizedGame, mode: str = "virtual_interferer") -> np.ndarray:
    """Stacked per-user bin masks, shape (Q, N)."""
    return np.stack([usable_carriers(game, q, mode) for q in range(game.Q)])


def coupling_stack(game: NormalizedGame, kept: np.ndarray) -> np.ndarray:
    """All per-bin coupling matrices at once, shape (N, Q, Q).

    Entry (q, r) of bin k's matrix is Gamma_q * gain2[r, q, k] /
    gain2[q, q, k] when both users keep bin k, else 0; diagonals are 0.
    """
    Q, N = game.Q, game.N
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != (Q, N):
        raise InvalidInputError("kept mask must be (Q, N)")
    direct = game.direct_gain2()
    if (kept & (direct <= 0)).any():
        raise NumericFailureError("zero direct gain inside a kept bin set (internal invariant)")
    safe = np.where(kept, direct, 1.0)
    # ratio[q, r, k] = gain2[r, q, k] / direct[q, k]
    ratio = game.gain2.transpose(1, 0, 2) / safe[:, None, :]
    both = kept[:, None, :] & kept[None, :, :]
    H = game.Gamma[:, None, None] * ratio * both
    H[np.arange(Q), np.arange(Q), :] = 0.0
    return H.transpose(2, 0, 1)


def _perron_pairs(M: np.ndarray):
    """Dominant eigenvalue and normalized |eigenvector| of each matrix in a stack.

    For a nonnegative matrix the Perron root is the eigenvalue with the
    largest real part, and its eigenvector is nonnegative up to a phase.
    """
    try:
        w, v = np.linalg.eig(M)
    except np.linalg.LinAlgError as err:
        raise NumericFailureError(f"eigen-solve failed: {err}") from err
    top = w.real.argmax(axis=-1)[..., None]
    root = np.take_along_axis(w.real, top, axis=-1)[..., 0]
    x = np.abs(np.take_along_axis(v, top[..., None], axis=-1)[..., 0])
    return root, x / x.max(axis=-1, keepdims=True)


def spectral_radius(M: np.ndarray) -> np.ndarray | float:
    """Perron roots of nonnegative matrices, shape (..., n, n) -> (...).

    One batched eigen-solve gives each root and its Perron vector x; one
    matvec then gives the Collatz-Wielandt bracket lo <= rho <= hi, with
    lo taken over the support of x (a principal sub-block) and hi over x
    floored away from zero.  Each returned root is clipped into its
    bracket.  Where the bracket does not clear the uniqueness threshold
    1 by the 1e-9 boundary, the root is recomputed from the balanced
    matrix's eigenvalues, so a root left within the boundary band is
    reported as a boundary case by the verdicts.  A 2-D input returns a
    float.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidInputError("matrix must be square")
    if (M < 0).any() or not np.isfinite(M).all():
        raise InvalidInputError("matrix must be nonnegative and finite")
    shape = M.shape[:-2]
    M = M.reshape(-1, *M.shape[-2:])
    root, x = _perron_pairs(M)
    # Floored entries sit far below any Perron entry of a coupling stack
    # while keeping their products with the matrix entries normal.
    z = np.maximum(x, 1e-150)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(x > 0, (M @ x[..., None])[..., 0] / x, np.inf).min(axis=-1)
        hi = ((M @ z[..., None])[..., 0] / z).max(axis=-1)
    rho = np.clip(root, lo, hi)
    undecided = ~((hi < 1.0 - _BOUNDARY) | (lo > 1.0 + _BOUNDARY))
    for k in np.nonzero(undecided)[0]:
        balanced, _ = matrix_balance(M[k])
        rho[k] = np.abs(np.linalg.eigvals(balanced)).max()
    rho = rho.reshape(shape)
    return rho if shape else float(rho)


def perron_weights(M: np.ndarray) -> np.ndarray:
    """Positive weight vector aligned with M's dominant direction.

    Any positive vector is admissible for the weighted-sum conditions;
    this one is the Perron vector of M, floored at 1e-9 of its largest
    entry so reducible matrices still yield strictly positive weights.
    """
    _, x = _perron_pairs(np.asarray(M, dtype=np.float64))
    return np.maximum(x, 1e-9)


def is_Z(M: np.ndarray) -> bool:
    """Off-diagonal entries all nonpositive."""
    M = np.asarray(M, dtype=np.float64)
    off = M.copy()
    np.fill_diagonal(off, 0.0)
    return bool((off <= 0).all())


def is_P(M: np.ndarray) -> bool:
    """All principal minors positive (exhaustive; dim <= 12)."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n > 12:
        raise InvalidInputError("principal-minor enumeration is limited to dim <= 12")
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = M[np.ix_(subset, subset)]
            if np.linalg.det(sub) <= 0:
                return False
    return True


def is_K(M: np.ndarray) -> bool:
    """Z-matrix with all principal minors positive."""
    return is_Z(M) and is_P(M)


def _verdict_less_than_one(name: str, margin: float, detail: dict) -> ConditionVerdict:
    if abs(margin - 1.0) <= _BOUNDARY:
        sat = None
    else:
        sat = bool(margin < 1.0)
    return ConditionVerdict(name=name, satisfied=sat, margin=margin, threshold=1.0, detail=detail)


def check_conditions(
    game: NormalizedGame, Dq_mode: str = "virtual_interferer"
) -> UniquenessReport:
    """Evaluate all seven uniqueness conditions with margins.

    C1: per-bin spectral radii below 1 (the sharp test).
    C2: spectral radius of the entrywise-max matrix below 1.
    C3/C4: weighted row/column sums below 1; unit weights and a
        Perron-vector weighting are both tried, the better margin wins.
    C5/C6: strongest pairwise coupling over all bins below 1/(Q-1),
        resp. 1/(2Q-3) (no bin pruning, per their original statements).
    C7: I + H(k) positive definite for every bin, tested through the
        symmetric part, with no bin pruning.
    """
    Q, N = game.Q, game.N
    kept = usable_sets(game, Dq_mode)
    Hk = coupling_stack(game, kept)
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

    # Pairwise conditions ignore bin pruning; guard exact zero direct gains.
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

    kept_all = np.ones((Q, N), dtype=bool) & alive
    H7 = coupling_stack(game, kept_all)
    eigmins = np.linalg.eigvalsh(np.eye(Q) + 0.5 * (H7 + H7.transpose(0, 2, 1)))[:, 0]
    m7 = float(eigmins.min())
    sat7 = None if abs(m7) <= _BOUNDARY else bool(m7 > 0)
    c7 = ConditionVerdict(
        name="C7", satisfied=sat7, margin=m7, threshold=0.0, detail={"argmin_bin": int(eigmins.argmin())}
    )

    conditions = {v.name: v for v in (c1, c2, c3, c4, c5, c6, c7)}
    return UniquenessReport(conditions=conditions, Dq_mode=Dq_mode, usable=kept)
