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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import matrix_balance

from .channel import NormalizedGame
from .errors import InvalidInputError, NumericFailureError
from .waterfilling import level_solve

_BOUNDARY = 1e-9

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
DQ_MODES = ("virtual_interferer", "all")


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
        detail = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in self.detail.items()}
        return {**vars(self), "detail": detail}


@dataclass(frozen=True)
class UniquenessReport:
    """Per-condition verdicts plus the bin sets used to build them."""

    conditions: dict
    Dq_mode: str
    usable: np.ndarray

    def __getitem__(self, name: str) -> ConditionVerdict:
        return self.conditions[name]

    def satisfied(self, name: str) -> bool:
        """True only for a verdict that holds; a boundary or error verdict reads False."""
        return bool(self.conditions[name].satisfied)

    def to_dict(self) -> dict:
        return {
            "Dq_mode": self.Dq_mode,
            "usable": self.usable.tolist(),
            "conditions": {k: v.to_dict() for k, v in self.conditions.items()},
        }


def _usable(gain2, direct, pmax, Gamma, mode: str) -> np.ndarray:
    """:func:`usable_sets` of stacked games, shape (G, Q, N).

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


def usable_sets(game: NormalizedGame, mode: str = "virtual_interferer") -> np.ndarray:
    """Per-user masks of the bins a user could populate under some opponent play, (Q, N).

    mode="all" keeps every bin.  mode="virtual_interferer" replaces all
    opponents of user q by a single adversary holding their pooled budget
    and, per bin, the strongest cross gain; a bin is dropped only if user q
    still leaves it empty when the adversary spends everything on the
    *other* bins (uniformly) and nothing on the bin under test.  Each set
    therefore contains every bin the true best responses can touch.
    """
    return _usable(*_stacked([game]), mode)[0]


def _couplings(gain2, direct, Gamma, kept, cols=None) -> np.ndarray:
    """:func:`coupling_stack` of stacked games, shape (G, N, Q, Q).

    Entry (q, r) of bin k needs q to keep the bin in ``kept`` and r in
    ``cols`` (default ``kept``).  Each game's block is a strided (N, Q, Q)
    view laid out as for a game alone, which fixes how its matvecs round.
    """
    if (kept & (direct <= 0)).any():
        raise NumericFailureError("zero direct gain inside a kept bin set (internal invariant)")
    Q = direct.shape[1]
    # ratio[g, q, r, k] = gain2[g, r, q, k] / direct[g, q, k], inf on a subnormal direct gain
    with np.errstate(over="ignore"):
        ratio = gain2.transpose(0, 2, 1, 3) / np.where(kept, direct, 1.0)[:, :, None, :]
    both = kept[:, :, None, :] & (kept if cols is None else cols)[:, None, :, :]
    H = Gamma[:, :, None, None] * ratio * both
    H[:, range(Q), range(Q)] = 0.0
    return H.transpose(0, 3, 1, 2)


def coupling_stack(game: NormalizedGame, kept: np.ndarray) -> np.ndarray:
    """All per-bin coupling matrices at once, shape (N, Q, Q).

    Entry (q, r) of bin k's matrix is Gamma_q * gain2[r, q, k] /
    gain2[q, q, k] when both users keep bin k, else 0; diagonals are 0.
    """
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != (game.Q, game.N):
        raise InvalidInputError("kept mask must be (Q, N)")
    gain2, direct, _, Gamma = _stacked([game])
    return _couplings(gain2, direct, Gamma, kept[None])[0]


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
    float.  The stack is used in its given memory layout: a copy would
    change how the matvec rounds.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidInputError("matrix must be square")
    if (M < 0).any() or not np.isfinite(M).all():
        raise InvalidInputError("matrix must be nonnegative and finite")
    root, x = _perron_pairs(M)
    # Floored entries sit far below any Perron entry of a coupling stack
    # while keeping their products with the matrix entries normal.
    z = np.maximum(x, 1e-150)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(x > 0, (M @ x[..., None])[..., 0] / x, np.inf).min(axis=-1)
        hi = ((M @ z[..., None])[..., 0] / z).max(axis=-1)
    rho = np.array(np.clip(root, lo, hi))
    undecided = ~((hi < 1.0 - _BOUNDARY) | (lo > 1.0 + _BOUNDARY))
    for k in map(tuple, np.argwhere(undecided)):
        balanced, _ = matrix_balance(M[k])
        rho[k] = np.abs(np.linalg.eigvals(balanced)).max()
    return rho if rho.ndim else float(rho)


def perron_weights(M: np.ndarray) -> np.ndarray:
    """Positive weight vector aligned with M's dominant direction.

    Any positive vector is admissible for the weighted-sum conditions;
    this one is the Perron vector of M, floored at 1e-9 of its largest
    entry so reducible matrices still yield strictly positive weights.
    """
    _, x = _perron_pairs(np.asarray(M, dtype=np.float64))
    return np.maximum(x, 1e-9)


def _verdict(name: str, margin, detail, above_zero: bool = False) -> ConditionVerdict:
    """Verdict of a margin that must stay below 1 or, for C7, above 0.

    ``margin`` may be the error that left it unknown: that or a NaN margin gives an error verdict.
    """
    threshold = 0.0 if above_zero else 1.0
    failed = isinstance(margin, NumericFailureError)
    if failed or math.isnan(margin):
        error = str(margin) if failed else f"{name} margin is NaN"
        return ConditionVerdict(name, None, np.nan, threshold, {}, error=error)
    sat = None if abs(margin - threshold) <= _BOUNDARY else bool(
        margin > threshold if above_zero else margin < threshold)
    return ConditionVerdict(name=name, satisfied=sat, margin=float(margin), threshold=threshold,
                            detail=detail)


def _stacked(games) -> tuple:
    """(gain2, direct gains, pmax, Gamma) of games sharing (Q, N), stacked on a leading axis."""
    if len({(game.Q, game.N) for game in games}) != 1:
        raise InvalidInputError("a stack needs at least one game, all of the same (Q, N)")
    fields = [(game.gain2, game.direct_gain2(), game.pmax, game.Gamma) for game in games]
    return tuple(np.stack(field) for field in zip(*fields))


def _radii(H: np.ndarray) -> list:
    """Spectral radii of each game's matrices, or the NumericFailureError of its eigen-solve.

    One solve serves the whole stack; only if it fails are the games solved
    one by one, so one failing game leaves the others' radii intact.
    """
    try:
        return list(spectral_radius(H))
    except NumericFailureError as err:
        return [err] if len(H) == 1 else [r for g in range(len(H)) for r in _radii(H[g:g + 1])]


def check_stack(games, Dq_mode: str = "virtual_interferer") -> list:
    """:func:`check_conditions` of every game in a sequence, certified as one stack.

    The games must share (Q, N).  The usable sets of all users of all games
    come from one level solve, the coupling matrices form one (G, N, Q, Q)
    stack, C1 and C2 take one eigen-solve each and C3-C7 are evaluated for
    all games at once.  Report g equals ``check_conditions(games[g])``.
    """
    gain2, direct, pmax, Gamma = _stacked(list(games))
    G, Q, N = direct.shape
    kept = _usable(gain2, direct, pmax, Gamma, Dq_mode)
    Hk = _couplings(gain2, direct, Gamma, kept)
    Hmax = Hk.max(axis=1)
    weights = {"unit": np.ones((G, Q)), "perron": perron_weights(Hmax)}
    sums = {(name, label): (np.einsum(spec, Hk, w) / w[:, None, :]).max(axis=(1, 2))
            for label, w in weights.items()
            for name, spec in (("C3", "gkqr,gr->gkq"), ("C4", "gkqr,gq->gkr"))}
    # C5-C7 ignore bin pruning.  The strongest coupling into user q runs
    # over q's alive bins whatever the interferer's gain there; C7 keeps
    # the bins both users can use.
    alive = direct > 0
    into_alive = _couplings(gain2, direct, Gamma, alive, np.ones_like(alive))
    strongest = into_alive.max(axis=(1, 2, 3))
    H7 = into_alive * alive.transpose(0, 2, 1)[:, :, None, :]
    eigmins = np.linalg.eigvalsh(np.eye(Q) + 0.5 * (H7 + H7.swapaxes(-1, -2)))[..., 0]

    reports = []
    for g, rho_k, rho_max in zip(range(G), _radii(Hk), _radii(Hmax)):
        failed = isinstance(rho_k, NumericFailureError)
        s, m7 = float(strongest[g]), float(eigmins[g].min())
        verdicts = [
            _verdict("C1", rho_k if failed else rho_k.max(), {} if failed else {
                "rho_per_bin": rho_k, "argmax_bin": int(rho_k.argmax())}),
            _verdict("C2", rho_max, {}),
        ]
        for name in ("C3", "C4"):  # the better weighting wins; unit weights on a tie
            best = "perron" if sums[name, "perron"][g] < sums[name, "unit"][g] else "unit"
            verdicts.append(_verdict(name, sums[name, best][g], {
                "weights": weights[best][g], "weighting": best,
                "unit_margin": float(sums[name, "unit"][g])}))
        for name, n in (("C5", Q - 1), ("C6", max(2 * Q - 3, 0))):
            verdicts.append(_verdict(
                name, s * n, {"strongest_pair": s, "threshold_raw": 1.0 / max(n, 1)}))
        verdicts.append(_verdict("C7", m7, {"argmin_bin": int(eigmins[g].argmin())},
                                 above_zero=True))
        reports.append(UniquenessReport({v.name: v for v in verdicts}, Dq_mode, kept[g]))
    return reports


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
    return check_stack([game], Dq_mode)[0]
