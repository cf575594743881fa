"""Equilibrium-uniqueness certificates for the power game.

The certificates are spectral or row/column-sum bounds on per-bin coupling
matrices whose (q, r) entry measures how strongly interferer r impinges on
link q relative to q's own gain.  Bins a user would never populate under
any opponent behavior can be pruned before the matrices are built, which
is what makes the spectral condition robust to deep fades: a dead bin (its
price Gamma/g is not finite, the waterfill kernel's rule) drops out of that
user's matrix rows, and a user with no alive bin and ample caps is an error.

Seven conditions are evaluated, from the sharp per-bin spectral-radius
test (C1) through its max-aggregated (C2), weighted row/column-sum
(C3/C4), pairwise-coupling (C5/C6) and positive-definiteness (C7)
relaxations.  Verdicts come with the margin that produced them; margins
within 1e-9 of the threshold are reported as boundary cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NormalizedGame
from .errors import InvalidInputError, NumericFailureError
from .waterfilling import bin_prices, level_solve, waterfill_rows

_BOUNDARY = 1e-9
# The usable-bin screen leaves a row to the level solve while its supply is
# within _SCREEN_BAND * N * (|level| + 1) of the target, far above the
# rounding of either computation.
_SCREEN_BAND = 1e-9
# C1's bounds decide a game only this far past the boundary band, beyond the
# rounding of the bounds and of the exact radii.
_BOUND_SLACK = 1e-12

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
DQ_MODES = ("virtual_interferer", "all")
# Verdict codes index this tuple: 0 false, 1 true, 2 boundary, 3 error.
VERDICT_KINDS = ("false", "true", "boundary", "error")
_ABOVE_ZERO = np.array([name == "C7" for name in CONDITION_NAMES])  # C7 holds above 0


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

    A bin is alive when its interference-free price a = Gamma/g is finite; mode
    "all" keeps the alive bins.  Otherwise row (g, q, k) prices user q's bins at
    the spread interference and bin k at a; bin k is kept when the row's level
    mu gives clip(mu - a, 0, cap_k) > 1e-12.  Supply is nondecreasing in the
    level, so that holds iff cap_k > 1e-12 and the supply at t = a + 1e-12 falls
    short of the target N (a user whose bins cannot absorb the budget falls
    short at every level and keeps each bin with a cap).  This screen takes one
    pass per row and no sort; only rows whose supply at t is within a rounding
    band of N (scaled by N and t) take the level solve.  No array outgrows one
    (rows, N) price stack.
    """
    G, Q, N = direct.shape
    if mode not in DQ_MODES:
        raise InvalidInputError(f"unknown Dq mode {mode!r}")
    free = bin_prices(direct, 1.0, Gamma[..., None])
    alive = free < np.inf
    if mode == "all" or Q == 1 or N == 1:
        return alive
    cross = gain2.copy()
    cross[:, range(Q), range(Q)] = 0.0
    i_spread = 1.0 + cross.max(axis=1) * (float(Q - 1) * N / (N - 1))
    base = bin_prices(direct, i_spread, Gamma[..., None])
    g, q, k = np.nonzero(alive)
    own = free[g, q, k]
    capped = np.isfinite(pmax).any()  # else no (rows, N) copy of inf caps
    cap = pmax[g, q, k]
    t = own + 1e-12
    supply = base[g, q]
    np.subtract(t[:, None], supply, out=supply)
    supply[np.arange(k.size), k] = t - own
    np.maximum(supply, 0.0, out=supply)
    if capped:
        np.minimum(supply, pmax[g, q], out=supply)
    shortfall = float(N) - supply.sum(-1)
    band = _SCREEN_BAND * N * (np.abs(t) + 1.0)
    kept_rows = (shortfall > band) & (cap > 1e-12)
    todo = np.flatnonzero((np.abs(shortfall) <= band) & (cap > 1e-12))
    if todo.size:
        g, q, k, own, cap = g[todo], q[todo], k[todo], own[todo], cap[todo]
        prices = base[g, q]
        prices[np.arange(todo.size), k] = own
        mu = level_solve(prices, pmax[g, q] if capped else np.inf, float(N))
        kept_rows[todo] = np.where(np.isnan(mu), cap, np.clip(mu - own, 0.0, cap)) > 1e-12
    kept = np.zeros((G, Q, N), dtype=bool)
    kept[alive] = kept_rows
    return kept


def usable_sets(game: NormalizedGame, mode: str = "virtual_interferer") -> np.ndarray:
    """Per-user masks of the bins a user could populate under some opponent play, (Q, N).

    mode="all" keeps every alive bin (finite Gamma/g).  mode="virtual_interferer" replaces all
    opponents of user q by a single adversary holding their pooled budget
    and, per bin, the strongest cross gain; a bin is dropped only if user q
    still leaves it empty when the adversary spends everything on the
    *other* bins (uniformly) and nothing on the bin under test.  Each set
    therefore contains every bin the true best responses can touch.
    """
    return _usable(*_stacked([game]), mode)[0]


def _couplings(gain2, direct, Gamma, kept, cols=None) -> np.ndarray:
    """:func:`coupling_stack` of stacked games, shape (G, N, Q, Q).

    Entry (q, r) of bin k needs q to keep the (alive) bin in ``kept`` and r in
    ``cols`` (default ``kept``).  Each game's block is a strided (N, Q, Q)
    view laid out as for a game alone, which fixes how its matvecs round.
    """
    Q = direct.shape[1]
    both = kept[:, :, None, :] & (kept if cols is None else cols)[:, None, :, :]
    # H[g, q, r, k] = Gamma[g, q] gain2[g, r, q, k] / direct[g, q, k] (inf where it overflows).
    # The product with ``both`` sets that layout; entries it drops may be NaN, so they are zeroed.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        H = Gamma[:, :, None, None] * (gain2.transpose(0, 2, 1, 3) / direct[:, :, None, :]) * both
    H[~both] = 0.0
    H[:, range(Q), range(Q)] = 0.0
    return H.transpose(0, 3, 1, 2)


def coupling_stack(game: NormalizedGame, kept: np.ndarray) -> np.ndarray:
    """All per-bin coupling matrices at once, shape (N, Q, Q).

    Entry (q, r) of bin k's matrix is Gamma_q * gain2[r, q, k] /
    gain2[q, q, k] when both users keep bin k, else 0; diagonals are 0.  A
    kept bin must be alive (see :func:`usable_sets`).
    """
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != (game.Q, game.N):
        raise InvalidInputError("kept mask must be (Q, N)")
    gain2, direct, pmax, Gamma = _stacked([game])
    if (kept & ~_usable(gain2, direct, pmax, Gamma, "all")[0]).any():
        raise InvalidInputError("kept mask holds a dead bin (its price Gamma/g is not finite)")
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
    1 by the 1e-9 boundary, the root is recomputed by an eigenvalue-only
    solve of the balanced matrix, so a root left within the boundary band is
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
    if undecided.any():
        try:
            # LAPACK geev, behind eigvals, balances each matrix (permute and scale) first.
            rho[undecided] = np.abs(np.linalg.eigvals(M[undecided])).max(axis=-1)
        except np.linalg.LinAlgError as err:
            raise NumericFailureError(f"eigen-solve failed: {err}") from err
    return rho if rho.ndim else float(rho)


def perron_weights(M: np.ndarray) -> np.ndarray:
    """Positive weight vector aligned with M's dominant direction.

    Any positive vector is admissible for the weighted-sum conditions;
    this one is the Perron vector of M, floored at 1e-9 of its largest
    entry so reducible matrices still yield strictly positive weights.
    """
    _, x = _perron_pairs(np.asarray(M, dtype=np.float64))
    return np.maximum(x, 1e-9)


def _codes(margin, above_zero) -> np.ndarray:
    """Verdict codes (indices into :data:`VERDICT_KINDS`) of margins, elementwise.

    A margin must stay below 1 or, where ``above_zero``, above 0.  Within
    1e-9 of its threshold it is a boundary case, and a NaN margin is an
    error.  The one rule behind every verdict.
    """
    margin = np.asarray(margin, dtype=np.float64)
    threshold = np.where(above_zero, 0.0, 1.0)
    holds = np.where(above_zero, margin > threshold, margin < threshold)
    return np.select([np.isnan(margin), np.abs(margin - threshold) <= _BOUNDARY], [3, 2],
                     holds).astype(np.int8)


def _verdict(name: str, margin, detail, above_zero: bool = False) -> ConditionVerdict:
    """Verdict of a margin that must stay below 1 or, for C7, above 0.

    ``margin`` may be the error that left it unknown: that or a NaN margin gives an error verdict.
    """
    threshold = 0.0 if above_zero else 1.0
    failed = isinstance(margin, NumericFailureError)
    code = 3 if failed else int(_codes(margin, above_zero))
    if code == 3:
        error = str(margin) if failed else f"{name} margin is NaN"
        return ConditionVerdict(name, None, np.nan, threshold, {}, error=error)
    return ConditionVerdict(name=name, satisfied=(False, True, None)[code], margin=float(margin),
                            threshold=threshold, detail=detail)


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


def _stage(games, Dq_mode: str) -> tuple:
    """What :func:`check_conditions` and :func:`verdict_codes` share, for stacked games.

    Returns the usable sets (G, Q, N), the coupling stack (G, N, Q, Q), C2's
    radius of each game (or the NumericFailureError of its eigen-solve),
    the C3-C6 margins (G, 4), C7's matrices I + sym(H) (G, N, Q, Q) and the
    arrays that the report details quote: both weightings, their C3/C4
    sums, whether Perron weights won and the strongest coupling.
    """
    gain2, direct, pmax, Gamma = _stacked(list(games))
    G, Q, N = direct.shape
    alive = _usable(gain2, direct, pmax, Gamma, "all")
    dead = ~alive.any(-1)
    if dead.any():  # the kernel raises for such a user unless its caps fall short of the budget
        waterfill_rows(direct[dead], np.ones((dead.sum(), N)), Gamma[dead], pmax[dead])
    kept = _usable(gain2, direct, pmax, Gamma, Dq_mode)
    Hk = _couplings(gain2, direct, Gamma, kept)
    Hmax = Hk.max(axis=1)
    weights = {"unit": np.ones((G, Q)), "perron": perron_weights(Hmax)}
    sums = {(name, label): (np.einsum(spec, Hk, w) / w[:, None, :]).max(axis=(1, 2))
            for label, w in weights.items()
            for name, spec in (("C3", "gkqr,gr->gkq"), ("C4", "gkqr,gq->gkr"))}
    # The better weighting wins; unit weights on a tie.
    perron = {name: sums[name, "perron"] < sums[name, "unit"] for name in ("C3", "C4")}
    # C5-C7 ignore bin pruning.  The strongest coupling into user q runs
    # over q's alive bins whatever the interferer's gain there; C7 keeps
    # the bins both users can use.
    into_alive = _couplings(gain2, direct, Gamma, alive, np.ones_like(alive))
    strongest = into_alive.max(axis=(1, 2, 3))
    H7 = into_alive * alive.transpose(0, 2, 1)[:, :, None, :]
    S = np.eye(Q) + 0.5 * (H7 + H7.swapaxes(-1, -2))
    margins = np.column_stack(
        [np.where(perron[name], sums[name, "perron"], sums[name, "unit"]) for name in ("C3", "C4")]
        + [strongest * (Q - 1), strongest * max(2 * Q - 3, 0)])
    return kept, Hk, _radii(Hmax), margins, S, (weights, sums, perron, strongest)


def _c1_margins(Hk: np.ndarray) -> np.ndarray:
    """C1 margins of a coupling stack (G, N, Q, Q), shape (G,), decided by bounds first.

    For a nonnegative H, rho(H) <= min(max row sum, max column sum) and
    rho(H) >= sqrt(H[q, r] H[r, q]) for every q != r.  A game whose upper
    bound is below 1 - 1e-9 on every bin holds, and one with a bin whose
    lower bound is above 1 + 1e-9 fails, each past a 1e-12 slack; its
    margin is that bound.  Only the games left open take the eigen-solve,
    each as a one-game view of the stack (its layout fixes how the
    Collatz-Wielandt matvec rounds): the margin is its largest radius, or
    NaN where it fails.
    """
    with np.errstate(over="ignore"):  # an overflowing bound is inf, and still a bound
        upper = np.minimum(Hk.sum(-1).max(-1), Hk.sum(-2).max(-1)).max(-1)
        lower = np.sqrt(Hk * Hk.swapaxes(-1, -2)).max(axis=(1, 2, 3))
    holds = upper < 1.0 - _BOUNDARY - _BOUND_SLACK
    margin = np.where(holds, upper, lower)
    for g in np.flatnonzero(~holds & ~(lower > 1.0 + _BOUNDARY + _BOUND_SLACK)):
        rho_k = _radii(Hk[g:g + 1])[0]
        margin[g] = np.nan if isinstance(rho_k, NumericFailureError) else rho_k.max()
    return margin


def _eigmins(S: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in a stack (..., Q, Q)."""
    try:
        return np.linalg.eigvalsh(S)[..., 0]
    except np.linalg.LinAlgError as err:
        raise NumericFailureError(f"eigen-solve failed: {err}") from err


def _c7_margins(S: np.ndarray) -> np.ndarray:
    """C7 margins of the stacks S = I + sym(H) (G, N, Q, Q), shape (G,), decided by bounds first.

    S has a unit diagonal and nonnegative off-diagonal entries, so a bin's
    smallest eigenvalue is at most 1 minus its largest off-diagonal entry
    (interlacing on a 2x2 principal block) and at least 1 minus its largest
    off-diagonal row sum (Gershgorin).  A game whose upper bound is below
    -1e-9 on some bin fails, and one whose lower bound is above 1e-9 on
    every bin holds, each past a slack of 1e-12 (1 + largest row sum) that
    covers the rounding of the bounds and of the eigen-solve; its margin is
    that bound.  The games left open, and every game holding an entry that
    is not finite or is above 1e150, take the eigen-solve: the margin is
    their smallest eigenvalue, NaN where the solve returns NaN.
    """
    off = S - np.eye(S.shape[-1])
    with np.errstate(over="ignore"):  # an overflowing row sum is inf, and still a bound
        rows = off.sum(-1).max(axis=(1, 2))
    upper, lower = 1.0 - off.max(axis=(1, 2, 3)), 1.0 - rows
    slack = _BOUNDARY + _BOUND_SLACK * (1.0 + rows)
    holds = lower > slack
    margin = np.where(holds, lower, upper)
    todo = ~holds & ~(upper < -slack) | ~(S <= 1e150).all(axis=(1, 2, 3))
    if todo.any():
        margin[todo] = _eigmins(S[todo]).min(axis=1)
    return margin


def verdict_codes(games, Dq_mode: str = "virtual_interferer") -> np.ndarray:
    """:func:`check_conditions` verdicts of games sharing (Q, N), as codes (G, 7) int8.

    Column c is condition ``CONDITION_NAMES[c]``; a code indexes
    :data:`VERDICT_KINDS` (0 false, 1 true, 2 boundary, 3 error).  The games
    are certified as one stack: C2-C6 come from the arrays that
    :func:`check_conditions` reads.  C1 and C7 are decided by rigorous
    bounds where they suffice (:func:`_c1_margins`, :func:`_c7_margins`),
    and their eigen-solves run only on the games the bounds leave open, so a
    failing C1 solve turns only those into errors.
    """
    _, Hk, rho_max, margins, S, _ = _stage(games, Dq_mode)
    c2 = [np.nan if isinstance(rho, NumericFailureError) else rho for rho in rho_max]
    return _codes(np.column_stack([_c1_margins(Hk), c2, margins, _c7_margins(S)]), _ABOVE_ZERO)


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
    Every margin is exact: C1 reports each bin's radius, C7 the smallest
    eigenvalue over the bins.
    """
    kept, Hk, (rho_max,), margins, S, (weights, sums, perron, strongest) = _stage([game], Dq_mode)
    eigmins = _eigmins(S[0])
    (rho_k,) = _radii(Hk)
    failed = isinstance(rho_k, NumericFailureError)
    verdicts = [_verdict("C1", rho_k if failed else rho_k.max(), {} if failed else {
        "rho_per_bin": rho_k, "argmax_bin": int(rho_k.argmax())}), _verdict("C2", rho_max, {})]
    for c, name in enumerate(("C3", "C4")):
        best = "perron" if perron[name][0] else "unit"
        verdicts.append(_verdict(name, margins[0, c], {
            "weights": weights[best][0], "weighting": best,
            "unit_margin": float(sums[name, "unit"][0])}))
    for c, name, n in ((2, "C5", game.Q - 1), (3, "C6", 2 * game.Q - 3)):
        verdicts.append(_verdict(name, margins[0, c], {
            "strongest_pair": float(strongest[0]), "threshold_raw": 1.0 / max(n, 1)}))
    verdicts.append(_verdict("C7", eigmins.min(), {"argmin_bin": int(eigmins.argmin())},
                             above_zero=True))
    return UniquenessReport({v.name: v for v in verdicts}, Dq_mode, kept[0])
