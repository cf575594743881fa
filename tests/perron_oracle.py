"""Power-iteration Perron roots, kept as a cross-check oracle for the tests.

This is an independent route to the spectral radius of a nonnegative
matrix: the matrix is split into strongly connected components, each
irreducible block is balanced, shifted by I to make it primitive, and its
root is found by Collatz-Wielandt power iteration on repeated squarings.
It shares no code with the batched eigen-solve in ``specnash.uniqueness``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import matrix_balance

from specnash.errors import InvalidInputError, NumericFailureError


def _collatz_iteration(A: np.ndarray, tol: float, max_iter: int):
    """Power iteration with Collatz-Wielandt brackets on a nonnegative A.

    Requires A to have a positive diagonal (callers shift by I); for an
    irreducible block the bracket closes geometrically.  Returns the root
    estimate, the final positive vector, and whether the bracket met tol.
    """
    n = A.shape[0]
    x = np.full(n, 1.0 / n)
    lo, hi = 0.0, np.inf
    for _ in range(max_iter):
        y = A @ x
        support = x > 0.0
        ratios = y[support] / x[support]
        lo, hi = float(ratios.min()), float(ratios.max())
        total = y.sum()
        if total <= 0.0:
            break
        closed = hi - lo <= tol * max(1.0, hi) and not (y[~support] > 0.0).any()
        if closed:
            return 0.5 * (lo + hi), y / total, True
        x = y / total
    return 0.5 * (lo + hi), x, False


def _mutual_reachability(M: np.ndarray) -> np.ndarray:
    """Boolean matrix of pairs lying on a common directed cycle."""
    n = M.shape[0]
    reach = (M > 0) | np.eye(n, dtype=bool)
    reach = reach.astype(np.uint8)
    steps = 1
    while steps < n:
        reach = (reach @ reach > 0).astype(np.uint8)
        steps *= 2
    reach = reach.astype(bool)
    return reach & reach.T


def _perron_root(A: np.ndarray, tol: float, max_iter: int) -> float:
    """Perron root of a primitive nonnegative matrix.

    Repeated squaring doubles every eigenvalue's log, so the spectral gap
    seen by the power iteration grows doubly exponentially while the root
    can be unwound from the accumulated normalizations; after a few warm
    squarings the Collatz-Wielandt bracket closes in a handful of matvecs
    even for nearly degenerate spectra.  The widened bracket tolerance at
    stage j still yields a final relative error below ``tol`` because the
    unwinding divides the log-error by 2**j.
    """
    log_scale = 0.0
    weight = 1.0
    B = A
    for stage in range(60):
        s = float(B.max())
        if not np.isfinite(s) or s <= 0.0:
            break
        log_scale += weight * np.log(s)
        B = B / s
        B = B @ B
        weight *= 0.5
        if stage >= 2:
            est, _, ok = _collatz_iteration(B, min(1e-6, tol / weight), min(max_iter, 300))
            if ok and est > 0.0:
                return float(np.exp(weight * np.log(est) + log_scale))
    raise NumericFailureError("power iteration did not converge; margin unknown")


def oracle_spectral_radius(M: np.ndarray, tol: float = 1e-12, max_iter: int = 20000) -> float:
    """Perron root of one nonnegative matrix via power iteration.

    The matrix is split into strongly connected components first, so the
    iteration always runs on an irreducible block (shifted by I to make it
    primitive); reducible and nilpotent inputs are handled exactly.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("matrix must be square")
    if (M < 0).any() or not np.isfinite(M).all():
        raise InvalidInputError("matrix must be nonnegative and finite")
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0])
    if not M.any():
        return 0.0
    mutual = _mutual_reachability(M)
    if mutual.all():
        blocks = [np.arange(n)]
    else:
        _, labels = np.unique(mutual, axis=0, return_inverse=True)
        blocks = [np.nonzero(labels == c)[0] for c in range(labels.max() + 1)]
    rho = 0.0
    for idx in blocks:
        if idx.size == 1:
            rho = max(rho, float(M[idx[0], idx[0]]))
            continue
        B = M[np.ix_(idx, idx)]
        # Diagonal balancing is a similarity transform: same spectrum, far
        # better conditioning when the entries span many decades.
        balanced, _ = matrix_balance(B + np.eye(idx.size), permute=False)
        rho = max(rho, _perron_root(balanced, tol, max_iter) - 1.0)
    return rho
