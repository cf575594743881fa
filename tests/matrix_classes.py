"""Matrix-class predicates for the tests of the K-matrix lemma.

For a nonnegative H, rho(H) < 1 exactly when I - H is a K-matrix: a
Z-matrix (nonpositive off-diagonal) whose principal minors are all
positive.  The tests check the certificates' spectral radii against this
characterization by exhaustive minor enumeration.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from specnash.errors import InvalidInputError


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
