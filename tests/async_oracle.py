"""Totally asynchronous iterative waterfilling, kept as a test oracle for the certificates.

Part II of the source paper and Scutari, Palomar & Barbarossa ("Asynchronous
iterative water-filling for Gaussian frequency-selective interference
channels", IEEE T-IT 54(7), 2008) prove that under the contraction condition
that makes the Nash equilibrium unique, the totally asynchronous schedule
converges to it as the Jacobi and Gauss-Seidel schedules do.  At each tick a
random non-empty set of users updates, and each of them reads every other
user's power with its own delay of up to ``max_delay`` ticks.

The schedule runs on ``NormalizedGame.interference_row`` and
``waterfill_rows`` alone, so it shares no loop with
``specnash.equilibrium.solve``.
"""

from __future__ import annotations

import numpy as np

from specnash.waterfilling import waterfill_rows


def residual(p: np.ndarray, game) -> float:
    """Sup-norm of p - WF(p), each user's best response to the others' powers in p."""
    i = np.stack([game.interference_row(p, q) for q in range(game.Q)])
    response, _ = waterfill_rows(game.direct_gain2(), i, game.Gamma, game.pmax)
    return float(np.abs(response - p).max())


def async_waterfill(game, seed: int, ticks: int = 1500, max_delay: int = 5,
                    tol: float = 1e-12) -> tuple:
    """Run the asynchronous schedule from p = min(1, pmax): returns (p, converged).

    The run stops once the profile is a fixed point of the best-response
    map within ``tol`` (its residual is checked whenever a tick moves no
    power by more than ``tol``), or after ``ticks`` ticks.
    """
    rng = np.random.default_rng(seed)
    Q = game.Q
    direct = game.direct_gain2()
    history = [np.minimum(1.0, game.pmax)]  # the profiles of the last max_delay + 1 ticks
    for _ in range(ticks):
        users = rng.random(Q) < 0.5
        users[rng.integers(Q)] = True
        now = history[-1]
        new = now.copy()
        for q in np.flatnonzero(users):
            delays = rng.integers(0, len(history), Q)  # 0 reads the newest profile
            stale = np.stack([history[-1 - d][r] for r, d in enumerate(delays)])
            new[q], _ = waterfill_rows(direct[q], game.interference_row(stale, q),
                                       game.Gamma[q], game.pmax[q])
        history = (history + [new])[-(max_delay + 1):]
        if np.abs(new - now).max() <= tol and residual(new, game) <= tol:
            return new, True
    return history[-1], False
