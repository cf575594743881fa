"""Projected-gradient loops as written before ``pareto._ascent`` existed.

``pareto`` now runs one ascent generator for the weighted-sum optimum and
the side-payment game.  The two loops it replaced are kept here verbatim,
wrapped in the outer code of their callers, so the tests can assert the
generator reproduces their iterates bit for bit.  They share no code with
``pareto._ascent``.  The weighted-sum gradient is kept as it was too, one
``rate_gradient`` call (and one interference map) per user, and the
side-payment loop evaluates it twice per iteration as before.
"""

from __future__ import annotations

import numpy as np

from specnash.pareto import project_all, random_feasible_profile, rate_array, rate_gradient
from specnash.rng import derive_rng


def scalarized_gradient(p, game, weights):
    """Gradient of sum_q weights_q * R_q(p), shape (Q, N)."""
    total = np.zeros_like(np.asarray(p, dtype=np.float64))
    for q in range(game.Q):
        total += weights[q] * rate_gradient(p, game, q)
    return total


def _ascend(value, gradient, project, p0, step, tol, max_iter):
    """Projected gradient ascent with halving backtracking."""
    p = project(p0)
    val = value(p)
    alpha = step
    for _ in range(max_iter):
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
        if move <= tol:
            break
    return p, val


def oracle_scalarized(game, w, restarts, step, tol, max_iter, seed):
    """Best (profile, value) and the restart values of the multi-start ascent."""

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
        p, val = _ascend(value, gradient, project, p0, step, tol, max_iter)
        values[s] = val
        if val > best_val:
            best_p, best_val = p, val
    return best_p, best_val, values


def oracle_modified_game(game, w, step, tol, max_iter):
    """(profile, residual, iterations, converged) of the side-payment play."""
    p = np.minimum(1.0, game.pmax)

    def objective(x):
        return float(w @ rate_array(x, game))

    def play_gradient(x):
        return scalarized_gradient(x, game, w) / w[:, None]

    val = objective(p)
    alpha = step
    residual = np.inf
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        g = play_gradient(p)
        while True:
            cand = project_all(p + alpha * g, game)
            cand_val = objective(cand)
            if cand_val >= val - 1e-14:
                break
            alpha *= 0.5
            if alpha < 1e-13:
                cand, cand_val = p, val
                break
        p, val = cand, cand_val
        alpha = min(step, alpha * 1.8)
        residual = float(np.abs(project_all(p + play_gradient(p), game) - p).max())
        if residual <= tol:
            converged = True
            break
    return p, residual, iterations, converged
