"""The Theorem 1 check as it ran one sample at a time.

``matrix_oracle`` now draws, factors, checks and scores all sampled
precoders of a report as one stack, and computes user q's interference
covariance once per report.  The per-sample sampler, feasibility check and
payoffs it replaced are kept here as they were, with the sample loop of
``verify_diagonal_optimality``, so the tests can assert that the stacked
code reproduces them bit for bit; the only addition is that the sampler
and the loop report which draws took the mask blend.  They share no code
with the stacked sampler or payoffs; only the channel, the reduced game
and the diagonal best response come from the package.
"""

from __future__ import annotations

import numpy as np

from specnash.channel import build_game
from specnash.errors import InvalidInputError, NumericFailureError
from specnash.matrix_oracle import (
    circulant_links,
    fourier_matrix,
    interference_covariance,
    precoder_from_profile,
)
from specnash.rng import derive_rng
from specnash.waterfilling import WaterfillInput, waterfill


def oracle_feasible(F, P_q, pmax_bar_q, tol=1e-9):
    """Trace budget and per-bin mask feasibility of one precoder."""
    F = np.asarray(F, dtype=np.complex128)
    N = F.shape[0]
    cov = F @ F.conj().T
    if np.trace(cov).real / N > P_q * (1 + tol):
        return False
    W = fourier_matrix(N)
    bins = np.einsum("ki,ij,jk->k", W.conj().T, cov, W).real
    return bool((bins <= pmax_bar_q * (1 + tol) + tol).all())


def _whitened_channel(q, precoders, links):
    """The Hermitian form F^H H^H R^{-1} H F for user q."""
    R = interference_covariance(q, precoders, links)
    HF = links.H[q, q] @ precoders[q]
    return HF.conj().T @ np.linalg.solve(R, HF)


def oracle_mutual_information(q, precoders, links):
    """(1/N) log2 det(I + F^H H^H R^{-1} H F) for user q."""
    N = links.N
    M = _whitened_channel(q, precoders, links)
    sign, logdet = np.linalg.slogdet(np.eye(N) + M)
    if sign.real <= 0 or not np.isfinite(logdet):
        raise NumericFailureError("log-det of the mutual-information form failed")
    return float(logdet / (N * np.log(2.0)))


def oracle_mse_sinr(q, precoders, links):
    """Per-stream SINRs out of the MMSE stage."""
    N = links.N
    E = np.linalg.inv(np.eye(N) + _whitened_channel(q, precoders, links))
    diag = np.real(np.diag(E))
    if not np.isfinite(diag).all() or (diag <= 0).any():
        raise NumericFailureError("MSE diagonal left the (0, 1] range")
    return np.maximum(1.0 / diag - 1.0, 0.0)


def oracle_gap_rate(q, precoders, links, Gamma):
    """(1/N) sum_k log2(1 + SINR_k / Gamma), Gamma >= 1."""
    if Gamma < 1.0:
        raise InvalidInputError("Gamma must be >= 1")
    sinr = oracle_mse_sinr(q, precoders, links)
    return float(np.log2(1.0 + sinr / Gamma).mean())


def oracle_precoder(rng, P_q, pmax_bar_q, N):
    """Random precoder inside the trace-and-mask feasible set.

    Also returns whether the draw took the mask blend.
    """
    A = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2.0)
    C = A @ A.conj().T
    C *= N * P_q / np.trace(C).real
    W = fourier_matrix(N)
    bins = np.einsum("ki,ij,jk->k", W.conj().T, C, W).real
    over = bins > pmax_bar_q
    if over.any():
        target_bins = np.minimum(bins, 0.95 * pmax_bar_q)
        t = float(np.max((bins[over] - pmax_bar_q[over]) / (bins[over] - target_bins[over])))
        target = (W * target_bins[None, :]) @ W.conj().T
        C = (1.0 - t) * C + t * target
    vals, vecs = np.linalg.eigh(C)
    vals = np.clip(vals, 0.0, None)
    B = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2.0)
    U, _ = np.linalg.qr(B)
    return vecs @ (np.sqrt(vals)[:, None] * U), bool(over.any())


def oracle_verify(ch, q, samples, seed, payoff, Gamma=None, tol=1e-9):
    """(values, max_gap, violations, best_response_value, blended draws)."""
    game = build_game(ch)
    links = circulant_links(ch)
    Q, N = ch.Q, ch.N
    opponents = np.minimum(1.0, game.pmax)
    gap = 1.0 if payoff == "mutual_information" else float(ch.Gamma[q] if Gamma is None else Gamma)
    i = game.interference(opponents)[q]
    p_star = waterfill(
        WaterfillInput(g=game.gain2[q, q, :], i=i, Gamma=gap, pmax=game.pmax[q], budget=1.0)
    )
    precoders = np.stack([precoder_from_profile(opponents[r], ch.P[r]) for r in range(Q)])
    precoders[q] = precoder_from_profile(p_star, ch.P[q])
    if payoff == "mutual_information":
        evaluate = lambda P: oracle_mutual_information(q, P, links)
    else:
        evaluate = lambda P: oracle_gap_rate(q, P, links, gap)

    best_value = evaluate(precoders)
    values = np.empty(samples)
    trial = precoders.copy()
    violations = 0
    blended = 0
    max_gap = -np.inf
    for s in range(samples):
        rng = derive_rng(seed, s)
        F, blend = oracle_precoder(rng, ch.P[q], ch.pmax_bar[q], N)
        blended += blend
        if not oracle_feasible(F, ch.P[q], ch.pmax_bar[q]):
            raise NumericFailureError("sampler produced an infeasible precoder")
        trial[q] = F
        values[s] = evaluate(trial)
        excess = values[s] - best_value
        max_gap = max(max_gap, excess)
        if excess > tol:
            violations += 1
    return values, float(max_gap), violations, float(best_value), blended
