"""Small-N matrix-valued payoff oracle.

The power game is the reduced form of a game whose strategies are full
N x N precoding matrices acting through circulant channel matrices.  This
module evaluates the original matrix payoffs (mutual information and
MMSE-SINR gap rates) for arbitrary precoders so that the reduction --
"diagonal transmission over the DFT bins is optimal" -- can be verified
empirically: random feasible precoders must never beat the waterfilled
diagonal response.

Dense linear algebra only, intended for N <= 8.  The sampler, the
feasibility check and both payoffs work on stacks of precoders of shape
(..., N, N).  An instance builds its game and links once; each user draws
its samples as one stack (one batched ``eigh`` and ``qr``) and whitens them
against its interference covariance once, and every payoff scores that one
form.  The public single-precoder functions are the same code on one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, build_game, frequency_response
from .errors import InvalidInputError, NumericFailureError
from .rng import keyed_normals
from .waterfilling import WaterfillInput, waterfill


def fourier_matrix(N: int) -> np.ndarray:
    """Unitary inverse-DFT matrix W with W[i, j] = exp(2j pi i j / N)/sqrt(N)."""
    idx = np.arange(N)
    return np.exp(2j * np.pi * np.outer(idx, idx) / N) / np.sqrt(N)


@dataclass(frozen=True)
class LinkMatrices:
    """Circulant channel matrices H[r, q] (N x N each) and noise powers.

    Generated exactly as W diag(resp) W^H from the frequency responses,
    path loss included.
    """

    H: np.ndarray
    sigma2: np.ndarray

    @property
    def Q(self) -> int:
        return self.H.shape[0]

    @property
    def N(self) -> int:
        return self.H.shape[2]


def circulant_links(ch: ChannelSet) -> LinkMatrices:
    """Build the exact circulant channel matrices of a scenario."""
    W = fourier_matrix(ch.N)
    with np.errstate(over="ignore"):  # an infinite path loss is a zero channel
        resp = frequency_response(ch.taps, ch.N) / np.sqrt(ch.d**ch.gamma)[:, :, None]
    H = np.einsum("ij,rqj,kj->rqik", W, resp, W.conj())
    return LinkMatrices(H=H, sigma2=ch.sigma2.copy())


def precoder_from_profile(p_q: np.ndarray, P_q: float) -> np.ndarray:
    """Diagonal-in-frequency precoder carrying the normalized profile p_q."""
    p_q = np.asarray(p_q, dtype=np.float64)
    W = fourier_matrix(p_q.size)
    return W * np.sqrt(P_q * p_q)[None, :]


def _hermitian(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return X.conj().swapaxes(-1, -2)


def _bin_powers(C: np.ndarray) -> np.ndarray:
    """Per-bin powers diag(W^H C W) of (..., N, N) covariances, shape (..., N)."""
    W = fourier_matrix(C.shape[-1])
    return np.einsum("ki,...ij,jk->...k", W.conj().T, C, W).real


def _feasible(F: np.ndarray, P_q: float, pmax_bar_q: np.ndarray) -> np.ndarray:
    """Trace budget and per-bin mask feasibility of (..., N, N) precoders to 1e-9, shape (...)."""
    N = F.shape[-1]
    cov = F @ _hermitian(F)
    within_budget = np.trace(cov, axis1=-2, axis2=-1).real / N <= P_q * (1 + 1e-9)  # NaN fails
    if not np.isfinite(pmax_bar_q).any():  # no mask to check
        return within_budget
    return within_budget & (_bin_powers(cov) <= pmax_bar_q * (1 + 1e-9) + 1e-9).all(axis=-1)


def precoder_feasible(F: np.ndarray, P_q: float, pmax_bar_q: np.ndarray) -> bool:
    """Feasibility of one precoder in the matrix game's strategy set: the
    trace (transmit power) budget plus the spectral mask on every bin, to 1e-9."""
    return bool(_feasible(np.asarray(F, dtype=np.complex128), P_q, pmax_bar_q))


def interference_covariance(q: int, precoders: np.ndarray, links: LinkMatrices) -> np.ndarray:
    """Noise-plus-interference covariance seen by receiver q."""
    N = links.N
    R = links.sigma2[q] * np.eye(N, dtype=np.complex128)
    for r in range(links.Q):
        if r == q:
            continue
        HF = links.H[r, q] @ precoders[r]
        R = R + HF @ HF.conj().T
    return R


def _whitened_channel(q: int, F: np.ndarray, links: LinkMatrices, R: np.ndarray):
    """H F, R^{-1} H F and the Hermitian form F^H H^H R^{-1} H F of user q.

    ``F`` holds user q's precoders, shape (..., N, N); ``R`` is the
    covariance they are received against.
    """
    HF = links.H[q, q] @ F
    RinvHF = np.linalg.solve(R, HF)
    return HF, RinvHF, _hermitian(HF) @ RinvHF


def _log_det_rate(M: np.ndarray) -> np.ndarray:
    """(1/N) log2 det(I + M) over (..., N, N)."""
    N = M.shape[-1]
    sign, logdet = np.linalg.slogdet(np.eye(N) + M)
    if (sign.real <= 0).any() or not np.isfinite(logdet).all():
        raise NumericFailureError("log-det of the mutual-information form failed")
    return logdet / (N * np.log(2.0))


def _mse_sinr(M: np.ndarray) -> np.ndarray:
    """Per-stream SINRs 1/[E]_kk - 1 with E = (I + M)^{-1}, over (..., N, N)."""
    E = np.linalg.inv(np.eye(M.shape[-1]) + M)
    diag = np.diagonal(E, axis1=-2, axis2=-1).real
    if not np.isfinite(diag).all() or (diag <= 0).any():
        raise NumericFailureError("MSE diagonal left the (0, 1] range")
    return np.maximum(1.0 / diag - 1.0, 0.0)


def _gap_rate(M: np.ndarray, Gamma: float) -> np.ndarray:
    """(1/N) sum_k log2(1 + SINR_k / Gamma) over (..., N, N)."""
    return np.log2(1.0 + _mse_sinr(M) / Gamma).mean(axis=-1)


def mutual_information(q: int, precoders: np.ndarray, links: LinkMatrices) -> float:
    """(1/N) log2 det(I + F^H H^H R^{-1} H F) for user q, in bits."""
    R = interference_covariance(q, precoders, links)
    return float(_log_det_rate(_whitened_channel(q, precoders[q], links, R)[2]))


def mmse_receiver(q: int, precoders: np.ndarray, links: LinkMatrices) -> np.ndarray:
    """Wiener receive filter G for user q.

    G = R^{-1} H F (I + F^H H^H R^{-1} H F)^{-1}: the MMSE stage of the
    rate game's receiver.  The capacity-losslessness identity is
    recomputed through G and must match the direct mutual information to
    1e-9.
    """
    N = links.N
    R = interference_covariance(q, precoders, links)
    HF, RinvHF, M = _whitened_channel(q, precoders[q], links, R)
    G = RinvHF @ np.linalg.inv(np.eye(N) + M)
    if not np.isfinite(G).all():
        raise NumericFailureError("non-finite MMSE receiver")
    GH_HF = G.conj().T @ HF
    GRG = G.conj().T @ R @ G
    inner = GH_HF.conj().T @ np.linalg.pinv(GRG) @ GH_HF
    sign, logdet = np.linalg.slogdet(np.eye(N) + inner)
    direct = _log_det_rate(M) * (N * np.log(2.0))
    if sign.real <= 0 or abs(logdet - direct) > 1e-9 * max(1.0, abs(direct)):
        raise NumericFailureError("MMSE filter is not capacity-lossless")
    return G


def mse_sinr(q: int, precoders: np.ndarray, links: LinkMatrices) -> np.ndarray:
    """Per-stream SINRs out of the MMSE stage of the rate game: 1/[E]_kk - 1
    with E = (I + F^H H^H R^{-1} H F)^{-1}."""
    R = interference_covariance(q, precoders, links)
    return _mse_sinr(_whitened_channel(q, precoders[q], links, R)[2])


def gap_rate(
    q: int, precoders: np.ndarray, links: LinkMatrices, Gamma: float
) -> float:
    """(1/N) sum_k log2(1 + SINR_k / Gamma), Gamma >= 1."""
    if Gamma < 1.0:
        raise InvalidInputError("Gamma must be >= 1")
    R = interference_covariance(q, precoders, links)
    return float(_gap_rate(_whitened_channel(q, precoders[q], links, R)[2], Gamma))


def qam_gap(pe_target: float) -> float:
    """SNR gap of square M-QAM at a symbol error target.

    Gap = (Qinv(pe/4))^2 / 3, with Qinv the inverse Gaussian tail: the
    rate game's Gamma under its symbol error probability constraint.
    """
    if not 0 < pe_target < 1:
        raise InvalidInputError("pe_target must lie in (0, 1)")
    # Imported here: scipy.special adds ~300 ms to every cold start, and no driver calls this.
    from scipy.special import erfcinv
    qinv = np.sqrt(2.0) * erfcinv(2.0 * (pe_target / 4.0))
    return float(qinv**2 / 3.0)


def _feasible_precoders(
    Z: np.ndarray, P_q: float, pmax_bar_q: np.ndarray
) -> np.ndarray:
    """Random precoders inside the trace-and-mask feasible set, one per draw.

    ``Z`` holds standard normals of shape (S, 4, N, N): the real and
    imaginary parts of a complex Gaussian A, then of a complex Gaussian B.
    Form the covariance A A^H and rescale it onto the trace budget; where
    some bin exceeds its mask, blend toward a slightly contracted
    masked-diagonal projection just far enough for every mask to hold.  The
    Haar-random right factor from the QR of B keeps the sample from being
    normal, which matters to the MSE-based payoff.  Returns (S, N, N);
    raises NumericFailureError if a precoder leaves the feasible set.
    """
    N = Z.shape[-1]
    A = (Z[:, 0] + 1j * Z[:, 1]) / np.sqrt(2.0)
    C = A @ _hermitian(A)
    C *= (N * P_q / np.trace(C, axis1=1, axis2=2).real)[:, None, None]
    # Without a finite cap no draw exceeds its mask; skip the bin powers.
    bins = _bin_powers(C) if np.isfinite(pmax_bar_q).any() else np.zeros(C.shape[:-1])
    over = bins > pmax_bar_q
    blend = over.any(axis=1)
    if blend.any():
        bins, over = bins[blend], over[blend]
        target_bins = np.minimum(bins, 0.95 * pmax_bar_q)
        excess = np.where(over, bins - pmax_bar_q, -np.inf)
        t = (excess / np.where(over, bins - target_bins, 1.0)).max(axis=1)[:, None, None]
        W = fourier_matrix(N)
        target = (W * target_bins[:, None, :]) @ W.conj().T
        C[blend] = (1.0 - t) * C[blend] + t * target
    vals, vecs = np.linalg.eigh(C)
    vals = np.clip(vals, 0.0, None)
    U, _ = np.linalg.qr((Z[:, 2] + 1j * Z[:, 3]) / np.sqrt(2.0))
    F = vecs @ (np.sqrt(vals)[:, :, None] * U)
    if not _feasible(F, P_q, pmax_bar_q).all():
        raise NumericFailureError("sampler produced an infeasible precoder")
    return F


def random_feasible_precoder(rng: np.random.Generator, P_q: float, pmax_bar_q) -> np.ndarray:
    """Random N x N precoder inside the trace-and-mask feasible set, N = ``pmax_bar_q.size``.

    One draw of the stacked sampler: four N x N blocks of standard normals
    taken from ``rng`` in order (A real, A imaginary, B real, B imaginary).
    """
    N = np.size(pmax_bar_q)
    return _feasible_precoders(rng.standard_normal((1, 4, N, N)), P_q, pmax_bar_q)[0]


def _precoder_stack(seed: int, samples: int, P_q: float, pmax_bar_q) -> np.ndarray:
    """(samples, N, N) random feasible precoders; sample s draws from ``derive_rng(seed, s)``."""
    N = len(pmax_bar_q)
    Z = keyed_normals([(seed, s) for s in range(samples)], (4, N, N))
    return _feasible_precoders(Z, P_q, np.asarray(pmax_bar_q, dtype=np.float64))


@dataclass(frozen=True)
class DiagonalOptimalityReport:
    """Outcome of the random-precoder dominance experiment."""

    violations: int
    max_gap: float
    best_response_value: float
    values: np.ndarray


def _instance(ch: ChannelSet, samples: int) -> tuple:
    """Game, links, opponents' profiles and their diagonal precoders of one
    scenario, built once for all of its (user, payoff) reports; opponents play uniform, capped."""
    if ch.N > 8:
        raise InvalidInputError("oracle is dense-only; N <= 8")
    if samples < 50:
        raise InvalidInputError("need at least 50 samples for a meaningful check")
    game = build_game(ch)
    opponents = np.minimum(1.0, game.pmax)
    precoders = np.stack([precoder_from_profile(opponents[r], ch.P[r]) for r in range(ch.Q)])
    return game, circulant_links(ch), opponents, precoders


def _user_reports(ch, instance, q, seed, samples, payoffs, Gamma) -> list:
    """User q's report under each payoff, all scored on one draw of its
    precoders and one whitened form F^H H^H R^-1 H F against the opponents.
    A sample beating the diagonal response by more than 1e-9 is a violation."""
    game, links, opponents, precoders = instance
    F = _precoder_stack(seed, samples, float(ch.P[q]), ch.pmax_bar[q])
    M = _whitened_channel(q, F, links, interference_covariance(q, precoders, links))[2]
    i = game.interference(opponents)[q]
    reports = []
    for payoff in payoffs:
        gap = float(ch.Gamma[q] if Gamma is None else Gamma) if payoff == "gap" else 1.0
        inp = WaterfillInput(g=game.gain2[q, q, :], i=i, Gamma=gap, pmax=game.pmax[q], budget=1.0)
        own = precoders.copy()
        own[q] = precoder_from_profile(waterfill(inp), ch.P[q])
        if payoff == "mutual_information":
            best_value, values = mutual_information(q, own, links), _log_det_rate(M)
        elif payoff == "gap":
            best_value, values = gap_rate(q, own, links, gap), _gap_rate(M, gap)
        else:
            raise InvalidInputError(f"unknown payoff {payoff!r}")
        excess = values - best_value
        reports.append(DiagonalOptimalityReport(
            violations=int((excess > 1e-9).sum()), max_gap=float(excess.max()),
            best_response_value=best_value, values=values,
        ))
    return reports


def verify_diagonal_optimality(
    ch: ChannelSet,
    q: int,
    samples: int = 200,
    seed: int = 0,
    payoff: str = "mutual_information",
    Gamma: float | None = None,
) -> DiagonalOptimalityReport:
    """Check that no random feasible precoder beats the diagonal response.

    Opponents are fixed to uniform diagonal profiles, capped by their
    masks; user q's diagonal best response is the waterfilling solution of
    the reduced game, and every sampled precoder's payoff must stay within
    1e-9 of it.  Works for both payoffs: exact mutual information and the
    gap-approximation rate (pass Gamma).
    """
    return _user_reports(ch, _instance(ch, samples), q, seed, samples, [payoff], Gamma)[0]


def verify_instance(ch: ChannelSet, seeds, samples: int, payoffs, Gamma: float) -> list:
    """``verify_diagonal_optimality`` of every user q (uniform opponents, draws
    from ``seeds[q]``) under each payoff, the gap one at ``Gamma``, in (user,
    payoff) order.  The game, the links and each user's draw and whitened
    form are built once, and every payoff is scored on them."""
    instance = _instance(ch, samples)
    return [report for q, seed in enumerate(seeds)
            for report in _user_reports(ch, instance, q, seed, samples, payoffs, Gamma)]


def majorization_leq(x: np.ndarray, y: np.ndarray, tol: float = 1e-12) -> bool:
    """True when x is majorized by y (equal totals, prefix dominance).  The
    majorization step behind diagonal optimality: a Hermitian matrix's
    diagonal is majorized by its eigenvalues (Schur)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("majorization compares equal-length vectors")
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    scale = max(1.0, float(np.abs(y).max()))
    if abs(xs.sum() - ys.sum()) > tol * scale * x.size:
        return False
    return bool((np.cumsum(xs) <= np.cumsum(ys) + tol * scale * x.size).all())
