"""Small-N matrix-valued payoff oracle.

The power game is the reduced form of a game whose strategies are full
N x N precoding matrices acting through circulant channel matrices.  This
module evaluates the original matrix payoffs (mutual information and
MMSE-SINR gap rates) for arbitrary precoders so that the reduction --
"diagonal transmission over the DFT bins is optimal" -- can be verified
empirically: random feasible precoders must never beat the waterfilled
diagonal response.

Dense linear algebra only, intended for N <= 8; this is an oracle, not a
performance path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcinv

from .channel import ChannelSet, build_game
from .errors import InvalidInputError, NumericFailureError
from .rng import derive_rng
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
    Q, N = ch.Q, ch.N
    W = fourier_matrix(N)
    resp = np.fft.fft(ch.taps, n=N, axis=2) / np.sqrt(ch.d**ch.gamma)[:, :, None]
    H = np.einsum("ij,rqj,kj->rqik", W, resp, W.conj())
    return LinkMatrices(H=H, sigma2=ch.sigma2.copy())


def precoder_from_profile(p_q: np.ndarray, P_q: float, N: int | None = None) -> np.ndarray:
    """Diagonal-in-frequency precoder carrying the normalized profile p_q."""
    p_q = np.asarray(p_q, dtype=np.float64)
    N = p_q.size if N is None else N
    W = fourier_matrix(N)
    return W * np.sqrt(P_q * p_q)[None, :]


def precoder_feasible(
    F: np.ndarray, P_q: float, pmax_bar_q: np.ndarray, tol: float = 1e-9
) -> bool:
    """Trace budget and per-bin mask feasibility of one precoder."""
    F = np.asarray(F, dtype=np.complex128)
    N = F.shape[0]
    cov = F @ F.conj().T
    if np.trace(cov).real / N > P_q * (1 + tol):
        return False
    W = fourier_matrix(N)
    bins = np.einsum("ki,ij,jk->k", W.conj().T, cov, W).real
    return bool((bins <= pmax_bar_q * (1 + tol) + tol).all())


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


def _whitened_channel(q: int, precoders: np.ndarray, links: LinkMatrices) -> np.ndarray:
    """The Hermitian form F^H H^H R^{-1} H F for user q."""
    R = interference_covariance(q, precoders, links)
    HF = links.H[q, q] @ precoders[q]
    return HF.conj().T @ np.linalg.solve(R, HF)


def mutual_information(
    q: int, precoders: np.ndarray, links: LinkMatrices, base: float = 2.0
) -> float:
    """(1/N) log det(I + F^H H^H R^{-1} H F) for user q."""
    N = links.N
    M = _whitened_channel(q, precoders, links)
    sign, logdet = np.linalg.slogdet(np.eye(N) + M)
    if sign.real <= 0 or not np.isfinite(logdet):
        raise NumericFailureError("log-det of the mutual-information form failed")
    return float(logdet / (N * np.log(base)))


def mmse_receiver(
    q: int, precoders: np.ndarray, links: LinkMatrices, verify: bool = True
) -> np.ndarray:
    """Wiener receive filter G for user q.

    G = R^{-1} H F (I + F^H H^H R^{-1} H F)^{-1}.  With verify=True the
    capacity-losslessness identity is recomputed through G and must match
    the direct mutual information to 1e-9.
    """
    N = links.N
    R = interference_covariance(q, precoders, links)
    HF = links.H[q, q] @ precoders[q]
    RinvHF = np.linalg.solve(R, HF)
    G = RinvHF @ np.linalg.inv(np.eye(N) + HF.conj().T @ RinvHF)
    if not np.isfinite(G).all():
        raise NumericFailureError("non-finite MMSE receiver")
    if verify:
        GH_HF = G.conj().T @ HF
        GRG = G.conj().T @ R @ G
        inner = GH_HF.conj().T @ np.linalg.pinv(GRG) @ GH_HF
        sign, logdet = np.linalg.slogdet(np.eye(N) + inner)
        direct = mutual_information(q, precoders, links, base=np.e) * N
        if sign.real <= 0 or abs(logdet - direct) > 1e-9 * max(1.0, abs(direct)):
            raise NumericFailureError("MMSE filter is not capacity-lossless")
    return G


def mse_sinr(q: int, precoders: np.ndarray, links: LinkMatrices) -> np.ndarray:
    """Per-stream SINRs out of the MMSE stage: 1/[E]_kk - 1 with
    E = (I + F^H H^H R^{-1} H F)^{-1}."""
    N = links.N
    E = np.linalg.inv(np.eye(N) + _whitened_channel(q, precoders, links))
    diag = np.real(np.diag(E))
    if not np.isfinite(diag).all() or (diag <= 0).any():
        raise NumericFailureError("MSE diagonal left the (0, 1] range")
    return np.maximum(1.0 / diag - 1.0, 0.0)


def gap_rate(
    q: int, precoders: np.ndarray, links: LinkMatrices, Gamma: float
) -> float:
    """(1/N) sum_k log2(1 + SINR_k / Gamma), Gamma >= 1."""
    if Gamma < 1.0:
        raise InvalidInputError("Gamma must be >= 1")
    sinr = mse_sinr(q, precoders, links)
    return float(np.log2(1.0 + sinr / Gamma).mean())


def qam_gap(pe_target: float) -> float:
    """SNR gap of square M-QAM at a symbol error target.

    Gap = (Qinv(pe/4))^2 / 3, with Qinv the inverse Gaussian tail.
    """
    if not 0 < pe_target < 1:
        raise InvalidInputError("pe_target must lie in (0, 1)")
    qinv = np.sqrt(2.0) * erfcinv(2.0 * (pe_target / 4.0))
    return float(qinv**2 / 3.0)


def random_feasible_precoder(
    rng: np.random.Generator, P_q: float, pmax_bar_q: np.ndarray, N: int
) -> np.ndarray:
    """Random precoder inside the trace-and-mask feasible set.

    Draw a complex Gaussian matrix, form its covariance, rescale onto the
    trace budget, then (if some bin exceeds its mask) blend toward a
    slightly contracted masked-diagonal projection just far enough for
    every mask to hold.  A Haar-random right factor is applied so the
    sample is not normal, which matters to the MSE-based payoff.
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
    return vecs @ (np.sqrt(vals)[:, None] * U)


@dataclass(frozen=True)
class DiagonalOptimalityReport:
    """Outcome of the random-precoder dominance experiment."""

    payoff: str
    samples: int
    violations: int
    max_gap: float
    best_response_value: float
    values: np.ndarray


def verify_diagonal_optimality(
    ch: ChannelSet,
    q: int,
    samples: int = 200,
    seed: int = 0,
    payoff: str = "mutual_information",
    Gamma: float | None = None,
    opponents: np.ndarray | None = None,
    tol: float = 1e-9,
) -> DiagonalOptimalityReport:
    """Check that no random feasible precoder beats the diagonal response.

    Opponents are fixed to diagonal profiles (uniform by default); user
    q's diagonal best response is the waterfilling solution of the reduced
    game, and every sampled precoder's payoff must stay within ``tol`` of
    it.  Works for both payoffs: exact mutual information and the
    gap-approximation rate (pass Gamma).
    """
    if ch.N > 8:
        raise InvalidInputError("oracle is dense-only; N <= 8")
    if samples < 50:
        raise InvalidInputError("need at least 50 samples for a meaningful check")
    game = build_game(ch)
    links = circulant_links(ch)
    Q, N = ch.Q, ch.N
    if opponents is None:
        opponents = np.minimum(1.0, game.pmax)
    opponents = np.asarray(opponents, dtype=np.float64)

    gap = 1.0 if payoff == "mutual_information" else float(ch.Gamma[q] if Gamma is None else Gamma)
    i = game.interference(opponents)[q]
    p_star = waterfill(
        WaterfillInput(g=game.gain2[q, q, :], i=i, Gamma=gap, pmax=game.pmax[q], budget=1.0)
    )

    precoders = np.stack([precoder_from_profile(opponents[r], ch.P[r], N) for r in range(Q)])
    precoders[q] = precoder_from_profile(p_star, ch.P[q], N)

    if payoff == "mutual_information":
        evaluate = lambda P: mutual_information(q, P, links)
    elif payoff == "gap":
        evaluate = lambda P: gap_rate(q, P, links, gap)
    else:
        raise InvalidInputError(f"unknown payoff {payoff!r}")

    best_value = evaluate(precoders)
    values = np.empty(samples)
    trial = precoders.copy()
    violations = 0
    max_gap = -np.inf
    for s in range(samples):
        rng = derive_rng(seed, s)
        F = random_feasible_precoder(rng, ch.P[q], ch.pmax_bar[q], N)
        if not precoder_feasible(F, ch.P[q], ch.pmax_bar[q]):
            raise NumericFailureError("sampler produced an infeasible precoder")
        trial[q] = F
        values[s] = evaluate(trial)
        excess = values[s] - best_value
        max_gap = max(max_gap, excess)
        if excess > tol:
            violations += 1
    return DiagonalOptimalityReport(
        payoff=payoff,
        samples=samples,
        violations=violations,
        max_gap=float(max_gap),
        best_response_value=float(best_value),
        values=values,
    )


def majorization_leq(x: np.ndarray, y: np.ndarray, tol: float = 1e-12) -> bool:
    """True when x is majorized by y (equal totals, prefix dominance)."""
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
