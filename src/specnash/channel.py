"""Multi-link frequency-selective channel scenarios.

A scenario couples Q transmit/receive pairs ("links") that share N
frequency bins.  Each cross channel is a complex FIR filter whose
frequency response, together with path loss, transmit power and noise
power, determines the per-bin squared gains consumed by the power game.

DFT convention, fixed once for the whole package: the response on bin k
is ``sum_l taps[l] * exp(-2j*pi*k*l/N)`` for k = 0..N-1 (zero-padded,
no 1/sqrt(N) scaling; the unitary factor cancels in every gain ratio).
:func:`frequency_response` is the only code that applies it to taps.
Bin indices are 0-based internally and 1-based in emitted reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .rng import keyed_normals

# Spectral masks default to "no cap" on a bin.
UNBOUNDED = np.inf


@dataclass(frozen=True)
class ChannelSet:
    """Raw physical scenario.

    Attributes
    ----------
    taps : ndarray, shape (Q, Q, L+1), complex
        ``taps[r, q]`` is the normalized-fading FIR channel from
        transmitter r to receiver q.
    d : ndarray, shape (Q, Q)
        Distances (unitless ratios allowed), ``d[r, q]`` from
        transmitter r to receiver q.
    gamma : float
        Path-loss exponent.
    P : ndarray, shape (Q,)
        Transmit power budgets (energy per symbol).
    sigma2 : ndarray, shape (Q,)
        Receiver noise powers.
    pmax_bar : ndarray, shape (Q, N)
        Absolute per-bin mask caps (energy per symbol); ``UNBOUNDED``
        where no cap applies.
    Gamma : ndarray, shape (Q,)
        SNR gaps, >= 1 (1 for ideal Gaussian signaling).
    N : int
        Number of frequency bins.
    """

    taps: np.ndarray
    d: np.ndarray
    gamma: float
    P: np.ndarray
    sigma2: np.ndarray
    pmax_bar: np.ndarray
    Gamma: np.ndarray
    N: int

    def __post_init__(self):
        object.__setattr__(self, "taps", np.asarray(self.taps, dtype=np.complex128))
        for name in ("d", "P", "sigma2", "pmax_bar", "Gamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "N", int(self.N))
        self._validate()

    @property
    def Q(self) -> int:
        return self.taps.shape[0]

    def _validate(self):
        if self.taps.ndim != 3 or self.taps.shape[0] != self.taps.shape[1]:
            raise InvalidInputError(f"taps must have shape (Q, Q, L+1), got {self.taps.shape}")
        if not np.isfinite(self.taps).all():
            raise InvalidInputError("taps must be finite")
        Q = self.taps.shape[0]
        if Q < 1 or self.N < 1:
            raise InvalidInputError("need Q >= 1 and N >= 1")
        if self.taps.shape[2] > self.N:
            raise InvalidInputError(
                f"channel order too high: {self.taps.shape[2]} taps for N={self.N} bins"
            )
        if self.d.shape != (Q, Q) or not (self.d > 0).all():
            raise InvalidInputError("d must be (Q, Q) with positive entries")
        if self.P.shape != (Q,) or not (self.P > 0).all():
            raise InvalidInputError("P must be (Q,) with positive entries")
        if self.sigma2.shape != (Q,) or not (self.sigma2 > 0).all():
            raise InvalidInputError("sigma2 must be (Q,) with positive entries")
        # Written so that NaN fails each test; an infinite cap is UNBOUNDED.
        if self.pmax_bar.shape != (Q, self.N) or not (self.pmax_bar >= 0).all():
            raise InvalidInputError("pmax_bar must be (Q, N) and nonnegative")
        if self.Gamma.shape != (Q,) or not (self.Gamma >= 1).all():
            raise InvalidInputError("Gamma must be (Q,) with entries >= 1")


@dataclass(frozen=True)
class NormalizedGame:
    """Vector power game data: everything the solvers consume.

    ``gain2[r, q, k]`` is the squared magnitude of the normalized channel
    from transmitter r into receiver q on bin k, i.e. the fading response
    scaled by ``sqrt(P_r / (sigma2_q * d_rq**gamma))``; the direct entries
    ``gain2[q, q, k]`` equal snr_q times the fading power.  ``pmax`` is the
    mask in units of the owner's budget, so the per-user strategy set is
    ``{0 <= p <= pmax, mean_k p(k) <= 1}``.
    """

    gain2: np.ndarray
    pmax: np.ndarray
    Gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain2", np.asarray(self.gain2, dtype=np.float64))
        object.__setattr__(self, "pmax", np.asarray(self.pmax, dtype=np.float64))
        object.__setattr__(self, "Gamma", np.asarray(self.Gamma, dtype=np.float64))
        if self.gain2.ndim != 3 or self.gain2.shape[0] != self.gain2.shape[1]:
            raise InvalidInputError(f"gain2 must be (Q, Q, N), got {self.gain2.shape}")
        if not (np.isfinite(self.gain2) & (self.gain2 >= 0)).all():
            raise InvalidInputError("gain2 must be finite and nonnegative")
        if self.pmax.shape != (self.Q, self.N) or not (self.pmax >= 0).all():
            raise InvalidInputError("pmax must be (Q, N) and nonnegative")
        if self.Gamma.shape != (self.Q,) or not (self.Gamma >= 1).all():
            raise InvalidInputError("Gamma must be (Q,) with entries >= 1")
        # Kept contiguous: every best response multiplies by them.
        direct = self.gain2.diagonal().T.copy()
        direct.flags.writeable = False
        object.__setattr__(self, "_direct", direct)

    @property
    def Q(self) -> int:
        return self.gain2.shape[0]

    @property
    def N(self) -> int:
        return self.gain2.shape[2]

    def direct_gain2(self) -> np.ndarray:
        """Direct-link gains, shape (Q, N), read-only."""
        return self._direct

    def interference(self, p: np.ndarray) -> np.ndarray:
        """Interference-plus-noise factors of a (Q, N) profile, shape (Q, N).

        ``i_q(k) = 1 + sum_{r != q} gain2[r, q, k] p_r(k)``, clamped at 1
        against the rounding of the own-term subtraction.
        """
        p = np.asarray(p, dtype=np.float64)
        i = np.einsum("rqk,rk->qk", self.gain2, p)
        i += 1.0
        i -= self._direct * p
        return np.maximum(i, 1.0, out=i)

    def scaled_powers(self, factors: np.ndarray) -> "NormalizedGame":
        """Game with each budget P_r multiplied by ``factors[r]``.

        Budgets enter only through the gains (strategies stay normalized),
        so scaling P_r scales ``gain2[r, :, :]`` by the same factor.
        """
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.Q,) or (factors <= 0).any():
            raise InvalidInputError("factors must be (Q,) positive")
        return NormalizedGame(
            gain2=self.gain2 * factors[:, None, None],
            pmax=self.pmax,
            Gamma=self.Gamma,
        )


def frequency_response(taps: np.ndarray, N: int) -> np.ndarray:
    """Length-N responses of FIR taps along their last axis (any leading axes
    index the links): the package's one tap DFT, see the module note."""
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim == 0:
        raise InvalidInputError("taps must have at least one axis")
    if taps.shape[-1] > N:
        raise InvalidInputError(f"{taps.shape[-1]} taps do not fit in N={N} bins")
    return np.fft.fft(taps, n=N)


def build_game(ch: ChannelSet) -> NormalizedGame:
    """Normalize a raw scenario into the vector game it induces.

    Pure function: ``gain2[r, q, k] = |resp_rq(k)|^2 * P_r / (sigma2_q *
    d_rq**gamma)`` and ``pmax[q] = pmax_bar[q] / P_q``.
    """
    return _scaled_game(ch, np.abs(frequency_response(ch.taps, ch.N)) ** 2)


def distance_sweep(ch: ChannelSet, distances) -> list:
    """``build_game`` of ``ch`` at each (Q, Q) distance matrix, in order.

    The taps' frequency response is computed once and every game rescales
    the same fading powers, so game i equals ``build_game`` of ``ch`` with
    ``d = distances[i]``.
    """
    fading2 = np.abs(frequency_response(ch.taps, ch.N)) ** 2
    return [_scaled_game(replace(ch, d=d), fading2) for d in distances]


def _scaled_game(ch: ChannelSet, fading2: np.ndarray) -> NormalizedGame:
    scale = ch.P[:, None] / (ch.sigma2[None, :] * ch.d**ch.gamma)
    return NormalizedGame(
        gain2=fading2 * scale[:, :, None], pmax=ch.pmax_bar / ch.P[:, None], Gamma=ch.Gamma.copy()
    )


def ratio_distances(Q: int, d_ratio: float) -> np.ndarray:
    """Distance matrix with unit direct links and every cross link at ``d_ratio``."""
    d = np.full((Q, Q), float(d_ratio))
    np.fill_diagonal(d, 1.0)
    return d


def ratio_scenario(
    Q: int,
    N: int,
    *,
    gamma: float = 2.5,
    d_ratio: float = 2.0,
    snr_db: float = 10.0,
    Gamma: float = 1.0,
    channel_order: int = 6,
    seed: int | tuple = 0,
    d: np.ndarray | None = None,
    tap_variance: float | None = None,
    tap_decay: float | None = None,
    pmax_bar: np.ndarray | None = None,
) -> ChannelSet:
    """Scenario specified by ratios rather than absolute units.

    Only ratios matter to the game, so this builder fixes sigma2 = 1 and
    d_qq = 1 and sets P_q from the requested SNR.  Cross distances default
    to ``d_ratio`` for every interfering pair; pass ``d`` for an arbitrary
    (Q, Q) distance matrix (diagonal taken as given).  Taps are independent
    complex Gaussians with total expected energy 1: a uniform power-delay
    profile by default (per-tap variance ``1/(channel_order+1)``, or
    ``tap_variance``), or an exponential profile ``exp(-l/tap_decay)``
    (normalized) for mildly selective channels.  Streams are keyed by
    ``(seed, r, q)``.
    """
    d = ratio_distances(Q, d_ratio) if d is None else np.asarray(d, dtype=np.float64)
    if tap_decay is not None:
        profile = np.exp(-np.arange(channel_order + 1) / float(tap_decay))
        profile /= profile.sum()
    elif tap_variance is not None:
        profile = np.full(channel_order + 1, float(tap_variance))
    else:
        profile = np.full(channel_order + 1, 1.0 / (channel_order + 1))
    key = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    z = keyed_normals([key + (r, q) for r in range(Q) for q in range(Q)], (2, channel_order + 1))
    z = z.reshape(Q, Q, 2, channel_order + 1)
    taps = np.sqrt(profile / 2.0) * (z[:, :, 0] + 1j * z[:, :, 1])
    snr = 10.0 ** (snr_db / 10.0)
    P = np.full(Q, snr)
    if pmax_bar is None:
        pmax_bar = np.full((Q, N), UNBOUNDED)
    return ChannelSet(
        taps=taps,
        d=d,
        gamma=gamma,
        P=P,
        sigma2=np.ones(Q),
        pmax_bar=pmax_bar,
        Gamma=np.full(Q, float(Gamma)),
        N=N,
    )
