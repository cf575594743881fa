import numpy as np
import pytest

from specnash import NormalizedGame, UNBOUNDED, build_game, ratio_scenario
from specnash.channel import ratio_distances, ratio_sweeps
from specnash.uniqueness import check_conditions

# The Fig. 1 scenario (Q = 5, N = 64, -10 dB, order 6) as ratio_sweeps takes it.
FIG1_SCENARIO = dict(Q=5, N=64, gamma=2.5, snr_db=-10.0, channel_order=6)
FIG1_RATIOS = (1.0, 2.0, 4.0, 8.0)


def fig1_games(root_seed: int, trials) -> list:
    """The Fig. 1 games of ``trials`` at each of FIG1_RATIOS, built as the Monte Carlo builds them."""
    distances = [ratio_distances(5, r) for r in FIG1_RATIOS]
    return ratio_sweeps([(root_seed, t) for t in trials], distances, **FIG1_SCENARIO)


def flat_game(Q: int = 2, coupling: float = 0.5, N: int = 2, Gamma: float = 1.0,
              direct: float = 1.0) -> NormalizedGame:
    """Frequency-flat game with identical direct gains and cross coupling.

    The per-bin coupling matrix has off-diagonal entries
    Gamma * coupling / direct on every bin.
    """
    gain2 = np.full((Q, Q, N), coupling * direct)
    for q in range(Q):
        gain2[q, q, :] = direct
    return NormalizedGame(
        gain2=gain2, pmax=np.full((Q, N), UNBOUNDED), Gamma=np.full(Q, Gamma)
    )


def random_c1_game(seed: int, Q: int = 2, N: int = 2, d_ratio: float = 3.0,
                   snr_db: float = 8.0, channel_order: int = 1):
    """Random instance satisfying the per-bin spectral-radius condition.

    Draws scenarios from consecutive sub-seeds until one passes; returns
    (game, report, used_seed).
    """
    for attempt in range(50):
        ch = ratio_scenario(Q, N, d_ratio=d_ratio, snr_db=snr_db,
                            seed=(seed, attempt), channel_order=channel_order)
        game = build_game(ch)
        report = check_conditions(game)
        if report.satisfied("C1"):
            return game, report, attempt
    raise RuntimeError("no C1 instance found; loosen the scenario")


def high_interference_game(seed: int, N: int = 2, d_ratio: float = 0.3,
                           snr_db: float = 10.0) -> NormalizedGame:
    ch = ratio_scenario(2, N, d_ratio=d_ratio, snr_db=snr_db, seed=seed,
                        channel_order=1)
    return build_game(ch)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
