"""The totally asynchronous schedule against the uniqueness certificates.

Where C1 certifies a unique equilibrium, the asynchronous schedule must
reach ``solve``'s profile; on games no certificate covers it may find
another equilibrium or none, which keeps the property from being vacuous.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from async_oracle import async_waterfill
from specnash import build_game, ratio_scenario
from specnash.equilibrium import solve
from specnash.uniqueness import check_conditions


@st.composite
def ratio_games(draw):
    """Ratio games with Q = 2..4, N in {4, 8, 16}, d_ratio 1..4, -5..15 dB and order 0..3."""
    Q, N = draw(st.integers(2, 4)), draw(st.sampled_from([4, 8, 16]))
    scenario = dict(d_ratio=draw(st.floats(1.0, 4.0)), snr_db=draw(st.floats(-5.0, 15.0)),
                    channel_order=draw(st.integers(0, 3)), seed=draw(st.integers(0, 2**16)))
    return build_game(ratio_scenario(Q, N, **scenario)), scenario["seed"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(drawn=ratio_games())
def test_c1_certified_games_reach_the_unique_equilibrium(drawn):
    game, seed = drawn
    assume(check_conditions(game).satisfied("C1"))
    p, converged = async_waterfill(game, seed)
    assert converged
    assert np.abs(p - solve(game, tol=1e-12, max_iter=5000).profile.p).max() <= 1e-9


def test_uncertified_games_can_end_elsewhere():
    # Strong interference (d_ratio 0.3..1.2, 5..25 dB): on the games C1 does
    # not certify (11 of these 12), the asynchronous schedule ends away from
    # solve's profile, or does not converge, on some.
    rng = np.random.default_rng(8)
    uncertified = elsewhere = 0
    for k in range(12):
        game = build_game(ratio_scenario(
            int(rng.integers(2, 4)), 4, d_ratio=float(rng.uniform(0.3, 1.2)),
            snr_db=float(rng.uniform(5.0, 25.0)), channel_order=int(rng.integers(0, 3)),
            seed=(8, k)))
        if check_conditions(game).satisfied("C1"):
            continue
        uncertified += 1
        p, converged = async_waterfill(game, k)
        ne = solve(game, tol=1e-12, max_iter=5000).profile.p
        elsewhere += not converged or np.abs(p - ne).max() > 1e-6
    assert uncertified == 11 and elsewhere > 0
