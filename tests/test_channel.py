import numpy as np
import pytest

from specnash import (
    ChannelSet,
    InvalidInputError,
    NormalizedGame,
    UNBOUNDED,
    build_game,
    frequency_response,
    ratio_scenario,
)
from tap_oracle import oracle_taps


def simple_channel_set(taps, d, P, sigma2, N, gamma=2.0, Gamma=None, pmax_bar=None):
    taps = np.asarray(taps, dtype=np.complex128)
    Q = taps.shape[0]
    return ChannelSet(
        taps=taps,
        d=d,
        gamma=gamma,
        P=P,
        sigma2=sigma2,
        pmax_bar=np.full((Q, N), UNBOUNDED) if pmax_bar is None else pmax_bar,
        Gamma=np.ones(Q) if Gamma is None else Gamma,
        N=N,
    )


class TestFrequencyResponse:
    def test_impulse(self):
        np.testing.assert_allclose(frequency_response(np.array([1.0]), 4), np.ones(4))

    def test_two_point_by_hand(self):
        # Hand oracle for N = 2: resp[k] = sum_l taps[l] * (-1)^(k*l).
        np.testing.assert_allclose(
            frequency_response(np.array([0.0, 1.0]), 2), np.array([1.0, -1.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            frequency_response(np.array([1.0, 1.0]), 2), np.array([2.0, 0.0]), atol=1e-15
        )

    def test_linearity(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = frequency_response(2.0 * a + b, 8)
        rhs = 2.0 * frequency_response(a, 8) + frequency_response(b, 8)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_parseval(self, rng):
        taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        resp = frequency_response(taps, 16)
        lhs = np.mean(np.abs(resp) ** 2)
        rhs = np.sum(np.abs(taps) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_too_many_taps(self):
        with pytest.raises(InvalidInputError):
            frequency_response(np.ones(5), 4)
        with pytest.raises(InvalidInputError):
            frequency_response(np.ones((2, 2, 5)), 4)
        with pytest.raises(InvalidInputError):
            frequency_response(np.array(1.0), 4)

    def test_stack_equals_per_link_calls(self):
        ch = ratio_scenario(3, 16, channel_order=5, seed=4)
        stacked = frequency_response(ch.taps, ch.N)
        assert stacked.shape == (3, 3, 16)
        for r in range(3):
            for q in range(3):
                assert stacked[r, q].tobytes() == frequency_response(ch.taps[r, q], 16).tobytes()

    def test_sign_of_the_exponent(self):
        # 1 + 1j * exp(-2j*pi*k/4) on bins k = 0..3 is 1+1j, 2, 1-1j, 0; the
        # opposite sign would put the null on bin 1.
        ch = simple_channel_set([[[1.0, 1j]]], d=np.ones((1, 1)), P=np.ones(1),
                                sigma2=np.ones(1), N=4)
        np.testing.assert_allclose(build_game(ch).gain2[0, 0], [2.0, 4.0, 2.0, 0.0], atol=1e-15)


class TestBuildGame:
    def test_all_ones_normalization(self):
        taps = np.ones((2, 2, 1), dtype=np.complex128)
        ch = simple_channel_set(taps, d=np.ones((2, 2)), P=np.ones(2), sigma2=np.ones(2), N=4)
        game = build_game(ch)
        np.testing.assert_allclose(game.gain2, 1.0)
        np.testing.assert_allclose(game.pmax, UNBOUNDED)

    def test_path_loss_power_law(self):
        taps = np.ones((2, 2, 1), dtype=np.complex128)
        d1 = np.array([[1.0, 2.0], [2.0, 1.0]])
        d2 = np.array([[1.0, 4.0], [4.0, 1.0]])
        g1 = build_game(simple_channel_set(taps, d1, np.ones(2), np.ones(2), N=2, gamma=2.0))
        g2 = build_game(simple_channel_set(taps, d2, np.ones(2), np.ones(2), N=2, gamma=2.0))
        np.testing.assert_allclose(g2.gain2[0, 1], g1.gain2[0, 1] / 4.0)

    def test_snr_scaling(self, rng):
        # Scalar oracle: direct gain2 = |fading|^2 * P / (sigma2 * d^gamma).
        taps = (rng.standard_normal((1, 1, 2)) + 1j * rng.standard_normal((1, 1, 2)))
        ch = simple_channel_set(
            taps, d=np.array([[1.0]]), P=np.array([10.0]), sigma2=np.array([1.0]),
            N=4, gamma=2.5,
        )
        game = build_game(ch)
        dft = np.exp(-2j * np.pi * np.outer(np.arange(4), np.arange(2)) / 4)
        fading2 = np.abs(dft @ taps[0, 0]) ** 2
        np.testing.assert_allclose(game.gain2[0, 0], 10.0 * fading2)

    def test_power_scaling_exact(self, rng):
        taps = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        base = simple_channel_set(taps, np.ones((2, 2)), np.array([1.0, 1.0]), np.ones(2), N=4)
        scaled = simple_channel_set(taps, np.ones((2, 2)), np.array([3.0, 1.0]), np.ones(2), N=4)
        g0, g1 = build_game(base), build_game(scaled)
        np.testing.assert_array_equal(g1.gain2[0], 3.0 * g0.gain2[0])
        np.testing.assert_array_equal(g1.gain2[1], g0.gain2[1])

    def test_determinism(self):
        ch1 = ratio_scenario(2, 8, seed=5)
        ch2 = ratio_scenario(2, 8, seed=5)
        g1, g2 = build_game(ch1), build_game(ch2)
        assert g1.gain2.tobytes() == g2.gain2.tobytes()

    def test_mask_normalization(self):
        taps = np.ones((1, 1, 1), dtype=np.complex128)
        pmax_bar = np.array([[4.0, UNBOUNDED]])
        ch = simple_channel_set(
            taps, np.array([[1.0]]), np.array([2.0]), np.array([1.0]), N=2, pmax_bar=pmax_bar
        )
        game = build_game(ch)
        np.testing.assert_allclose(game.pmax, [[2.0, UNBOUNDED]])


class TestRatioScenarioTaps:
    """One batched draw per scenario equals the per-link stream loop."""

    @pytest.mark.parametrize("seed", [0, 5, 2**32 + 3, 2**64 + 1, (7, 2), (2**40, 3, 1), [4, 0]])
    @pytest.mark.parametrize("Q,L", [(1, 0), (2, 2), (3, 6), (5, 6)])
    @pytest.mark.parametrize("profile", [{}, {"tap_variance": 0.3}, {"tap_decay": 1.7}])
    def test_taps_match_per_link_oracle(self, seed, Q, L, profile):
        ch = ratio_scenario(Q, 8, channel_order=L, seed=seed, **profile)
        assert ch.taps.tobytes() == oracle_taps(Q, L, seed, **profile).tobytes()


class TestValidation:
    def test_channel_set_invariants(self):
        taps = np.ones((2, 2, 1), dtype=np.complex128)
        good = dict(d=np.ones((2, 2)), P=np.ones(2), sigma2=np.ones(2), N=2)
        simple_channel_set(taps, **good)
        with pytest.raises(InvalidInputError):
            simple_channel_set(taps, np.zeros((2, 2)), np.ones(2), np.ones(2), N=2)
        with pytest.raises(InvalidInputError):
            simple_channel_set(taps, np.ones((2, 2)), -np.ones(2), np.ones(2), N=2)
        with pytest.raises(InvalidInputError):
            simple_channel_set(taps, np.ones((2, 2)), np.ones(2), np.ones(2), N=2,
                               Gamma=np.array([0.5, 1.0]))
        with pytest.raises(InvalidInputError):
            simple_channel_set(np.ones((2, 2, 3), dtype=complex), np.ones((2, 2)),
                               np.ones(2), np.ones(2), N=2)

    def test_nan_and_infinite_values(self):
        # NaN fails every comparison, so each check is written to fail on it;
        # an infinite cap stays legal (UNBOUNDED), an infinite tap not.
        taps = np.ones((2, 2, 1), dtype=np.complex128)
        args = (np.ones((2, 2)), np.ones(2), np.ones(2))
        for bad_taps in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(InvalidInputError, match="taps"):
                simple_channel_set(np.full((2, 2, 1), bad_taps), *args, N=2)
        with pytest.raises(InvalidInputError, match="Gamma"):
            simple_channel_set(taps, *args, N=2, Gamma=np.array([np.nan, 1.0]))
        with pytest.raises(InvalidInputError, match="pmax_bar"):
            simple_channel_set(taps, *args, N=2, pmax_bar=np.array([[1.0, np.nan], [1.0, 1.0]]))
        simple_channel_set(taps, *args, N=2, pmax_bar=np.full((2, 2), UNBOUNDED))
        # NaN and infinite gains and NaN caps of a game: tests/test_equilibrium.py.
        with pytest.raises(InvalidInputError, match="Gamma"):
            NormalizedGame(gain2=np.ones((2, 2, 2)), pmax=np.full((2, 2), UNBOUNDED),
                           Gamma=np.array([1.0, np.nan]))

    def test_ratio_scenario_distance_matrix(self):
        d = np.array([[1.0, 5.0], [2.0, 1.0]])
        ch = ratio_scenario(2, 4, d=d, seed=0, channel_order=2)
        np.testing.assert_array_equal(ch.d, d)

    def test_scaled_powers(self):
        ch = ratio_scenario(2, 4, seed=3, channel_order=2)
        game = build_game(ch)
        scaled = game.scaled_powers(np.array([2.0, 0.5]))
        np.testing.assert_array_equal(scaled.gain2[0], 2.0 * game.gain2[0])
        np.testing.assert_array_equal(scaled.gain2[1], 0.5 * game.gain2[1])
        with pytest.raises(InvalidInputError):
            game.scaled_powers(np.array([1.0, -1.0]))

    def test_exponential_profile_energy(self):
        # Monte Carlo moment oracle for the exponential and the default
        # uniform power-delay profile: total expected tap energy is 1.
        for profile in ({"tap_decay": 0.5}, {}):
            ch = ratio_scenario(1, 8, channel_order=3, seed=0, **profile)
            total = 0.0
            n = 3000
            for s in range(n):
                c = ratio_scenario(1, 8, channel_order=3, seed=s, **profile)
                total += np.sum(np.abs(c.taps[0, 0]) ** 2)
            assert abs(total / n - 1.0) < 0.05, profile
            assert ch.taps.shape == (1, 1, 4)


class TestInterference:
    def test_rows_match_per_user_expression(self):
        # Bit for bit the per-user expression that best_response, rate_gradient
        # and verify_diagonal_optimality each evaluated before the shared map.
        rng = np.random.default_rng(8)
        for _ in range(300):
            Q, N = int(rng.integers(1, 7)), int(rng.integers(1, 65))
            gain2 = rng.exponential(size=(Q, Q, N)) * 10.0 ** rng.uniform(-6, 6, (Q, Q, 1))
            game = NormalizedGame(gain2=gain2, pmax=np.full((Q, N), UNBOUNDED),
                                  Gamma=np.ones(Q))
            p = rng.exponential(size=(Q, N)) * rng.uniform(0.0, 3.0)
            i = game.interference(p)
            assert i.shape == (Q, N)
            for q in range(Q):
                row = 1.0 + np.einsum("rk,rk->k", gain2[:, q], p) - gain2[q, q] * p[q]
                assert i[q].tobytes() == np.maximum(row, 1.0).tobytes()

    def test_hand_evaluated(self):
        gain2 = np.array([[[2.0], [0.5]], [[0.25], [3.0]]])
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 1), UNBOUNDED), Gamma=np.ones(2))
        # i_1 = 1 + gain2[1, 0] p_2, i_2 = 1 + gain2[0, 1] p_1.
        np.testing.assert_array_equal(game.interference([[4.0], [2.0]]), [[1.5], [3.0]])
        np.testing.assert_array_equal(game.direct_gain2(), [[2.0], [3.0]])
