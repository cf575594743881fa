import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import flat_game, random_c1_game
from level_oracle import oracle_project
from specnash import (
    InvalidInputError,
    UNBOUNDED,
    WaterfillInput,
    build_game,
    ratio_scenario,
    waterfill,
)
from specnash.channel import NormalizedGame
from specnash.equilibrium import solve
from specnash.pareto import (
    low_interference_rate,
    minmax_bound,
    pareto_filter,
    project_all,
    project_profile,
    random_feasible_profile,
    rate_array,
    rate_gradient,
    rate_vector,
    sample_rate_region,
    scalarized_gradient,
    solve_modified_game,
    solve_scalarized,
)


def finite_difference_gradient(p, game, q, h=1e-6):
    num = np.zeros_like(p)
    for r in range(game.Q):
        for k in range(game.N):
            up, dn = p.copy(), p.copy()
            up[r, k] += h
            dn[r, k] -= h
            num[r, k] = (rate_array(up, game)[q] - rate_array(dn, game)[q]) / (2 * h)
    return num


class TestRates:
    def test_single_user_flat_unit(self):
        game = NormalizedGame(
            gain2=np.ones((1, 1, 4)), pmax=np.full((1, 4), UNBOUNDED), Gamma=np.ones(1)
        )
        assert rate_array(np.ones((1, 4)), game)[0] == pytest.approx(1.0)

    def test_zero_power_zero_rate(self):
        game = flat_game(Q=2, coupling=0.5, N=4)
        np.testing.assert_allclose(rate_array(np.zeros((2, 4)), game), 0.0)

    def test_hand_evaluated_two_user(self):
        # Scalar arithmetic oracle on a 2x2 instance.
        gain2 = np.zeros((2, 2, 2))
        gain2[0, 0] = [4.0, 1.0]
        gain2[1, 1] = [2.0, 3.0]
        gain2[1, 0] = [1.0, 0.5]
        gain2[0, 1] = [0.5, 2.0]
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 2), UNBOUNDED), Gamma=np.ones(2))
        p = np.array([[1.0, 1.0], [0.5, 1.5]])
        sinr0 = [4 * 1 / (1 + 1 * 0.5), 1 * 1 / (1 + 0.5 * 1.5)]
        sinr1 = [2 * 0.5 / (1 + 0.5 * 1.0), 3 * 1.5 / (1 + 2.0 * 1.0)]
        ref0 = 0.5 * (np.log2(1 + sinr0[0]) + np.log2(1 + sinr0[1]))
        ref1 = 0.5 * (np.log2(1 + sinr1[0]) + np.log2(1 + sinr1[1]))
        np.testing.assert_allclose(rate_array(p, game), [ref0, ref1], rtol=1e-12)

    def test_rate_vector_wrapper(self):
        game = flat_game(Q=2, coupling=0.4, N=2)
        pt = rate_vector(np.ones((2, 2)), game, provenance="NE")
        assert pt.provenance == "NE"
        np.testing.assert_allclose(pt.r, rate_array(np.ones((2, 2)), game))

    def test_base_conversion(self):
        game = flat_game(Q=1, coupling=0.0, N=2)
        p = np.ones((1, 2))
        bits = rate_array(p, game, base=2.0)
        nats = rate_array(p, game, base=np.e)
        assert bits[0] == pytest.approx(nats[0] / np.log(2.0))


class TestGradient:
    def test_matches_finite_differences(self, rng):
        ch = ratio_scenario(2, 4, d_ratio=2.0, snr_db=8.0, seed=3, channel_order=2)
        game = build_game(ch)
        for _ in range(10):
            p = project_all(rng.uniform(0.1, 1.4, (2, 4)), game) * rng.uniform(0.6, 0.95)
            for q in range(2):
                ana = rate_gradient(p, game, q)
                num = finite_difference_gradient(p, game, q)
                scale = np.abs(num).max()
                assert np.abs(ana - num).max() <= 1e-5 * scale

    def test_own_positive_cross_nonpositive(self, rng):
        ch = ratio_scenario(3, 4, d_ratio=1.5, seed=5, channel_order=2)
        game = build_game(ch)
        p = random_feasible_profile(game, rng)
        for q in range(3):
            grad = rate_gradient(p, game, q)
            assert (grad[q] > 0).all()
            for r in range(3):
                if r != q:
                    assert (grad[r] <= 0).all()

    def test_scalarized_gradient_is_weighted_sum(self, rng):
        game = flat_game(Q=2, coupling=0.3, N=3)
        p = random_feasible_profile(game, rng)
        w = np.array([1.0, 2.5])
        ref = w[0] * rate_gradient(p, game, 0) + w[1] * rate_gradient(p, game, 1)
        np.testing.assert_allclose(scalarized_gradient(p, game, w), ref)


class TestProjection:
    def test_inside_stays(self):
        pmax = np.array([2.0, 2.0])
        np.testing.assert_allclose(project_profile(np.array([0.5, 0.5]), pmax), [0.5, 0.5])

    def test_box_clip_only(self):
        pmax = np.array([1.0, UNBOUNDED])
        np.testing.assert_allclose(
            project_profile(np.array([3.0, -1.0]), pmax, budget=2.0), [1.0, 0.0]
        )

    def test_budget_cut(self):
        pmax = np.full(4, UNBOUNDED)
        x = project_profile(np.array([2.0, -0.5, 3.0, 0.2]), pmax, budget=0.5)
        assert x.mean() == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(x, [0.5, 0.0, 1.5, 0.0], atol=1e-9)

    def test_idempotent(self, rng):
        pmax = rng.uniform(0.5, 3.0, 8)
        y = rng.normal(0.0, 2.0, 8)
        x = project_profile(y, pmax)
        np.testing.assert_allclose(project_profile(x, pmax), x, atol=1e-9)

    def test_euclidean_optimality(self, rng):
        # The projection must beat every sampled feasible point in distance.
        pmax = np.full(3, 1.5)
        y = np.array([2.0, 1.0, 0.4])
        x = project_profile(y, pmax, budget=0.6)
        dist = np.sum((x - y) ** 2)
        for _ in range(500):
            z = rng.uniform(0, 1.5, 3)
            if z.mean() <= 0.6:
                assert np.sum((z - y) ** 2) >= dist - 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        y=arrays(np.float64, st.integers(1, 10), elements=st.floats(-50.0, 50.0)),
        caps=st.data(),
        budget=st.floats(0.05, 3.0),
    )
    def test_kkt_optimality(self, y, caps, budget):
        pmax = caps.draw(arrays(np.float64, y.shape, elements=st.one_of(
            st.floats(0.0, 5.0), st.just(UNBOUNDED))))
        x = project_profile(y, pmax, budget)
        tol = 1e-9 * max(1.0, float(np.abs(y).max()))
        assert (x >= 0.0).all() and (x <= pmax).all()
        assert x.mean() <= budget + tol
        # Stationarity: x = clip(y - tau, 0, pmax) for one multiplier
        # tau >= 0.  Free bins fix tau; bins at zero (tau >= y) and at their
        # cap (tau <= y - pmax) bracket it; zero-cap bins say nothing.
        boxed = pmax > 2.0 * tol
        free = boxed & (x > tol) & (x < pmax - tol)
        lo = max([0.0, *y[boxed & (x <= tol)]])
        hi = min([np.inf, *(y - pmax)[boxed & (x >= pmax - tol)]])
        if free.any():
            taus = y[free] - x[free]
            assert taus.max() - taus.min() <= tol
            tau = float(taus.mean())
            assert lo - tol <= tau <= hi + tol
        else:
            assert lo <= hi + tol
            tau = lo
        # Complementary slackness: a positive multiplier spends the budget.
        if tau > tol:
            assert abs(x.sum() - budget * y.size) <= tol * y.size
        np.testing.assert_allclose(x, oracle_project(y, pmax, budget), rtol=0, atol=tol)


class TestRegion:
    def test_single_user_frontier_is_waterfill(self):
        ch = ratio_scenario(1, 2, seed=2, channel_order=1)
        game = build_game(ch)
        region = sample_rate_region(game, resolution=41)
        best = region.points[region.pareto].max()
        ref = rate_array(solve(game, tol=1e-11).profile.p, game)[0]
        assert best <= ref + 1e-9
        assert best >= ref - 0.05 * ref

    def test_dominance_filter(self):
        pts = np.array([[1.0, 1.0], [2.0, 0.5], [0.5, 2.0], [0.9, 0.9], [2.0, 0.4]])
        mask = pareto_filter(pts)
        np.testing.assert_array_equal(mask, [True, True, True, False, False])

    def test_scalarized_point_near_frontier(self):
        game, _, _ = random_c1_game(seed=8)
        region = sample_rate_region(game, resolution=21)
        sc = solve_scalarized(game, [1.0, 1.0], restarts=4, seed=0, tol=1e-9)
        r = rate_array(sc.profile.p, game)
        # No sampled point may dominate the scalarized optimum beyond slack.
        slack = 0.05
        dominated = (region.points >= r + slack).all(axis=1)
        assert not dominated.any()

    def test_total_split_mode(self):
        game, _, _ = random_c1_game(seed=12)
        sweep = sample_rate_region(game, budget_mode="total_split", splits=[0.3, 0.5, 0.7])
        assert sweep.points.shape == (3, 2)
        assert (sweep.points >= 0).all()

    def test_guards(self):
        game = flat_game(Q=2, coupling=0.2, N=4)
        with pytest.raises(InvalidInputError):
            sample_rate_region(game, resolution=16)  # N = 4 unsupported
        with pytest.raises(InvalidInputError):
            sample_rate_region(game, budget_mode="bogus")


class TestScalarized:
    def test_single_user_reduces_to_waterfill(self):
        ch = ratio_scenario(1, 4, seed=6, channel_order=2)
        game = build_game(ch)
        sc = solve_scalarized(game, [2.0], restarts=3, seed=1, tol=1e-10, max_iter=4000)
        ref = waterfill(WaterfillInput(
            g=game.gain2[0, 0], i=np.ones(4), Gamma=game.Gamma[0], pmax=game.pmax[0]
        ))
        assert np.abs(sc.profile.p[0] - ref).max() <= 1e-5

    def test_beats_equilibrium_sum_rate(self):
        game, _, _ = random_c1_game(seed=14, N=2)
        ne = solve(game, tol=1e-10)
        sc = solve_scalarized(game, [1.0, 1.0], restarts=6, seed=2, tol=1e-9)
        assert sc.value >= rate_array(ne.profile.p, game).sum() - 1e-9

    def test_restart_values_reported(self):
        game = flat_game(Q=2, coupling=0.2, N=2)
        sc = solve_scalarized(game, [1.0, 1.0], restarts=5, seed=3)
        assert sc.restart_values.shape == (5,)
        assert sc.value == pytest.approx(sc.restart_values.max())

    def test_rejects_bad_weights(self):
        game = flat_game()
        with pytest.raises(InvalidInputError):
            solve_scalarized(game, [1.0, -1.0])


class TestModifiedGame:
    def test_dominant_weight_protects_user(self):
        ch = ratio_scenario(2, 4, d_ratio=1.2, snr_db=10.0, seed=4, channel_order=2)
        game = build_game(ch)
        solo = rate_array(
            np.stack([
                waterfill(WaterfillInput(g=game.gain2[0, 0], i=np.ones(4),
                                         Gamma=game.Gamma[0], pmax=game.pmax[0])),
                np.zeros(4),
            ]),
            game,
        )[0]
        mg = solve_modified_game(game, [200.0, 1.0], tol=1e-7, max_iter=6000)
        assert mg.converged
        assert mg.rates[0] >= solo - 0.02 * solo

    def test_low_interference_unique_across_inits(self, rng):
        ch = ratio_scenario(2, 4, d_ratio=10.0, snr_db=12.0, seed=9, channel_order=2)
        game = build_game(ch)
        sols = []
        for s in range(10):
            init = random_feasible_profile(game, np.random.default_rng(s))
            mg = solve_modified_game(game, [1.0, 2.0], tol=1e-8, max_iter=8000, init=init)
            assert mg.converged
            sols.append(mg.rates)
        for r in sols[1:]:
            assert np.abs(r - sols[0]).max() <= 1e-5

    def test_rates_on_frontier_within_slack(self):
        game, _, _ = random_c1_game(seed=16)
        region = sample_rate_region(game, resolution=21)
        mg = solve_modified_game(game, [1.0, 1.0], tol=1e-8)
        dominated = (region.points >= mg.rates + 0.05).all(axis=1)
        assert not dominated.any()

    def test_scalarized_optimum_is_modified_game_fixed_point(self):
        # On low-interference instances the weighted-sum optimum must sit
        # still under the side-payment game's projected-gradient map.
        ch = ratio_scenario(2, 4, d_ratio=10.0, snr_db=12.0, seed=3, channel_order=2)
        game = build_game(ch)
        for lam in ([1.0, 1.0], [2.0, 1.0]):
            sc = solve_scalarized(game, lam, restarts=4, seed=1, tol=1e-10, max_iter=6000)
            w = np.asarray(lam, dtype=float)
            p = sc.profile.p
            step = scalarized_gradient(p, game, w) / w[:, None]
            residual = float(np.abs(project_all(p + step, game) - p).max())
            assert residual <= 1e-6


class TestMinmax:
    def test_single_user_equals_waterfill_rate(self):
        ch = ratio_scenario(1, 4, seed=7, channel_order=2)
        game = build_game(ch)
        mm = minmax_bound(game, 0)
        ref = rate_array(solve(game, tol=1e-11).profile.p, game)[0]
        assert mm.method == "closed_form"
        assert mm.value == pytest.approx(ref, abs=1e-9)

    def test_zero_cross_gain_adversary_is_harmless(self):
        gain2 = np.zeros((2, 2, 2))
        gain2[0, 0] = [2.0, 1.0]
        gain2[1, 1] = [1.0, 1.0]
        gain2[0, 1] = [0.4, 0.4]  # user 0 interferes with 1, not vice versa
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 2), UNBOUNDED), Gamma=np.ones(2))
        mm = minmax_bound(game, 0)
        solo = np.stack([
            waterfill(WaterfillInput(g=gain2[0, 0], i=np.ones(2), Gamma=1.0,
                                     pmax=game.pmax[0])),
            np.zeros(2),
        ])
        assert mm.value == pytest.approx(rate_array(solo, game)[0], abs=1e-9)

    def test_grid_bound_below_equilibrium(self):
        for seed in (0, 1, 2):
            game, _, _ = random_c1_game(seed=seed)
            ne_rates = rate_array(solve(game, tol=1e-10).profile.p, game)
            for q in range(2):
                mm = minmax_bound(game, q, method="grid", grid=96)
                assert mm.value <= ne_rates[q] + 1e-6

    def test_saddle_matches_grid(self):
        game, _, _ = random_c1_game(seed=6)
        for q in range(2):
            g = minmax_bound(game, q, method="grid", grid=128)
            s = minmax_bound(game, q, method="saddle", outer_iters=50)
            assert s.value <= g.value + 0.02
            assert s.value >= g.value - 0.05


class TestLowInterference:
    def test_matches_exact_rate_in_regime(self):
        # inr/snr = 30**-2.5 ~ 2e-4 and snr = 30 dB: per-user error < 1%.
        ch = ratio_scenario(2, 4, d_ratio=30.0, snr_db=30.0, seed=3, channel_order=2)
        game = build_game(ch)
        ne = solve(game, tol=1e-10)
        p = np.maximum(ne.profile.p, 1e-12)
        approx = low_interference_rate(p, game)
        exact = rate_array(p, game)
        assert (np.abs(approx - exact) / exact).max() < 0.01

    def test_geometric_combination_convexity(self, rng):
        ch = ratio_scenario(2, 4, d_ratio=20.0, snr_db=25.0, seed=5, channel_order=2)
        game = build_game(ch)
        for _ in range(20):
            a = project_all(rng.uniform(0.2, 1.5, (2, 4)), game)
            b = project_all(rng.uniform(0.2, 1.5, (2, 4)), game)
            a = np.maximum(a, 1e-6)
            b = np.maximum(b, 1e-6)
            ra, rb = low_interference_rate(a, game), low_interference_rate(b, game)
            for alpha in (0.25, 0.5, 0.75):
                combo = a**alpha * b ** (1 - alpha)
                rc = low_interference_rate(combo, game)
                assert (rc >= alpha * ra + (1 - alpha) * rb - 1e-9).all()

    def test_alpha_one_reduces(self, rng):
        ch = ratio_scenario(2, 4, d_ratio=20.0, snr_db=25.0, seed=5, channel_order=2)
        game = build_game(ch)
        a = np.maximum(project_all(rng.uniform(0.2, 1.5, (2, 4)), game), 1e-6)
        np.testing.assert_allclose(
            low_interference_rate(a**1.0, game), low_interference_rate(a, game)
        )

    def test_zero_power_rejected(self):
        game = flat_game(Q=2, coupling=0.1, N=2)
        with pytest.raises(InvalidInputError):
            low_interference_rate(np.array([[1.0, 0.0], [1.0, 1.0]]), game)
