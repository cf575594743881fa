import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ascent_oracle
from ascent_oracle import oracle_modified_game, oracle_scalarized
from conftest import flat_game, random_c1_game
from grid_oracle import oracle_box_simplex_grid
from level_oracle import oracle_project
from specnash import (
    InvalidInputError,
    UNBOUNDED,
    WaterfillInput,
    build_game,
    ratio_scenario,
    waterfill,
)
from specnash import pareto
from specnash.channel import NormalizedGame
from specnash.equilibrium import solve
from specnash.pareto import (
    minmax_bound,
    pareto_filter,
    project_all,
    project_profile,
    random_feasible_profile,
    rate_array,
    rate_gradient,
    sample_rate_region,
    scalarized_gradient,
    solve_modified_game,
    solve_scalarized,
    total_split_rates,
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
        np.testing.assert_allclose(project_profile(np.array([3.0, -1.0]), pmax), [1.0, 0.0])

    def test_budget_cut(self):
        pmax = np.full(4, UNBOUNDED)
        x = project_profile(np.array([4.0, -1.0, 6.0, 0.4]), pmax)
        assert x.mean() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(x, [1.0, 0.0, 3.0, 0.0], atol=1e-9)

    def test_idempotent(self, rng):
        pmax = rng.uniform(0.5, 3.0, 8)
        y = rng.normal(0.0, 2.0, 8)
        x = project_profile(y, pmax)
        np.testing.assert_allclose(project_profile(x, pmax), x, atol=1e-9)

    def test_euclidean_optimality(self, rng):
        # The projection must beat every sampled feasible point in distance.
        # Scaled by 1 / 0.6, so that the budget cuts at the normalized budget 1.
        pmax = np.full(3, 1.5 / 0.6)
        y = np.array([2.0, 1.0, 0.4]) / 0.6
        x = project_profile(y, pmax)
        dist = np.sum((x - y) ** 2)
        for _ in range(500):
            z = rng.uniform(0, 1.5, 3) / 0.6
            if z.mean() <= 1.0:
                assert np.sum((z - y) ** 2) >= dist - 1e-9

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        y=arrays(np.float64, st.integers(1, 10), elements=st.floats(-50.0, 50.0)),
        caps=st.data(),
        budget=st.floats(0.05, 3.0),
    )
    def test_kkt_optimality(self, y, caps, budget):
        # Projecting onto {0 <= x <= pmax, mean(x) <= budget} is projecting
        # y / budget onto the caps pmax / budget at budget 1, scaled back:
        # each draw is checked at the normalized budget 1.
        pmax = caps.draw(arrays(np.float64, y.shape, elements=st.one_of(
            st.floats(0.0, 5.0), st.just(UNBOUNDED)))) / budget
        y = y / budget
        x = project_profile(y, pmax)
        tol = 1e-9 * max(1.0, float(np.abs(y).max()))
        assert (x >= 0.0).all() and (x <= pmax).all()
        assert x.mean() <= 1.0 + tol
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
            assert abs(x.sum() - y.size) <= tol * y.size
        np.testing.assert_allclose(x, oracle_project(y, pmax), rtol=0, atol=tol)


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
        points = total_split_rates(game, [0.3, 0.5, 0.7])
        assert points.shape == (3, 2)
        assert (points >= 0).all()

    def test_guards(self):
        game = flat_game(Q=2, coupling=0.2, N=4)
        with pytest.raises(InvalidInputError):
            sample_rate_region(game, resolution=16)  # N = 4 unsupported
        with pytest.raises(InvalidInputError):
            total_split_rates(flat_game(Q=3, coupling=0.2, N=2), [0.5])  # two users only

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        N=st.integers(1, 3),
        resolution=st.integers(2, 32),
        caps=st.lists(
            st.one_of(st.floats(0.0, 4.0), st.just(float(UNBOUNDED))), min_size=3, max_size=3
        ),
    )
    def test_grid_matches_branch_oracle(self, N, resolution, caps):
        # Caps of zero, below N, above N (clipped to the budget) and unbounded.
        pmax_q = np.array(caps[:N])
        new = pareto._box_simplex_grid(pmax_q, N, resolution)
        old = oracle_box_simplex_grid(pmax_q, N, resolution)
        assert new.shape == old.shape and new.dtype == old.dtype
        assert np.array_equal(new, old)


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

    @pytest.mark.parametrize("solver", [solve_scalarized, solve_modified_game])
    @pytest.mark.parametrize("weights,tol", [
        ([np.nan, 1.0], 1e-8), ([np.inf, 1.0], 1e-8), ([1.0, 1.0], np.nan),
        ([1.0, 1.0], -1.0), ([1.0, 1.0], 0.0),
    ])
    def test_rejects_non_finite_weights_and_bad_tol(self, solver, weights, tol):
        # A NaN weight passed the old "(w <= 0).any()" test, and no tol was
        # checked: a NaN or negative tol ran every one of max_iter steps.
        with pytest.raises(InvalidInputError, match="weights" if tol == 1e-8 else "tol"):
            solver(flat_game(), weights, tol=tol)


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
        # N = 8 is past the grid's desk scale: the closed form holds at any size.
        for direct in ([2.0, 1.0], np.linspace(0.5, 2.0, 8)):
            N = len(direct)
            gain2 = np.zeros((2, 2, N))
            gain2[0, 0] = direct
            gain2[1, 1] = 1.0
            gain2[0, 1] = 0.4  # user 0 interferes with 1, not vice versa
            game = NormalizedGame(gain2=gain2, pmax=np.full((2, N), UNBOUNDED), Gamma=np.ones(2))
            mm = minmax_bound(game, 0)
            solo = np.stack([
                waterfill(WaterfillInput(g=gain2[0, 0], i=np.ones(N), Gamma=1.0,
                                         pmax=game.pmax[0])),
                np.zeros(N),
            ])
            assert mm.method == "closed_form"
            assert mm.value == pytest.approx(rate_array(solo, game)[0], abs=1e-9)

    def test_grid_bound_below_equilibrium(self):
        for seed in (0, 1, 2):
            game, _, _ = random_c1_game(seed=seed)
            ne_rates = rate_array(solve(game, tol=1e-10).profile.p, game)
            for q in range(2):
                mm = minmax_bound(game, q, grid=96)
                assert mm.method == "grid"
                assert mm.value <= ne_rates[q] + 1e-6

    def test_grid_three_bins(self):
        # (Q, N) = (2, 3), the largest gridded face: every face point spends
        # the whole budget within its caps, and the value is the max-min of
        # the rates over the two faces.
        game = build_game(ratio_scenario(2, 3, d_ratio=3.0, seed=4, channel_order=1))
        faces = [pareto._budget_face_grid(game.pmax[r], 8) for r in range(2)]
        for face in faces:
            np.testing.assert_allclose(face.sum(axis=1), 3.0, rtol=0, atol=1e-12)
            assert len(face) > 8 and (face >= 0.0).all()
        mm = minmax_bound(game, 0, grid=8)
        brute = max(min(rate_array(np.stack([own, opp]), game)[0] for opp in faces[1])
                    for own in faces[0])
        assert mm.method == "grid"
        assert mm.value == pytest.approx(brute, rel=1e-12)
        assert mm.profile.p[0].sum() == pytest.approx(3.0, abs=1e-12)

    def test_grid_one_bin(self):
        # One bin: each face is the single point p = 1, so the value is the
        # rate with both users at full power.
        gain2 = np.array([[[2.0], [0.5]], [[0.3], [1.5]]])
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 1), UNBOUNDED), Gamma=np.ones(2))
        for q in range(2):
            mm = minmax_bound(game, q)
            assert mm.method == "grid" and mm.profile.p[q].tolist() == [1.0]
            assert mm.value == pytest.approx(rate_array(np.ones((2, 1)), game)[q], rel=1e-12)

    def test_grid_with_caps_short_of_the_budget(self):
        # User 1's caps sum to 0.7 < N = 2: its face collapses to the cap
        # vector, so user 1's value is its worst rate over user 0's face,
        # and user 0's is its best rate against the caps.
        gain2 = np.array([[[2.0, 1.0], [0.5, 0.2]], [[0.3, 0.6], [1.5, 1.0]]])
        caps = np.array([0.3, 0.4])
        game = NormalizedGame(gain2=gain2, pmax=np.stack([np.full(2, UNBOUNDED), caps]),
                              Gamma=np.ones(2))
        rates = [rate_array(np.stack([[t, 2.0 - t], caps]), game)
                 for t in np.linspace(0.0, 2.0, 16)]
        mm1 = minmax_bound(game, 1, grid=16)
        assert mm1.method == "grid" and mm1.profile.p[1].tolist() == caps.tolist()
        assert mm1.value == pytest.approx(min(r[1] for r in rates), rel=1e-12)
        mm0 = minmax_bound(game, 0, grid=16)
        assert mm0.value == pytest.approx(max(r[0] for r in rates), rel=1e-12)

    def test_grid_beyond_desk_scale_is_rejected(self):
        game = build_game(ratio_scenario(2, 4, seed=3, channel_order=2))
        with pytest.raises(InvalidInputError, match="desk-scale"):
            minmax_bound(game, 0)

def _ascent_games():
    """Q=2/3, N=4/8 games, two of them with finite masks."""
    games = []
    for Q, N, seed in ((2, 4, 3), (2, 8, 5), (3, 4, 7), (3, 8, 11)):
        games.append(build_game(ratio_scenario(Q, N, snr_db=8.0, d_ratio=1.5, seed=seed,
                                               channel_order=2)))
    pmax_bar = 10 ** 0.8 * np.random.default_rng(2).uniform(0.6, 2.5, (2, 8))
    games.append(build_game(ratio_scenario(2, 8, snr_db=8.0, d_ratio=1.5, seed=13,
                                           channel_order=2, pmax_bar=pmax_bar)))
    games.append(BACKTRACK_GAME)
    return games


# User 2 hears user 1 far above its own link, so the side-payment ascent
# overshoots at unit step and must backtrack.
BACKTRACK_GAME = NormalizedGame(
    gain2=np.array([[[11.5, 1.0, 2.6, 1.4], [1.2, 1.6, 1.1, 2.3]],
                    [[15.7, 132.5, 61.2, 2.3], [1595.0, 1173.0, 1611.3, 329.6]]]),
    pmax=np.array([[2.0, 0.8, 1.5, 1.1], [1.1, 2.6, 0.8, 0.9]]),
    Gamma=np.ones(2),
)


class TestAscentOracle:
    """The one ascent generator reproduces the loops it replaced bit for bit.

    A step of 20 makes the weighted-sum and side-payment ascents backtrack.
    """

    @pytest.mark.parametrize("step", [1.0, 20.0])
    @pytest.mark.parametrize("game", _ascent_games())
    def test_scalarized(self, game, step):
        w = np.linspace(1.0, 2.0, game.Q)
        res = solve_scalarized(game, w, restarts=3, step=step, tol=1e-9, max_iter=200, seed=4)
        p, val, values = oracle_scalarized(game, w, 3, step, 1e-9, 200, 4)
        assert res.profile.p.tobytes() == p.tobytes()
        assert res.value == val
        assert res.restart_values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("step", [1.0, 20.0])
    @pytest.mark.parametrize("game", _ascent_games())
    def test_modified_game(self, game, step):
        w = np.linspace(2.0, 1.0, game.Q)
        res = solve_modified_game(game, w, step=step, tol=1e-8, max_iter=150)
        p, residual, iterations, converged = oracle_modified_game(game, w, step, 1e-8, 150)
        assert res.profile.p.tobytes() == p.tobytes()
        assert (res.residual, res.iterations, res.converged) == (residual, iterations, converged)

    def test_backtracking_floor_stays_put(self):
        # Against the gradient every step loses value, so the halving
        # backtrack reaches its floor (alpha < 1e-13) and yields the same p
        # with move 0, step after step.
        game = _ascent_games()[0]
        w = np.ones(game.Q)

        def value(q):
            return float(w @ rate_array(q, game))

        p = project_all(np.minimum(1.0, game.pmax), game)
        steps = pareto._ascent(value, lambda q: -scalarized_gradient(q, game, w),
                               lambda q: project_all(q, game), p, 1.0)
        for _, (q, val, move) in zip(range(3), steps):
            assert q is p and val == value(p) and move == 0.0

    @pytest.mark.parametrize("game", _ascent_games())
    def test_scalarized_gradient_matches_per_user_maps(self, game):
        rng = np.random.default_rng(game.Q * game.N)
        for _ in range(20):
            p = random_feasible_profile(game, rng)
            w = rng.uniform(0.5, 3.0, game.Q)
            assert (scalarized_gradient(p, game, w).tobytes()
                    == ascent_oracle.scalarized_gradient(p, game, w).tobytes())

    def test_scalarized_gradient_one_interference_map(self, monkeypatch):
        game = _ascent_games()[2]
        calls = []
        original = NormalizedGame.interference
        monkeypatch.setattr(NormalizedGame, "interference",
                            lambda self, p: calls.append(1) or original(self, p))
        scalarized_gradient(np.minimum(1.0, game.pmax), game, np.ones(game.Q))
        assert len(calls) == 1

    @pytest.mark.parametrize("step", [1.0, 20.0])
    def test_modified_game_one_gradient_per_iteration(self, monkeypatch, step):
        game = _ascent_games()[3]
        calls = []
        original = pareto.scalarized_gradient
        monkeypatch.setattr(pareto, "scalarized_gradient",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        res = solve_modified_game(game, np.linspace(2.0, 1.0, game.Q), step=step, tol=1e-8,
                                  max_iter=150)
        assert res.iterations > 1
        assert len(calls) == res.iterations + 1
