import numpy as np
import pytest

from conftest import flat_game, high_interference_game, random_c1_game
from equilibrium_oracle import oracle_solve
from ne_oracle import brute_force_ne
from specnash import (
    InvalidInputError,
    NormalizedGame,
    NumericFailureError,
    UNBOUNDED,
    WaterfillInput,
    build_game,
    kkt_residual,
    ratio_scenario,
    waterfill,
)
from specnash.equilibrium import (
    best_response,
    check_allocation_rule,
    classify_profile,
    orthogonal_profile,
    solve,
)
from specnash.pareto import rate_array, random_feasible_profile
from specnash.uniqueness import check_conditions
from specnash.waterfilling import waterfill_rows


def oracle_game(kind: str) -> NormalizedGame:
    """Q=4, N=24 games that send the solver through every waterfill branch."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    P = 10.0  # the 10 dB default SNR
    pmax_bar = None
    if kind in ("capped", "short_caps", "dead_bins"):
        pmax_bar = P * rng.uniform(0.4, 3.0, (4, 24))
    if kind == "short_caps":
        pmax_bar[0] = P * rng.uniform(0.1, 0.9, 24)  # user 0 pinned to its caps
    game = build_game(ratio_scenario(4, 24, d_ratio=3.0, seed=(len(kind),), channel_order=4,
                                     pmax_bar=pmax_bar))
    if kind != "dead_bins":
        return game
    gain2 = game.gain2.copy()
    gain2[0, 0, :5] = 0.0  # dead bins on a usable budget
    gain2[1, 1, 3:] = 0.0  # caps of the live bins short of the budget: saturated
    return NormalizedGame(gain2=gain2, pmax=game.pmax, Gamma=game.Gamma)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the gains of every waterfill_rows call made by solve."""
    import specnash.equilibrium as equilibrium

    calls = []

    def counted(g, i, Gamma, pmax, budget=1.0):
        calls.append(np.shape(g))
        return waterfill_rows(g, i, Gamma, pmax, budget)

    monkeypatch.setattr(equilibrium, "waterfill_rows", counted)
    return calls


class TestBestResponse:
    def test_single_user_is_waterfill(self):
        ch = ratio_scenario(1, 8, seed=3, channel_order=3)
        game = build_game(ch)
        p = np.zeros((1, 8))
        br = best_response(0, p, game)
        ref = waterfill(WaterfillInput(
            g=game.gain2[0, 0], i=np.ones(8), Gamma=game.Gamma[0], pmax=game.pmax[0]
        ))
        np.testing.assert_allclose(br, ref)

    def test_symmetric_flat_uniform(self):
        game = flat_game(Q=2, coupling=0.4, N=4)
        p = np.ones((2, 4))
        np.testing.assert_allclose(best_response(0, p, game), np.ones(4), atol=1e-12)

    def test_shifted_price_oracle(self):
        # Opponent loads bin 0 with p = [2, 0]; the interference factors
        # become i = [3, 1] and the response follows the two-bin solve.
        gain2 = np.zeros((2, 2, 2))
        gain2[0, 0] = [4.0, 1.0]
        gain2[1, 1] = [1.0, 1.0]
        gain2[1, 0] = [1.0, 1.0]
        game_np = np.full((2, 2), UNBOUNDED)
        from specnash import NormalizedGame

        game = NormalizedGame(gain2=gain2, pmax=game_np, Gamma=np.ones(2))
        p = np.array([[0.0, 0.0], [2.0, 0.0]])
        br = best_response(0, p, game)
        # mu from budget: clip(mu - 3/4) + clip(mu - 1) = 2 -> mu = 1.875.
        np.testing.assert_allclose(br, [1.125, 0.875])


class TestSolve:
    def test_single_user_one_iteration(self):
        ch = ratio_scenario(1, 8, seed=2, channel_order=3)
        res = solve(build_game(ch), tol=1e-10)
        assert res.converged and res.iterations == 1
        assert res.residual <= 1e-10

    def test_schedules_agree_under_c1(self):
        game, _, _ = random_c1_game(seed=10)
        a = solve(game, "sequential", tol=1e-11)
        b = solve(game, "simultaneous", tol=1e-11)
        assert a.converged and b.converged
        assert np.abs(a.profile.p - b.profile.p).max() <= 1e-8

    def test_trace_monotone_tail(self):
        game, _, _ = random_c1_game(seed=3)
        res = solve(game, tol=1e-10)
        assert res.trace[-1] <= res.trace[0]
        assert res.residual == res.trace[-1]

    def test_nan_iterate_raises(self):
        game = flat_game(Q=2, coupling=0.2, N=2)
        bad = np.full((2, 2), np.nan)
        with pytest.raises((NumericFailureError, InvalidInputError)):
            solve(game, init=bad, tol=1e-8)

    def test_converged_kkt(self):
        game, _, _ = random_c1_game(seed=7, N=2)
        res = solve(game, tol=1e-9)
        for q in range(game.Q):
            i = 1.0 + np.einsum(
                "rk,rk->k", game.gain2[:, q, :], res.profile.p
            ) - game.gain2[q, q] * res.profile.p[q]
            inp = WaterfillInput(g=game.gain2[q, q], i=np.maximum(i, 1.0),
                                 Gamma=game.Gamma[q], pmax=game.pmax[q])
            assert kkt_residual(res.profile.p[q], inp) <= 10 * 1e-9

    def test_multistart_agreement_under_c1(self):
        game, _, _ = random_c1_game(seed=21)
        sols = []
        for s in range(20):
            init = random_feasible_profile(game, np.random.default_rng(s))
            sols.append(solve(game, init=init, tol=1e-11).profile.p)
        for s in sols[1:]:
            assert np.abs(s - sols[0]).max() <= 1e-6

    def test_payoff_consistency(self):
        game, _, _ = random_c1_game(seed=4)
        res = solve(game, tol=1e-11)
        base = rate_array(res.profile.p, game)
        for q in range(game.Q):
            p2 = res.profile.p.copy()
            p2[q] = best_response(q, res.profile.p, game)
            assert abs(rate_array(p2, game)[q] - base[q]) <= 1e-10

    @pytest.mark.parametrize("tol,max_iter", [(1e-10, 2000), (1e-30, 7)])
    def test_jacobi_one_response_map_per_sweep(self, kernel_calls, tol, max_iter):
        game = build_game(ratio_scenario(3, 16, d_ratio=4.0, snr_db=10.0, seed=(5,),
                                         channel_order=3))
        # The naive loop evaluates the map for the update and again for the
        # residual; a converged and a capped run must match it bit for bit.
        p = np.minimum(1.0, game.pmax)
        trace = []
        for it in range(1, max_iter + 1):
            p = np.stack([best_response(q, p, game) for q in range(game.Q)])
            nxt = np.stack([best_response(q, p, game) for q in range(game.Q)])
            trace.append(float(np.abs(p - nxt).max()))
            if trace[-1] <= tol:
                break
        res = solve(game, "simultaneous", tol=tol, max_iter=max_iter)
        assert res.converged == (tol > 1e-20)
        # One batched kernel call over all users per response map.
        assert kernel_calls == [(game.Q, game.N)] * (res.iterations + 1)
        assert res.iterations == it
        assert res.profile.p.tobytes() == p.tobytes()
        assert res.residual == trace[-1]
        assert res.trace.tobytes() == np.asarray(trace).tobytes()

    def test_gauss_seidel_kernel_calls(self, kernel_calls, monkeypatch):
        import specnash.equilibrium as equilibrium

        game = build_game(ratio_scenario(3, 16, d_ratio=4.0, snr_db=10.0, seed=(5,),
                                         channel_order=3))
        monkeypatch.setattr(equilibrium, "best_response", None)
        monkeypatch.setattr(equilibrium, "waterfill", None)
        res = solve(game, "sequential", tol=1e-10)
        # Per sweep: one raw row per user, then the batched residual map.
        sweep = [(game.N,)] * game.Q + [(game.Q, game.N)]
        assert kernel_calls == sweep * res.iterations

    @pytest.mark.parametrize("schedule,order_seed", [("sequential", None), ("sequential", 7),
                                                     ("simultaneous", None)])
    @pytest.mark.parametrize("kind", ["uncapped", "capped", "short_caps", "dead_bins"])
    @pytest.mark.parametrize("max_iter", [2000, 3])
    def test_matches_per_user_oracle(self, schedule, order_seed, kind, max_iter):
        game = oracle_game(kind)
        res = solve(game, schedule, tol=1e-11, max_iter=max_iter, order_seed=order_seed)
        p, residual, trace, iterations, converged = oracle_solve(
            game, schedule, tol=1e-11, max_iter=max_iter, order_seed=order_seed)
        assert res.converged == converged == (max_iter > 3)
        assert res.iterations == iterations
        assert res.profile.p.tobytes() == p.tobytes()
        assert res.residual == residual
        assert res.trace.tobytes() == trace.tobytes()

    def test_matches_per_user_oracle_from_init(self):
        game = oracle_game("capped")
        init = random_feasible_profile(game, np.random.default_rng(3))
        res = solve(game, "sequential", init=init, tol=1e-11, order_seed=11)
        p, residual, trace, iterations, _ = oracle_solve(game, "sequential", init=init,
                                                         tol=1e-11, order_seed=11)
        assert res.profile.p.tobytes() == p.tobytes()
        assert res.trace.tobytes() == trace.tobytes() and res.iterations == iterations

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_direct_gain(self, value):
        # The gains are validated once, when the game is built; `solve`
        # relies on that invariant and never sees them.
        gain2 = flat_game(Q=2, coupling=0.2, N=3).gain2.copy()
        gain2[1, 1, 2] = value
        with pytest.raises(InvalidInputError, match="gain2 must be finite"):
            NormalizedGame(gain2=gain2, pmax=np.full((2, 3), UNBOUNDED), Gamma=np.ones(2))

    def test_rejects_nan_cap(self):
        pmax = np.full((2, 3), 2.0)
        pmax[0, 1] = np.nan
        with pytest.raises(InvalidInputError, match="pmax"):
            NormalizedGame(gain2=flat_game(Q=2, coupling=0.2, N=3).gain2, pmax=pmax,
                           Gamma=np.ones(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_init(self, value):
        game = flat_game(Q=2, coupling=0.2, N=2)
        init = np.ones((2, 2))
        init[1, 0] = value
        for schedule in ("sequential", "simultaneous"):
            with pytest.raises(InvalidInputError, match="init"):
                solve(game, schedule, init=init)

    def test_rejects_non_finite_interference(self):
        # A finite cross gain whose product with the power overflows makes
        # the interference map non-finite (an infinite gain cannot be built).
        gain2 = flat_game(Q=2, coupling=0.2, N=3).gain2.copy()
        gain2[0, 1, 0] = np.finfo(np.float64).max
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 3), UNBOUNDED), Gamma=np.ones(2))
        init = np.array([[3.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        for schedule in ("sequential", "simultaneous"):
            with pytest.raises(InvalidInputError, match="interference"):
                solve(game, schedule, init=init)

    def test_bad_args(self):
        game = flat_game()
        with pytest.raises(InvalidInputError):
            solve(game, tol=0.0)
        with pytest.raises(InvalidInputError):
            solve(game, schedule="chaotic")
        with pytest.raises(InvalidInputError):
            solve(game, init=np.ones((3, 2)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_mask_equal_to_budget(self, seed, schedule):
        # pmax_bar = P normalizes to caps of exactly 1: the strategy set is
        # the single point p = 1, however the walk rounds its supply sum.
        P = 10.0  # the 10 dB default SNR
        game = build_game(ratio_scenario(5, 64, seed=seed, pmax_bar=np.full((5, 64), P)))
        res = solve(game, schedule=schedule)
        assert res.converged
        assert np.abs(res.profile.p - 1.0).max() <= 1e-12
        report = check_conditions(game)
        assert set(report.conditions) == {"C1", "C2", "C3", "C4", "C5", "C6", "C7"}


class TestClassification:
    def test_disjoint_supports(self):
        game = flat_game(Q=2, coupling=0.5, N=4)
        p = np.array([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, 2.0]])
        cls = classify_profile(p, game)
        assert cls.orthogonal
        assert sorted(np.concatenate(cls.exclusive).tolist()) == [0, 1, 2, 3]
        assert cls.shared_carriers == 0
        np.testing.assert_allclose(cls.flatness, 0.0)

    def test_full_support_sharing(self):
        game = flat_game(Q=2, coupling=0.5, N=4)
        cls = classify_profile(np.ones((2, 4)), game)
        assert not cls.orthogonal
        assert cls.shared_carriers == 4

    def test_eps_stability_on_constructed_instance(self):
        game = high_interference_game(seed=11)
        res = solve(game, tol=1e-10)
        assert res.converged
        a = classify_profile(res.profile.p, game, eps=1e-6)
        b = classify_profile(res.profile.p, game, eps=2e-6)
        assert a.orthogonal == b.orthogonal


class TestAllocationRule:
    def test_single_user_vacuous(self):
        ch = ratio_scenario(1, 1, seed=0, channel_order=0)
        game = build_game(ch)
        res = solve(game, tol=1e-10)
        rule = check_allocation_rule(res, game)
        assert rule.pairs == {}
        assert rule.violations == []

    def _crafted_game(self):
        # User 1 dominates bin 0 (ratio g11/g22 higher there).
        from specnash import NormalizedGame

        gain2 = np.zeros((2, 2, 2))
        gain2[0, 0] = [8.0, 1.0]
        gain2[1, 1] = [1.0, 4.0]
        gain2[0, 1] = [0.5, 0.5]
        gain2[1, 0] = [0.5, 0.5]
        return NormalizedGame(gain2=gain2, pmax=np.full((2, 2), UNBOUNDED), Gamma=np.ones(2))

    def test_matching_vs_swapped_assignment(self):
        game = self._crafted_game()
        good = orthogonal_profile(game, [[0], [1]])
        rule = check_allocation_rule(good, game)
        assert all(rule.pairs.values())
        swapped = orthogonal_profile(game, [[1], [0]])
        rule2 = check_allocation_rule(swapped, game)
        assert not all(rule2.pairs.values())
        assert rule2.violations

    def test_premise_guard(self):
        from specnash import NormalizedGame

        gain2 = np.zeros((2, 2, 2))
        gain2[0, 0] = [1.0, 1.0]
        gain2[1, 1] = [1.0, 1.0]
        gain2[0, 1] = [5.0, 5.0]  # outgoing cross gain above own direct gain
        gain2[1, 0] = [5.0, 5.0]
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 2), UNBOUNDED), Gamma=np.ones(2))
        p = np.array([[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(InvalidInputError):
            check_allocation_rule(p, game)

    def test_non_orthogonal_rejected(self):
        game = flat_game(Q=2, coupling=0.3, N=2)
        with pytest.raises(InvalidInputError):
            check_allocation_rule(np.ones((2, 2)), game)


class TestOrthogonalProfile:
    def test_construction_is_equilibrium_at_high_interference(self):
        game = high_interference_game(seed=11)
        for part in ([[0], [1]], [[1], [0]]):
            p = orthogonal_profile(game, part)
            res = max(np.abs(p[q] - best_response(q, p, game)).max() for q in range(2))
            assert res <= 1e-12
            assert classify_profile(p, game).orthogonal

    def test_disjointness_enforced(self):
        game = flat_game(Q=2, coupling=0.5, N=2)
        with pytest.raises(InvalidInputError):
            orthogonal_profile(game, [[0, 1], [1]])


class TestBruteForce:
    def test_single_user_matches_waterfill(self):
        ch = ratio_scenario(1, 2, seed=1, channel_order=1)
        game = build_game(ch)
        bf = brute_force_ne(game, grid=200)
        assert len(bf.clusters) == 1
        ref = solve(game, tol=1e-11).profile.p
        best = min(np.abs(bf.profiles[i] - ref).max() for i in bf.clusters[0])
        assert best <= 2.0 / 199 + 1e-9

    def test_c1_instance_single_cluster(self):
        game, _, _ = random_c1_game(seed=5)
        bf = brute_force_ne(game, grid=200)
        assert len(bf.clusters) == 1
        ref = solve(game, tol=1e-11).profile.p
        best = min(np.abs(bf.profiles[i] - ref).max() for i in bf.clusters[0])
        assert best <= 2.0 / 199 + 1e-9

    def test_high_interference_permutations(self):
        game = high_interference_game(seed=11)
        bf = brute_force_ne(game, grid=200)
        assert len(bf.clusters) >= 2
        perms = [orthogonal_profile(game, [[0], [1]]), orthogonal_profile(game, [[1], [0]])]
        for target in perms:
            found = any(
                min(np.abs(bf.profiles[i] - target).max() for i in c) <= 2 * 2.0 / 199
                for c in bf.clusters
            )
            assert found

    def test_guards(self):
        game = flat_game(Q=2, coupling=0.5, N=4)
        with pytest.raises(InvalidInputError):
            brute_force_ne(game, grid=64)  # Q*N = 8
        small = flat_game(Q=2, coupling=0.5, N=2)
        with pytest.raises(InvalidInputError):
            brute_force_ne(small, grid=8)
