import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import flat_game, high_interference_game, random_c1_game
from equilibrium_oracle import oracle_response_map, oracle_solve
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
from specnash.pareto import project_all, rate_array, random_feasible_profile
from specnash.uniqueness import check_conditions, coupling_stack, perron_weights, verdict_codes
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


@st.composite
def displacement_cases(draw):
    """(game, seed): Q 2-5 users, N in {2, 4, 8, 64}; half cap 30% of the bins."""
    Q = draw(st.integers(2, 5))
    N = draw(st.sampled_from([2, 4, 8, 64]))
    seed = draw(st.integers(0, 2**31 - 1))
    snr_db = draw(st.floats(-5.0, 20.0))
    pmax_bar = None
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        pmax_bar = np.where(rng.random((Q, N)) < 0.3,
                            10.0 ** (snr_db / 10.0) * rng.uniform(0.3, 3.0, (Q, N)), UNBOUNDED)
    ch = ratio_scenario(Q, N, d_ratio=draw(st.floats(0.5, 4.0)), snr_db=snr_db,
                        Gamma=draw(st.floats(1.0, 3.0)), channel_order=min(N - 1, 4),
                        seed=seed, pmax_bar=pmax_bar)
    return build_game(ch), seed


class TestDisplacementBound:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(case=displacement_cases())
    def test_best_response_moves_at_most_by_hmax(self, case):
        # Waterfilling is the projection of -Gamma_q i_q / g_q onto user q's
        # strategy set, so ||BR_q(p) - BR_q(p')||_2 is at most
        # sum_r Hmax[q, r] ||p_r - p'_r||_2 with Hmax the coupling matrix
        # maximised over all bins: the matrix the C2 certificate bounds.
        game, seed = case
        rng = np.random.default_rng(seed)
        Hmax = coupling_stack(game, np.ones((game.Q, game.N), dtype=bool)).max(axis=0)
        for pair in range(6):
            p = random_feasible_profile(game, rng, sparse=pair % 2 == 0)
            if pair < 3:
                p2 = random_feasible_profile(game, rng, sparse=pair % 2 == 1)
            else:
                p2 = project_all(p + 1e-3 * rng.standard_normal(p.shape), game)
            moves = np.linalg.norm(p - p2, axis=1)
            for q in range(game.Q):
                lhs = np.linalg.norm(best_response(q, p, game) - best_response(q, p2, game))
                rhs = float(Hmax[q] @ moves)
                assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(Q=st.integers(2, 4), N=st.sampled_from([4, 8, 16]), d_ratio=st.floats(1.0, 4.0),
           snr_db=st.floats(-5.0, 15.0), order=st.integers(0, 3), seed=st.integers(0, 2**16),
           caps=st.one_of(st.none(), st.floats(0.1, 30.0)))
    def test_multistart_agreement_under_c1(self, Q, N, d_ratio, snr_db, order, seed, caps):
        # On a C1-certified game every start of either schedule reaches one
        # profile: six starts (uniform and near-vertex draws) x 2 schedules.
        pmax_bar = None
        if caps is not None:
            pmax_bar = caps * np.random.default_rng(seed).uniform(0.3, 3.0, (Q, N))
        game = build_game(ratio_scenario(Q, N, d_ratio=d_ratio, snr_db=snr_db, channel_order=order,
                                         seed=(seed,), pmax_bar=pmax_bar))
        assume(verdict_codes([game])[0, 0] == 1)
        sols = []
        for s in range(6):
            init = random_feasible_profile(game, np.random.default_rng(s), sparse=s % 2 == 1)
            for schedule in ("sequential", "simultaneous"):
                res = solve(game, schedule=schedule, init=init, tol=1e-11, max_iter=3000)
                assert res.converged
                sols.append(res.profile.p)
        for p in sols[1:]:
            assert np.abs(p - sols[0]).max() <= 1e-6

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(Q=st.integers(2, 4), N=st.sampled_from([4, 8, 16]), d_ratio=st.floats(1.5, 6.0),
           snr_db=st.floats(-5.0, 15.0), order=st.integers(0, 3), seed=st.integers(0, 2**16),
           caps=st.one_of(st.none(), st.floats(0.1, 30.0)))
    def test_jacobi_rate_under_c2(self, Q, N, d_ratio, snr_db, order, seed, caps):
        # Part II and Scutari et al. (2008): on a C2-certified game the
        # simultaneous waterfilling map contracts with modulus rho(Hmax) in
        # the block norm max_q ||x_q||_2 / w_q, w the Perron vector of Hmax.
        # So every move between best responses shrinks by rho in that norm,
        # and the sup-norm residuals of the trace shrink over n sweeps by
        # rho^n times the norms' equivalence constant sqrt(N) w_max / w_min.
        # The trace's own ratios need not stay below rho: on flat channels
        # they alternate around it.
        rng = np.random.default_rng(seed)
        pmax_bar = None
        if caps is not None:
            pmax_bar = caps * rng.uniform(0.3, 3.0, (Q, N))
        game = build_game(ratio_scenario(Q, N, d_ratio=d_ratio, snr_db=snr_db, channel_order=order,
                                         seed=(seed,), pmax_bar=pmax_bar))
        report = check_conditions(game)
        assume(report.satisfied("C2"))
        rho = report["C2"].margin
        w = perron_weights(coupling_stack(game, report.usable).max(axis=0))
        init = random_feasible_profile(game, rng, sparse=seed % 2 == 1)
        res = solve(game, schedule="simultaneous", init=init, tol=1e-10, max_iter=3000)
        assert res.converged
        iterates = [init]
        for _ in range(res.iterations + 1):
            iterates.append(oracle_response_map(iterates[-1], game))
        moves = np.diff(iterates, axis=0)[1:]  # between best responses only
        assert np.abs(moves).max(axis=(1, 2)).tobytes() == res.trace.tobytes()
        norms = (np.linalg.norm(moves, axis=2) / w).max(axis=1)
        assert (norms[1:] <= rho * norms[:-1] * (1.0 + 1e-9) + 1e-13).all()
        sweeps = res.trace.size - 1
        if sweeps and res.trace[0] > 0:
            rate = (res.trace[-1] / res.trace[0]) ** (1.0 / sweeps)
            assert rate <= rho * (np.sqrt(N) * w.max() / w.min()) ** (1.0 / sweeps)

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
        # The map of the start profile, then per sweep: the first user's row
        # read off the previous map, one raw row per later user, then the
        # batched residual map.
        sweep = [(game.N,)] * (game.Q - 1) + [(game.Q, game.N)]
        assert kernel_calls == [(game.Q, game.N)] + sweep * res.iterations

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
        for max_iter in (0, -1):
            with pytest.raises(InvalidInputError, match="max_iter"):
                solve(game, max_iter=max_iter)
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
        # classify_profile counts a user on a bin above 1e-6; no power near
        # that threshold means a doubled threshold would classify alike.
        game = high_interference_game(seed=11)
        res = solve(game, tol=1e-10)
        assert res.converged
        p = res.profile.p
        assert not ((p >= 1e-6) & (p <= 2e-6)).any()


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
