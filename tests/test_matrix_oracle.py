import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from precoder_oracle import oracle_precoder, oracle_verify
from specnash import InvalidInputError, UNBOUNDED, build_game, ratio_scenario
from specnash.channel import ChannelSet
from specnash.experiments import run_verify_theorem1
from specnash.matrix_oracle import (
    _precoder_stack,
    circulant_links,
    fourier_matrix,
    gap_rate,
    interference_covariance,
    majorization_leq,
    mmse_receiver,
    mse_sinr,
    mutual_information,
    precoder_feasible,
    precoder_from_profile,
    qam_gap,
    random_feasible_precoder,
    verify_diagonal_optimality,
    verify_instance,
)
from specnash.pareto import rate_array
from specnash.rng import derive_rng


def scenario(Q=2, N=4, seed=1, snr_db=8.0, d_ratio=2.0):
    return ratio_scenario(Q, N, d_ratio=d_ratio, snr_db=snr_db, seed=seed,
                          channel_order=N // 2)


def diagonal_precoders(ch, p):
    return np.stack([precoder_from_profile(p[r], ch.P[r]) for r in range(ch.Q)])


def sinr_via_receiver(q, precoders, links, G):
    """Direct SINR form through an explicit receive filter (test oracle)."""
    N = links.N
    HF = links.H[q, q] @ precoders[q]
    R_noise = interference_covariance(q, precoders, links)
    signal_cov = HF @ HF.conj().T
    out = np.empty(N)
    for k in range(N):
        gk = G[:, k]
        num = abs(gk.conj() @ HF[:, k]) ** 2
        total = gk.conj() @ (signal_cov + R_noise) @ gk
        out[k] = num / (total.real - num)
    return out


class TestMutualInformation:
    def test_scalar_case(self):
        taps = np.array([[[0.8 + 0.3j]]])
        ch = ChannelSet(taps=taps, d=np.array([[1.0]]), gamma=2.0, P=np.array([2.0]),
                        sigma2=np.array([0.5]), pmax_bar=np.array([[UNBOUNDED]]),
                        Gamma=np.array([1.0]), N=1)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.array([[1.0]]))
        ref = np.log2(1.0 + abs(0.8 + 0.3j) ** 2 * 2.0 / 0.5)
        assert mutual_information(0, F, links) == pytest.approx(ref, rel=1e-12)

    def test_identity_two_bins(self):
        # H = I, F = I, sigma2 = 1: (1/2) log2 det(2 I) = 1 bit.
        taps = np.array([[[1.0]]])
        ch = ChannelSet(taps=taps, d=np.array([[1.0]]), gamma=2.0, P=np.array([1.0]),
                        sigma2=np.array([1.0]), pmax_bar=np.full((1, 2), UNBOUNDED),
                        Gamma=np.array([1.0]), N=2)
        links = circulant_links(ch)
        F = np.eye(2, dtype=complex)[None, :, :]
        assert mutual_information(0, F, links) == pytest.approx(1.0, rel=1e-12)

    def test_matches_reduced_game_rate(self, rng):
        ch = scenario(seed=3)
        game = dataclasses.replace(build_game(ch), Gamma=np.ones(2))
        links = circulant_links(ch)
        p = rng.uniform(0.2, 1.5, (2, 4))
        p /= p.mean(axis=1, keepdims=True)
        F = diagonal_precoders(ch, p)
        for q in range(2):
            assert mutual_information(q, F, links) == pytest.approx(
                rate_array(p, game)[q], abs=1e-10
            )


class TestMmseReceiver:
    def test_zero_precoder(self):
        ch = scenario(seed=2)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.ones((2, 4)))
        F[0] = 0.0
        assert np.abs(mmse_receiver(0, F, links)).max() == 0.0

    def test_scalar_wiener(self):
        taps = np.array([[[0.9 - 0.2j]]])
        ch = ChannelSet(taps=taps, d=np.array([[1.0]]), gamma=2.0, P=np.array([1.5]),
                        sigma2=np.array([0.3]), pmax_bar=np.array([[UNBOUNDED]]),
                        Gamma=np.array([1.0]), N=1)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.array([[1.0]]))
        h = complex(taps[0, 0, 0])
        f = complex(F[0][0, 0])
        ref = (h * f) / 0.3 / (1.0 + abs(h * f) ** 2 / 0.3)
        assert mmse_receiver(0, F, links)[0, 0] == pytest.approx(ref, rel=1e-12)

    def test_lossless_on_random_instances(self, rng):
        # mmse_receiver recomputes the mutual information through G and
        # raises beyond 1e-9; exercising it on random precoders is the test.
        for s in range(50):
            ch = scenario(seed=s)
            links = circulant_links(ch)
            F = diagonal_precoders(ch, np.ones((2, 4)))
            F[0] = random_feasible_precoder(np.random.default_rng(s), ch.P[0], ch.pmax_bar[0])
            mmse_receiver(0, F, links)


class TestMseSinr:
    def test_diagonal_matches_reduced_sinr(self, rng):
        ch = scenario(seed=5)
        game = dataclasses.replace(build_game(ch), Gamma=np.ones(2))
        links = circulant_links(ch)
        p = rng.uniform(0.1, 1.8, (2, 4))
        p /= p.mean(axis=1, keepdims=True)
        F = diagonal_precoders(ch, p)
        for q in range(2):
            direct = game.gain2[q, q]
            inter = 1.0 + np.einsum("rk,rk->k", game.gain2[:, q, :], p) - direct * p[q]
            ref = direct * p[q] / inter
            got = np.sort(mse_sinr(q, F, links))
            np.testing.assert_allclose(got, np.sort(ref), atol=1e-10)

    def test_direct_form_identity(self, rng):
        ch = scenario(seed=8)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.ones((2, 4)))
        F[0] = random_feasible_precoder(rng, ch.P[0], ch.pmax_bar[0])
        G = mmse_receiver(0, F, links)
        lhs = sinr_via_receiver(0, F, links, G)
        rhs = mse_sinr(0, F, links)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9, rtol=1e-9)

    def test_zero_power_bin(self):
        ch = scenario(seed=2)
        links = circulant_links(ch)
        p = np.ones((2, 4))
        p[0, 2] = 0.0
        F = diagonal_precoders(ch, p)
        sinr = mse_sinr(0, F, links)
        assert sinr.min() == pytest.approx(0.0, abs=1e-12)


class TestGapRate:
    def test_gamma_one_equals_mutual_information(self):
        ch = scenario(seed=4)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.ones((2, 4)))
        assert gap_rate(0, F, links, 1.0) == pytest.approx(
            mutual_information(0, F, links), abs=1e-10
        )

    def test_large_gap_kills_rate(self):
        ch = scenario(seed=4)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.ones((2, 4)))
        assert gap_rate(0, F, links, 1e9) < 1e-6

    def test_qam_gap_value(self):
        # Numerical inverse-Q oracle by bisection on Q(x) = erfc(x/sqrt2)/2.
        target = 2.5e-4
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * erfc(mid / np.sqrt(2.0)) > target:
                lo = mid
            else:
                hi = mid
        ref = hi**2 / 3.0
        assert qam_gap(1e-3) == pytest.approx(ref, rel=1e-9)
        assert qam_gap(1e-3) == pytest.approx(4.04, abs=5e-3)

    def test_gap_below_one_rejected(self):
        ch = scenario(seed=4)
        links = circulant_links(ch)
        F = diagonal_precoders(ch, np.ones((2, 4)))
        with pytest.raises(InvalidInputError):
            gap_rate(0, F, links, 0.5)


class TestSampler:
    def test_feasible_with_masks(self, rng):
        pmax_bar = np.array([3.0, 1.0, 5.0, 0.5])
        for s in range(30):
            F = random_feasible_precoder(np.random.default_rng(s), 2.0, pmax_bar)
            assert precoder_feasible(F, 2.0, pmax_bar)

    def test_deterministic_per_seed(self):
        a = random_feasible_precoder(np.random.default_rng(9), 1.0, np.full(4, UNBOUNDED))
        b = random_feasible_precoder(np.random.default_rng(9), 1.0, np.full(4, UNBOUNDED))
        assert a.tobytes() == b.tobytes()

    def test_unbounded_mask_checks_budget_and_nan(self):
        # Without a finite cap the bin powers are skipped; the trace test
        # must then reject an over-budget and a NaN precoder by itself.
        unbounded = np.full(4, UNBOUNDED)
        F = random_feasible_precoder(np.random.default_rng(4), 2.0, unbounded)
        assert precoder_feasible(F, 2.0, unbounded)
        assert not precoder_feasible(1.01 * F, 2.0, unbounded)
        bad = F.copy()
        bad[1, 2] = np.nan
        assert not precoder_feasible(bad, 2.0, unbounded)
        assert not precoder_feasible(bad, 2.0, np.full(4, 1e9))

    def test_profile_precoder_feasibility(self):
        ch = scenario(seed=1)
        F = precoder_from_profile(np.ones(4), ch.P[0])
        assert precoder_feasible(F, ch.P[0], ch.pmax_bar[0])


class TestDiagonalOptimality:
    def test_diagonal_samples_never_beat_best_response(self, rng):
        ch = scenario(seed=6)
        game = build_game(ch)
        links = circulant_links(ch)
        from specnash.equilibrium import best_response

        opponents = np.minimum(1.0, game.pmax)
        p_star = best_response(0, opponents, game)
        F = diagonal_precoders(ch, opponents)
        F[0] = precoder_from_profile(p_star, ch.P[0])
        best = mutual_information(0, F, links)
        for s in range(40):
            p_rand = np.random.default_rng(s).uniform(0, 2, 4)
            p_rand = p_rand / p_rand.mean()
            F[0] = precoder_from_profile(p_rand, ch.P[0])
            assert mutual_information(0, F, links) <= best + 1e-9

    def test_random_precoders_mutual_information(self):
        rep = verify_diagonal_optimality(scenario(seed=7), 0, samples=60, seed=0)
        assert rep.violations == 0
        assert rep.max_gap <= 1e-9

    def test_random_precoders_gap_payoff(self):
        rep = verify_diagonal_optimality(
            scenario(seed=7), 0, samples=60, seed=0, payoff="gap", Gamma=3.0
        )
        assert rep.violations == 0

    def test_masked_instance(self):
        ch = ratio_scenario(2, 4, d_ratio=2.0, seed=9, channel_order=2,
                            pmax_bar=np.full((2, 4), 8.0))
        rep = verify_diagonal_optimality(ch, 1, samples=60, seed=3)
        assert rep.violations == 0

    def test_guards(self):
        with pytest.raises(InvalidInputError):
            verify_diagonal_optimality(scenario(seed=1, N=16), 0, samples=60, seed=0)
        with pytest.raises(InvalidInputError):
            verify_diagonal_optimality(scenario(seed=1), 0, samples=10, seed=0)


def masked_scenario(Q, N, seed):
    """Masks between 1.05 and 2 times the budget: feasible, often exceeded."""
    P = 10.0 ** 0.8
    pmax_bar = P * np.random.default_rng(seed).uniform(1.05, 2.0, (Q, N))
    return ratio_scenario(Q, N, d_ratio=1.5, snr_db=8.0, seed=seed,
                          channel_order=N // 2, pmax_bar=pmax_bar)


class TestStackedOracle:
    """The stacked sampler and payoffs reproduce the per-sample loop bit for bit."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    @pytest.mark.parametrize("Q", [1, 2, 3])
    def test_reports_match_per_sample_oracle(self, Q, N, masked):
        seed = 100 * Q + N
        ch = masked_scenario(Q, N, seed) if masked else scenario(Q, N, seed=seed, d_ratio=1.5)
        blended = 0
        for q in range(Q):
            for payoff, Gamma in (("mutual_information", None), ("gap", 3.0)):
                rep = verify_diagonal_optimality(ch, q, samples=50, seed=seed + q,
                                                 payoff=payoff, Gamma=Gamma)
                values, max_gap, violations, best, blend = oracle_verify(
                    ch, q, 50, seed + q, payoff, Gamma
                )
                assert rep.values.tobytes() == values.tobytes()
                assert (rep.max_gap, rep.violations, rep.best_response_value) == (
                    max_gap, violations, best
                )
                blended += blend
        if masked and N > 1:
            assert blended > 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(1, 12),
        N=st.integers(1, 8),
        P=st.floats(0.1, 100.0),
        mask=st.one_of(st.none(), st.lists(st.floats(0.2, 3.0), min_size=8, max_size=8)),
    )
    def test_stack_rows_match_per_draw_sampler(self, seed, samples, N, P, mask):
        pmax_bar = np.full(N, UNBOUNDED) if mask is None else P * np.array(mask[:N])
        F = _precoder_stack(seed, samples, P, tuple(pmax_bar.tolist()))
        assert F.shape == (samples, N, N)
        for s in range(samples):
            ref, _ = oracle_precoder(derive_rng(seed, s), P, pmax_bar, N)
            assert F[s].tobytes() == ref.tobytes()

    def test_single_draw_is_a_stack_of_one(self):
        pmax_bar = np.array([3.0, 1.0, 5.0, 0.5])
        for s in range(20):
            ref, _ = oracle_precoder(np.random.default_rng(s), 2.0, pmax_bar, 4)
            got = random_feasible_precoder(np.random.default_rng(s), 2.0, pmax_bar)
            assert got.tobytes() == ref.tobytes()

    def test_driver_draws_once_per_instance_and_user(self, tmp_path, monkeypatch):
        import specnash.matrix_oracle as oracle_mod

        calls = {name: 0 for name in ("_precoder_stack", "build_game", "circulant_links")}

        def counting(name):
            fn = getattr(oracle_mod, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(oracle_mod, name, counting(name))
        cfg = {
            "seed": 2, "instances": 2, "samples": 50,
            "payoffs": ["mutual_information", "gap"],
            "scenario": {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                         "channel_order": 2, "d_ratio": 2.0},
        }
        run_verify_theorem1(cfg, str(tmp_path / "t1.json"))
        # One draw per (instance, user); one game and one set of links per instance.
        assert calls == {"_precoder_stack": 4, "build_game": 2, "circulant_links": 2}

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("Q", [2, 3])
    def test_instance_reports_match_single_reports_and_oracle(self, Q, masked):
        N, seed, samples = 4, 40 + Q, 50
        ch = masked_scenario(Q, N, seed) if masked else scenario(Q, N, seed=seed, d_ratio=1.5)
        seeds = [2**33 + 7 * q for q in range(Q)]
        payoffs = ["mutual_information", "gap"]
        reports = verify_instance(ch, seeds, samples, payoffs, 2.5)
        assert len(reports) == Q * len(payoffs)
        pairs = [(q, payoff) for q in range(Q) for payoff in payoffs]
        for (q, payoff), rep in zip(pairs, reports):
            Gamma = 2.5 if payoff == "gap" else None
            one = verify_diagonal_optimality(ch, q, samples=samples, seed=seeds[q],
                                             payoff=payoff, Gamma=Gamma)
            values, max_gap, violations, best, _ = oracle_verify(
                ch, q, samples, seeds[q], payoff, Gamma
            )
            for ref_values, ref in ((one.values, (one.max_gap, one.violations,
                                                  one.best_response_value)),
                                    (values, (max_gap, violations, best))):
                assert rep.values.tobytes() == ref_values.tobytes()
                assert (rep.max_gap, rep.violations, rep.best_response_value) == ref

    def test_instance_guards(self):
        with pytest.raises(InvalidInputError):
            verify_instance(scenario(seed=1, N=16), [0, 1], 60, ["gap"], 3.0)
        with pytest.raises(InvalidInputError):
            verify_instance(scenario(seed=1), [0, 1], 10, ["gap"], 3.0)
        with pytest.raises(InvalidInputError):
            verify_instance(scenario(seed=1), [0, 1], 60, ["capacity"], 3.0)


class TestMajorization:
    def test_examples(self):
        assert majorization_leq([1.0, 1.0], [2.0, 0.0])
        assert majorization_leq([1.0, 2.0], [1.0, 2.0])
        assert not majorization_leq([2.0, 0.0], [1.0, 1.0])
        assert not majorization_leq([1.0, 0.0], [2.0, 0.0])  # unequal totals

    def test_unitary_diagonal_majorized_by_eigenvalues(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = A + A.conj().T
            U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            d = np.real(np.diag(U.conj().T @ A @ U))
            lam = np.linalg.eigvalsh(A)
            assert majorization_leq(d, lam, tol=1e-10)

    def test_schur_concavity_spot_check(self, rng):
        # The negated gap objective as a function of the MSE diagonal must
        # not decrease when the diagonal spreads out toward the spectrum.
        def f(x, Gamma=3.0):
            return -np.mean(np.log2(1.0 + (1.0 / x - 1.0) / Gamma))

        for s in range(50):
            gen = np.random.default_rng(s)
            n = 4
            B = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            E = np.linalg.inv(np.eye(n) + B @ B.conj().T)
            d = np.real(np.diag(E))
            lam = np.linalg.eigvalsh(E)
            assert f(d) >= f(lam) - 1e-12


class TestFourier:
    def test_unitary(self):
        W = fourier_matrix(5)
        np.testing.assert_allclose(W @ W.conj().T, np.eye(5), atol=1e-12)

    def test_circulant_diagonalization(self, rng):
        ch = scenario(seed=11)
        links = circulant_links(ch)
        W = fourier_matrix(4)
        D = W.conj().T @ links.H[0, 1] @ W
        off = D - np.diag(np.diag(D))
        assert np.abs(off).max() < 1e-12

    def test_direct_link_is_the_convolution_matrix(self):
        # Circular convolution with the zero-padded taps: C[i, j] = taps[(i - j) % N].
        # The opposite DFT sign would give its transpose.
        ch = ratio_scenario(2, 6, seed=12, channel_order=3)
        taps = np.zeros(6, dtype=complex)
        taps[:4] = ch.taps[0, 0]
        idx = np.arange(6)
        C = taps[(idx[:, None] - idx[None, :]) % 6]
        np.testing.assert_allclose(circulant_links(ch).H[0, 0], C, rtol=0, atol=1e-14)
        assert np.abs(C - C.T).max() > 0.1
