import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import specnash.uniqueness as uniqueness
from conftest import FIG1_RATIOS, fig1_games, flat_game
from matrix_classes import is_K, is_P, is_Z
from perron_oracle import oracle_spectral_radius
from specnash import (InfeasibleWaterfillError, InvalidInputError, NumericFailureError, UNBOUNDED,
                      build_game, ratio_scenario)
from specnash.channel import NormalizedGame
from specnash.uniqueness import (
    CONDITION_NAMES,
    DQ_MODES,
    VERDICT_KINDS,
    check_conditions,
    coupling_stack,
    perron_weights,
    spectral_radius,
    usable_sets,
    verdict_codes,
)
from uniqueness_oracle import oracle_check_conditions, oracle_usable_sets, oracle_usable_stack


def char_poly_radius(M):
    """Independent oracle for dim <= 3: roots of the characteristic polynomial."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n == 1:
        coeffs = [1.0, -M[0, 0]]
    elif n == 2:
        coeffs = [1.0, -np.trace(M), np.linalg.det(M)]
    else:
        t = np.trace(M)
        m2 = 0.5 * (t**2 - np.trace(M @ M))
        coeffs = [1.0, -t, m2, -np.linalg.det(M)]
    return float(np.abs(np.roots(coeffs)).max())


def oracle_c1_verdict(game, Dq_mode="virtual_interferer"):
    """C1 verdict from the power-iteration oracle, None inside the 1e-9 band."""
    stack = coupling_stack(game, usable_sets(game, Dq_mode))
    margin = max(oracle_spectral_radius(H) for H in stack)
    return None if abs(margin - 1.0) <= 1e-9 else margin < 1.0


class TestSpectralRadius:
    def test_two_by_two_closed_form(self):
        assert spectral_radius(np.array([[0.0, 2.0], [0.5, 0.0]])) == pytest.approx(1.0)
        assert spectral_radius(np.array([[0.0, 4.0], [0.25, 0.0]])) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_against_dense_eig(self, rng):
        for _ in range(50):
            M = rng.uniform(0.0, 1.0, (5, 5))
            ref = float(np.abs(np.linalg.eigvals(M)).max())
            assert abs(spectral_radius(M) - ref) <= 1e-8 * max(1.0, ref)

    def test_against_char_poly_small(self, rng):
        for n in (1, 2, 3):
            for _ in range(30):
                M = rng.exponential(1.0, (n, n))
                ref = char_poly_radius(M)
                assert spectral_radius(M) == pytest.approx(ref, abs=1e-8, rel=1e-8)

    def test_extreme_ranges(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            M = rng.exponential(1.0, (n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
            np.fill_diagonal(M, 0.0)
            ref = oracle_spectral_radius(M)
            assert abs(spectral_radius(M) - ref) <= 1e-8 * max(1.0, ref)

    def test_structured_stack_against_oracle(self):
        # Reducible, block-diagonal and nilpotent members in one stack.
        stack = np.array([
            [[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]],  # nilpotent
            [[0.3, 0.0, 0.0], [0.0, 0.0, 0.7], [0.0, 0.2, 0.0]],  # block-diagonal
            [[0.5, 4.0, 0.0], [0.0, 0.2, 9.0], [0.0, 0.0, 0.1]],  # triangular
            [[0.0, 0.4, 0.0], [0.9, 0.0, 0.0], [5.0, 5.0, 0.0]],  # reducible, feeds out
            np.zeros((3, 3)),
        ])
        got = spectral_radius(stack)
        assert got.shape == (5,)
        for k in range(5):
            assert got[k] == pytest.approx(oracle_spectral_radius(stack[k]), rel=1e-10, abs=1e-12)
        assert spectral_radius(stack.reshape(5, 1, 3, 3)).shape == (5, 1)

    def test_pruned_fig1_stacks_against_oracle(self):
        # Pruned users leave zero rows and columns in their bins' matrices.
        pruned = 0
        for seed in range(4):
            ch = ratio_scenario(5, 64, gamma=2.5, d_ratio=2.0, snr_db=-10.0, seed=(17, seed),
                                channel_order=6)
            game = build_game(ch)
            kept = usable_sets(game)
            pruned += int((~kept).sum())
            stack = coupling_stack(game, kept)
            got = spectral_radius(stack)
            ref = np.array([oracle_spectral_radius(H) for H in stack])
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-15)
        assert pruned > 0

    def test_undecided_bracket_falls_back(self, monkeypatch):
        # rho = 0.9 from the 1x1 block, but the other block's row sum 1.9
        # keeps the Collatz-Wielandt upper bound above 1.
        M = np.zeros((3, 3))
        M[0, 0], M[1, 2], M[2, 1] = 0.9, 1.9, 0.1
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(uniqueness.np.linalg, "eigvals",
                            lambda A: calls.append(A) or eigvals(A))
        got = spectral_radius(np.stack([0.5 * np.eye(3), M, 2.0 * np.eye(3)]))
        np.testing.assert_allclose(got, [0.5, 0.9, 2.0], rtol=1e-12)
        assert len(calls) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            spectral_radius(np.ones((2, 3)))


class TestMatrixClasses:
    def test_identity(self):
        assert is_Z(np.eye(3)) and is_P(np.eye(3)) and is_K(np.eye(3))

    def test_z_but_not_p(self):
        M = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert is_Z(M)
        assert not is_P(M)  # det = -3
        assert not is_K(M)

    def test_comparison_equivalence_example(self, rng):
        H = rng.uniform(0.0, 1.0, (3, 3))
        H *= 0.5 / spectral_radius(H)
        assert is_K(np.eye(3) - H)

    def test_lemma_equivalence_random(self, rng):
        # rho(H) < 1 iff I - H has all principal minors positive, exact at
        # margins > 1e-6 from the boundary.
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 7))
            H = rng.uniform(0.0, 1.0, (n, n)) * rng.uniform(0.1, 1.6)
            rho = spectral_radius(H)
            if abs(rho - 1.0) <= 1e-6:
                continue
            assert (rho < 1.0) == is_K(np.eye(n) - H)
            checked += 1

    def test_p_dimension_guard(self):
        with pytest.raises(InvalidInputError):
            is_P(np.eye(13))


class TestUsableCarriers:
    def test_mode_all(self):
        game = flat_game(Q=2, coupling=0.5, N=4)
        np.testing.assert_array_equal(usable_sets(game, "all")[0], np.ones(4, bool))

    def test_single_user_keeps_alive_bins(self):
        gain2 = np.array([[[1.0, 0.0, 2.0]]])
        game = NormalizedGame(gain2=gain2, pmax=np.full((1, 3), UNBOUNDED), Gamma=np.ones(1))
        np.testing.assert_array_equal(
            usable_sets(game, "virtual_interferer")[0], [True, False, True]
        )

    def test_zero_gain_excluded_in_virtual_mode(self):
        gain2 = np.zeros((2, 2, 3))
        gain2[0, 0] = [1.0, 0.0, 1.0]
        gain2[1, 1] = [1.0, 1.0, 1.0]
        gain2[0, 1] = gain2[1, 0] = np.full(3, 0.1)
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 3), UNBOUNDED), Gamma=np.ones(2))
        kept = usable_sets(game, "virtual_interferer")[0]
        assert not kept[1]

    def test_pruned_set_contains_clean_waterfill_support(self):
        # The level against the favorable virtual pattern dominates the
        # interference-free level, so every bin the clean single-user
        # waterfill populates must survive pruning (and the pruned bins
        # are a subset of the bins the clean solve already leaves empty).
        from specnash import WaterfillInput, waterfill

        pruned_any = False
        for seed in range(6):
            ch = ratio_scenario(2, 16, d_ratio=2.0, snr_db=-10.0, seed=seed, channel_order=6)
            game = build_game(ch)
            kept = usable_sets(game)
            for q in range(2):
                clean = waterfill(WaterfillInput(
                    g=game.gain2[q, q], i=np.ones(16), Gamma=game.Gamma[q],
                    pmax=game.pmax[q],
                ))
                assert kept[q][clean > 1e-12].all()
                pruned_any |= bool((~kept[q]).any())
        assert pruned_any  # the scenario is tight enough to actually prune

    def test_unknown_mode(self):
        game = flat_game()
        with pytest.raises(InvalidInputError):
            usable_sets(game, "psychic")[0]

    @staticmethod
    def per_bin_mask(game, q):
        """The virtual-interferer rule as one waterfill per bin under test."""
        from specnash import WaterfillInput, waterfill

        Q, N = game.Q, game.N
        direct = game.gain2[q, q]
        virtual = np.delete(game.gain2[:, q], q, axis=0).max(axis=0)
        i_spread = 1.0 + virtual * ((Q - 1) * N / (N - 1))
        kept = np.zeros(N, dtype=bool)
        for k in np.nonzero(direct > 0)[0]:
            i = i_spread.copy()
            i[k] = 1.0
            p = waterfill(WaterfillInput(g=direct, i=i, Gamma=game.Gamma[q], pmax=game.pmax[q]))
            kept[k] = p[k] > 1e-12
        return kept

    def test_batched_masks_match_per_bin_waterfill(self):
        # Fig. 1 games (Q=5, N=64, -10 dB) at every distance ratio.
        pruned = 0
        for seed in range(3):
            for ratio in (1.0, 2.0, 4.0, 8.0):
                ch = ratio_scenario(5, 64, d_ratio=ratio, snr_db=-10.0, seed=(seed,),
                                    channel_order=6)
                game = build_game(ch)
                for q in range(game.Q):
                    kept = usable_sets(game)[q]
                    np.testing.assert_array_equal(kept, self.per_bin_mask(game, q))
                    pruned += int((~kept).sum())
        assert pruned > 0

    def test_batched_masks_with_caps_and_dead_bins(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            Q, N = 3, 12
            gain2 = rng.exponential(0.3, (Q, Q, N))
            gain2[np.arange(Q), np.arange(Q)] = rng.exponential(1.0, (Q, N))
            gain2[0, 0, rng.random(N) < 0.3] = 0.0
            # Loose caps, a mix of capped and uncapped bins, and caps too
            # tight to absorb the budget.
            scale = (2.0, 1.2, 0.6)[trial % 3]
            pmax = rng.uniform(0.0, 2.0 * scale, (Q, N))
            pmax[rng.random((Q, N)) < 0.3 * (trial % 2)] = UNBOUNDED
            game = NormalizedGame(gain2=gain2, pmax=pmax, Gamma=np.full(Q, 1.5))
            for q in range(Q):
                np.testing.assert_array_equal(usable_sets(game)[q], self.per_bin_mask(game, q))


class TestCouplingMatrices:
    def test_single_user_zero(self):
        ch = ratio_scenario(1, 2, seed=0, channel_order=1)
        game = build_game(ch)
        kept = usable_sets(game, "all")
        np.testing.assert_array_equal(coupling_stack(game, kept)[0], np.zeros((1, 1)))

    def test_symmetric_flat(self):
        game = flat_game(Q=2, coupling=0.3, N=2)
        kept = usable_sets(game, "all")
        np.testing.assert_allclose(
            coupling_stack(game, kept)[1], np.array([[0.0, 0.3], [0.3, 0.0]])
        )

    def test_max_is_entrywise_max(self):
        ch = ratio_scenario(3, 8, d_ratio=2.0, seed=6, channel_order=3)
        game = build_game(ch)
        kept = usable_sets(game)
        stack = coupling_stack(game, kept)
        ref = np.zeros((3, 3))
        for q in range(3):
            for r in range(3):
                ref[q, r] = max(stack[k][q, r] for k in range(8))
        np.testing.assert_allclose(stack.max(axis=0), ref)

    def test_kept_dead_bin_is_rejected(self):
        # A zero gain and a gain of 1e-320 (price 1e320) are dead bins: a kept
        # mask holding one used to raise NumericFailureError, or divide by it.
        gain2 = np.ones((2, 2, 3))
        gain2[0, 0, 1], gain2[1, 1, 2] = 0.0, 1e-320
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 3), UNBOUNDED), Gamma=np.ones(2))
        alive = usable_sets(game, "all")
        assert alive.tolist() == [[True, False, True], [True, True, False]]
        assert coupling_stack(game, alive)[0].tolist() == [[0.0, 1.0], [1.0, 0.0]]
        for q, k in ((0, 1), (1, 2)):
            kept = alive.copy()
            kept[q, k] = True
            with pytest.raises(InvalidInputError, match="dead bin"):
                coupling_stack(game, kept)

    def test_gap_scales_rows(self):
        base = flat_game(Q=2, coupling=0.3, N=1)
        gapped = NormalizedGame(gain2=base.gain2, pmax=base.pmax, Gamma=np.array([2.0, 1.0]))
        kept = usable_sets(gapped, "all")
        H = coupling_stack(gapped, kept)[0]
        np.testing.assert_allclose(H, [[0.0, 0.6], [0.3, 0.0]])


class TestCheckConditions:
    def test_flat_coupling_half(self):
        report = check_conditions(flat_game(Q=2, coupling=0.5, N=2))
        assert report["C1"].margin == pytest.approx(0.5, abs=1e-9)
        for name in CONDITION_NAMES:
            assert report.satisfied(name), name

    def test_flat_coupling_three_halves(self):
        report = check_conditions(flat_game(Q=2, coupling=1.5, N=2))
        assert not report.satisfied("C1")
        assert report["C1"].margin == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("coupling", [1.0 - 5e-10, 1.0 + 5e-10])
    def test_boundary_band_is_none(self, coupling):
        report = check_conditions(flat_game(Q=2, coupling=coupling, N=2))
        assert report["C1"].satisfied is None
        assert report["C2"].satisfied is None
        assert report["C1"].margin == pytest.approx(coupling, abs=1e-12)

    def test_c5_threshold_two_users(self):
        # With two users the pairwise threshold is 1/(Q-1) = 1.
        report = check_conditions(flat_game(Q=2, coupling=0.9, N=2))
        assert report["C5"].margin == pytest.approx(0.9, abs=1e-9)
        assert report.satisfied("C5")
        report2 = check_conditions(flat_game(Q=2, coupling=1.1, N=2))
        assert not report2.satisfied("C5")

    def test_c7_positive_definite(self):
        report = check_conditions(flat_game(Q=2, coupling=0.5, N=2))
        # Symmetric flat case: min eig of I + sym(H) = 1 - c.
        assert report["C7"].margin == pytest.approx(0.5, abs=1e-9)

    def test_nan_margin_is_an_error_verdict(self):
        # Bin 0 of user 0 is alive (its price 1e300 is finite), but its
        # coupling 1e10 / 1e-300 overflows to inf, and the C7 eigen-solve
        # returns NaN: that verdict used to read False, no error.  The
        # overflow is expected where it happens, so no warning escapes.
        g = np.ones((2, 2, 4))
        g[0, 0, 0], g[1, 0, 0] = 1e-300, 1e10
        game = NormalizedGame(gain2=g, pmax=np.full((2, 4), UNBOUNDED), Gamma=np.ones(2))
        report = check_conditions(game)
        c7 = report["C7"]
        assert c7.satisfied is None and np.isnan(c7.margin) and c7.error == "C7 margin is NaN"
        assert report["C1"].error is None and not report.satisfied("C7")
        assert verdict_codes([game, flat_game(Q=2, coupling=0.25, N=4)])[:, 6].tolist() == [3, 1]

    def test_single_user_all_pass(self):
        ch = ratio_scenario(1, 4, seed=1, channel_order=2)
        report = check_conditions(build_game(ch))
        for name in CONDITION_NAMES:
            assert report.satisfied(name)

    def test_report_serializes(self):
        import json

        report = check_conditions(flat_game(Q=2, coupling=0.5, N=2))
        payload = json.dumps(report.to_dict())
        assert "C1" in payload


class TestInvariants:
    def test_condition_lattice(self):
        # C5 => C3(unit weights) => C1 and C2 => C1 on random instances, and
        # the C1 verdict agrees with the power-iteration oracle.
        counter = 0
        for seed in range(120):
            ch = ratio_scenario(
                2 + seed % 3, 8, d_ratio=1.0 + (seed % 7), snr_db=float(seed % 21) - 10.0,
                seed=seed, channel_order=3,
            )
            game = build_game(ch)
            report = check_conditions(game)
            assert report["C1"].satisfied is oracle_c1_verdict(game), seed
            c1 = report.satisfied("C1")
            c2 = report.satisfied("C2")
            c5 = report.satisfied("C5")
            c3_unit = report["C3"].detail["unit_margin"] < 1.0 - 1e-9
            if c5:
                assert c3_unit, seed
            if c3_unit:
                assert c1, seed
            if c2:
                assert c1, seed
            counter += 1
        assert counter == 120

    def test_dominance_per_bin(self):
        ch = ratio_scenario(3, 16, d_ratio=2.0, seed=9, channel_order=4)
        game = build_game(ch)
        kept = usable_sets(game)
        stack = coupling_stack(game, kept)
        rho_max = oracle_spectral_radius(stack.max(axis=0))
        assert (spectral_radius(stack) <= rho_max + 1e-10).all()
        for k in range(16):
            assert oracle_spectral_radius(stack[k]) <= rho_max + 1e-10

    def test_pruning_monotonicity(self):
        # Shrinking the bin sets can only lower the per-bin radii.
        for seed in range(10):
            ch = ratio_scenario(3, 16, d_ratio=1.5, snr_db=-5.0, seed=seed, channel_order=4)
            game = build_game(ch)
            r_virtual = check_conditions(game, "virtual_interferer")
            r_all = check_conditions(game, "all")
            assert r_virtual["C1"].margin <= r_all["C1"].margin + 1e-10
            assert r_virtual["C2"].margin <= r_all["C2"].margin + 1e-10

    def test_perron_weights_positive(self, rng):
        for _ in range(20):
            M = rng.uniform(0, 1, (4, 4)) * (rng.uniform(0, 1, (4, 4)) < 0.5)
            w = perron_weights(M)
            assert (w > 0).all()


@st.composite
def games(draw):
    """Games with gains spanning twelve decades and some dead direct bins."""
    Q = draw(st.integers(2, 5))
    N = draw(st.integers(1, 16))
    log_gain = draw(arrays(np.float64, (Q, Q, N), elements=st.floats(-6.0, 6.0)))
    dead = draw(arrays(np.bool_, (Q, N), elements=st.booleans()))
    gain2 = 10.0 ** log_gain
    gain2[np.arange(Q), np.arange(Q)] *= ~dead
    Gamma = draw(arrays(np.float64, Q, elements=st.floats(1.0, 10.0)))
    return NormalizedGame(gain2=gain2, pmax=np.full((Q, N), UNBOUNDED), Gamma=Gamma)


class TestCertificateLatticeProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(game=games())
    def test_lattice_and_oracle_agreement(self, game):
        if not game.direct_gain2().any(axis=1).all():  # an uncapped user with no usable bin
            with pytest.raises(InfeasibleWaterfillError, match="no usable bin"):
                check_conditions(game)
            return
        report = check_conditions(game)
        c1 = report.satisfied("C1")
        if report.satisfied("C2"):
            assert c1
        if report.satisfied("C5"):
            assert report["C3"].detail["unit_margin"] < 1.0 - 1e-9
        if report["C3"].detail["unit_margin"] < 1.0 - 1e-9:
            assert c1
        oracle = oracle_c1_verdict(game)
        if oracle is not None:
            assert report["C1"].satisfied is oracle


def report_text(report) -> str:
    """Every verdict, margin, detail field and usable mask; floats as exact reprs."""
    import json

    return json.dumps(report.to_dict(), sort_keys=True)


def oracle_text(game, mode) -> str:
    try:
        return report_text(oracle_check_conditions(game, mode))
    except (InfeasibleWaterfillError, InvalidInputError, NumericFailureError) as err:
        return type(err).__name__


@st.composite
def edge_stacks(draw):
    """Up to four games sharing (Q, N), with the cases the stack must not blur.

    Zero direct gains on some bins, finite masks (some too tight to absorb
    the budget), Q = 1 and N = 1 all occur.
    """
    Q = draw(st.integers(1, 4))
    N = draw(st.integers(1, 12))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        gain2 = 10.0 ** draw(arrays(np.float64, (Q, Q, N), elements=st.floats(-4.0, 4.0)))
        dead = draw(arrays(np.bool_, (Q, N), elements=st.booleans()))
        gain2[np.arange(Q), np.arange(Q)] *= ~dead
        caps = draw(arrays(np.float64, (Q, N), elements=st.floats(0.0, 3.0)))
        uncapped = draw(arrays(np.bool_, (Q, N), elements=st.booleans()))
        pmax = np.where(uncapped, UNBOUNDED, caps)
        Gamma = draw(arrays(np.float64, Q, elements=st.floats(1.0, 4.0)))
        stack.append(NormalizedGame(gain2=gain2, pmax=pmax, Gamma=Gamma))
    return stack


class TestStackAgainstOracle:
    """The stacked verdict codes and each game's report agree with the per-game oracle."""

    def test_fig1_games(self):
        # 120 Fig. 1 trials x 4 distance ratios, built and certified the way
        # the Monte Carlo does it (8 trials to a stack) and, for the oracle,
        # one game per trial and ratio, built alone.  Both Dq modes on the
        # first 24 trials (three whole stacks), the rest in one.
        scen = dict(gamma=2.5, snr_db=-10.0, channel_order=6)
        for start in range(0, 120, 8):
            games = fig1_games(0, range(start, start + 8))
            modes = DQ_MODES if start < 24 else ("virtual_interferer",)
            for mode in modes:
                codes = verdict_codes(games, mode).tolist()
                for g, (game, game_codes) in enumerate(zip(games, codes)):
                    trial, r = start + g // 4, FIG1_RATIOS[g % 4]
                    alone = build_game(ratio_scenario(5, 64, seed=(0, trial), d_ratio=r, **scen))
                    oracle = oracle_check_conditions(alone, mode)
                    assert game_codes == report_codes(oracle), (trial, r, mode)
                    assert report_text(check_conditions(game, mode)) == report_text(oracle), (
                        trial, r, mode)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(stack=edge_stacks(), mode=st.sampled_from(DQ_MODES))
    def test_edge_games(self, stack, mode):
        for game in stack:
            expected = oracle_text(game, mode)
            if expected.startswith("{"):
                assert report_text(check_conditions(game, mode)) == expected
            else:  # bins that cannot be certified
                with pytest.raises((InfeasibleWaterfillError, InvalidInputError,
                                    NumericFailureError)) as err:
                    check_conditions(game, mode)
                assert type(err.value).__name__ == expected

    def test_rejects_empty_and_mixed_stacks(self):
        with pytest.raises(InvalidInputError):
            verdict_codes([])
        with pytest.raises(InvalidInputError):
            verdict_codes([flat_game(Q=2, N=2), flat_game(Q=2, N=3)])


@st.composite
def screen_stacks(draw):
    """Stacked (gain2, direct, pmax, Gamma) arrays for the usable-bin screen.

    Gains span twelve decades; a direct gain may be dead, tiny (1e-300) or
    subnormal (its price overflows to inf).  Caps are drawn partly from
    0, 1e-13, 1, 2 and inf, which makes supplies that tie with the target
    likely.
    """
    G, Q, N = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 10))
    gain2 = 10.0 ** draw(arrays(np.float64, (G, Q, Q, N), elements=st.floats(-6.0, 6.0)))
    kind = draw(arrays(np.int8, (G, Q, N), elements=st.integers(0, 5)))
    direct = np.select([kind == 3, kind == 4, kind == 5], [0.0, 1e-300, 1e-310],
                       gain2[:, range(Q), range(Q)])
    gain2[:, range(Q), range(Q)] = direct
    caps = draw(arrays(np.float64, (G, Q, N), elements=st.sampled_from(
        [0.0, 1e-13, 1.0, 2.0, UNBOUNDED]) | st.floats(0.0, 3.0)))
    pmax = caps if draw(st.booleans()) else np.full((G, Q, N), UNBOUNDED)
    Gamma = draw(arrays(np.float64, (G, Q), elements=st.floats(1.0, 4.0)))
    return gain2, direct, pmax, Gamma


class TestUsableScreen:
    """The supply screen in ``_usable`` equals the level-solve kernel it replaced, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(stack=screen_stacks(), mode=st.sampled_from(DQ_MODES),
           band=st.sampled_from([None, 1e-3, np.inf]))
    def test_equals_level_solve_oracle(self, stack, mode, band):
        # None keeps the screen's band; 1e-3 sends some rows, and inf every
        # row with a usable cap, to the level solve.
        with pytest.MonkeyPatch.context() as mp:
            if band is not None:
                mp.setattr(uniqueness, "_SCREEN_BAND", band)
            kept = uniqueness._usable(*stack, mode)
        assert kept.dtype == bool
        np.testing.assert_array_equal(kept, oracle_usable_stack(*stack, mode))

    def test_row_at_the_waterline_takes_the_level_solve(self, monkeypatch):
        # User 0's bins 0-2 are cheap and saturate at caps summing to N = 4, so
        # the supply of bin 3's row at its own price is N + 1e-12: inside the
        # band, where only the level solve can tell.  Every other row is
        # decided by the screen.
        gain2 = np.full((2, 2, 4), 1e-3)
        gain2[0, 0] = [10.0, 10.0, 10.0, 0.1]
        gain2[1, 1] = 1.0
        pmax = np.array([[2.0, 1.0, 1.0, 1.0], [UNBOUNDED] * 4])
        game = NormalizedGame(gain2=gain2, pmax=pmax, Gamma=np.ones(2))
        solved, level_solve = [], uniqueness.level_solve

        def counted(prices, *args):
            solved.append(len(prices))
            return level_solve(prices, *args)

        monkeypatch.setattr(uniqueness, "level_solve", counted)
        kept = usable_sets(game)
        assert solved == [1]
        np.testing.assert_array_equal(kept, oracle_usable_sets(game))
        assert not kept[0, 3] and kept[0, :3].all() and kept[1].all()


def report_codes(report) -> list:
    """A report's verdicts as verdict codes."""
    kinds = {True: "true", False: "false", None: "boundary"}
    return [VERDICT_KINDS.index("error" if report[name].error else kinds[report[name].satisfied])
            for name in CONDITION_NAMES]


@st.composite
def code_stacks(draw):
    """Up to four games sharing (Q, N) for the verdict codes.

    Gains span twelve decades with dead and subnormal direct gains, some
    games are capped, and some have their cross gains rescaled so that C1's
    radius with every bin kept is 1 -/+ 5e-10 (inside the boundary band) or
    1 -/+ 2e-9 (just outside it).
    """
    Q, N = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        gain2 = 10.0 ** draw(arrays(np.float64, (Q, Q, N), elements=st.floats(-6.0, 6.0)))
        kind = draw(arrays(np.int8, (Q, N), elements=st.integers(0, 9)))
        subnormal = (kind == 9) & (draw(st.integers(0, 3)) == 0)  # in about one game in four
        gain2[range(Q), range(Q)] = np.select([kind == 8, subnormal], [0.0, 1e-310],
                                              gain2[range(Q), range(Q)])
        caps = draw(arrays(np.float64, (Q, N), elements=st.floats(0.0, 3.0)))
        pmax = caps if draw(st.booleans()) else np.full((Q, N), UNBOUNDED)
        Gamma = draw(arrays(np.float64, Q, elements=st.floats(1.0, 4.0)))
        game = NormalizedGame(gain2=gain2, pmax=pmax, Gamma=Gamma)
        rho = draw(st.sampled_from([None, 1 - 5e-10, 1 + 5e-10, 1 - 2e-9, 1 + 2e-9]))
        if rho is not None and (kind < 8).all():
            now = spectral_radius(coupling_stack(game, np.ones((Q, N), dtype=bool))).max()
            if now > 0:
                cross = ~np.eye(Q, dtype=bool)
                gain2[cross] *= rho / now
                game = NormalizedGame(gain2=gain2, pmax=pmax, Gamma=Gamma)
        stack.append(game)
    return stack


@st.composite
def c7_stacks(draw):
    """Up to four games sharing (Q, N) whose C7 margin sits at the 1e-9 boundary band.

    Flat games have coupling 1 + k 2.5e-10, so the smallest eigenvalue of
    I + sym(H) is -k 2.5e-10, or (1 + k 2.5e-10) / (Q - 1), which puts the
    Gershgorin bound there instead; random games have their cross gains
    rescaled so that the eigenvalue lands at +-{0.5, 1, 1.5, 3}e-9.
    """
    Q, N = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            coupling = 1.0 + draw(st.integers(-8, 8)) * 2.5e-10
            stack.append(flat_game(Q=Q, coupling=coupling / draw(st.sampled_from([1, Q - 1])), N=N))
            continue
        gain2 = 10.0 ** draw(arrays(np.float64, (Q, Q, N), elements=st.floats(-2.0, 2.0)))
        Gamma = draw(arrays(np.float64, Q, elements=st.floats(1.0, 4.0)))
        game = NormalizedGame(gain2=gain2, pmax=np.full((Q, N), UNBOUNDED), Gamma=Gamma)
        target = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
        # I + a sym(H) has smallest eigenvalue 1 + a (margin - 1) when the cross gains scale by a.
        gain2[~np.eye(Q, dtype=bool)] *= (target * 1e-9 - 1.0) / (
            check_conditions(game)["C7"].margin - 1.0)
        stack.append(NormalizedGame(gain2=gain2, pmax=game.pmax, Gamma=Gamma))
    return stack


class TestC7Screen:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(stack=c7_stacks())
    def test_equals_exact_eigenvalues(self, stack):
        expected = [report_codes(check_conditions(game)) for game in stack]
        assert verdict_codes(stack).tolist() == expected

    def test_bounds_decide_without_eigen_solve(self, monkeypatch):
        # Q = 2 couplings 0.5 and 1.5, 2e-9 past 1 (an eigenvalue -2e-9, the
        # interlacing bound itself), and Q = 3 couplings 0.25 (Gershgorin:
        # >= 0.5) and 1.2 (interlacing: <= -0.2).
        games = [[flat_game(Q=2, coupling=c, N=3) for c in (0.5, 1.5, 1.0 + 2e-9)],
                 [flat_game(Q=3, coupling=c, N=3) for c in (0.25, 1.2)]]
        expected = [[report_codes(check_conditions(game))[6] for game in stack]
                    for stack in games]

        def no_solve(S):
            raise AssertionError("C7 eigen-solve on a bound-decided game")

        monkeypatch.setattr(uniqueness, "_eigmins", no_solve)
        assert [verdict_codes(stack)[:, 6].tolist() for stack in games] == expected
        assert expected == [[1, 0, 0], [1, 0]]


class TestVerdictCodes:
    @pytest.mark.parametrize("margin,above_zero,code", [
        (0.5, False, 1), (1.5, False, 0), (1.0 - 5e-10, False, 2), (1.0 + 9e-10, False, 2),
        (np.inf, False, 0), (np.nan, False, 3), (0.5, True, 1), (-0.5, True, 0),
        (5e-10, True, 2), (np.nan, True, 3), (-np.inf, True, 0)])
    def test_one_rule_for_codes_and_verdicts(self, margin, above_zero, code):
        assert uniqueness._codes(margin, above_zero) == code
        verdict = uniqueness._verdict("C", margin, {}, above_zero=above_zero)
        assert (verdict.error is not None) == (code == 3)
        assert verdict.satisfied is {0: False, 1: True}.get(code)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(stack=code_stacks(), mode=st.sampled_from(DQ_MODES))
    def test_equal_check_conditions_verdicts(self, stack, mode):
        expected, raised = [], set()
        for game in stack:
            try:
                expected.append(report_codes(check_conditions(game, mode)))
            except Exception as err:  # a subnormal direct gain can fail C5-C7's arrays
                raised.add(type(err))
        if raised:  # and a game that cannot be certified fails the stack
            with pytest.raises(tuple(raised)):
                verdict_codes(stack, mode)
            return
        codes = verdict_codes(stack, mode)
        assert codes.dtype == np.int8 and codes.shape == (len(stack), len(CONDITION_NAMES))
        assert codes.tolist() == expected

    def test_fig1_games_take_few_eigen_solves(self, monkeypatch):
        radii, eigmins = uniqueness._radii, uniqueness._eigmins
        c1_solves, c7_solves = [], []

        def counted_radii(H):
            if H.ndim == 4:  # C1's per-bin stack, one game at a time
                c1_solves.append(len(H))
            return radii(H)

        def counted_eigmins(S):
            c7_solves.append(len(S))  # C7's per-bin stacks of the games left open
            return eigmins(S)

        games_seen = 0
        for start in range(0, 25, 8):  # 25 trials x 4 ratios x 2 modes: 200 games
            games = fig1_games(3, range(start, min(start + 8, 25)))
            for mode in DQ_MODES:
                expected = [report_codes(check_conditions(game, mode)) for game in games]
                with monkeypatch.context() as mp:
                    mp.setattr(uniqueness, "_radii", counted_radii)
                    mp.setattr(uniqueness, "_eigmins", counted_eigmins)
                    assert verdict_codes(games, mode).tolist() == expected
                games_seen += len(games)
        assert set(c1_solves) == {1}
        assert 0 < len(c1_solves) < games_seen / 3
        assert 0 < sum(c7_solves) < games_seen / 10

    def test_eigen_failure_spares_bound_decided_games(self, monkeypatch):
        # Flat Q = 3 games.  Coupling 0.25 has rho 0.5, and its row sums show
        # that C1 holds; 0.75 has rho 1.5 inside its bounds 0.75..1.5; 1.2 has
        # rho 2.4, and its pair bound 1.2 shows that C1 fails.
        games = [flat_game(Q=3, coupling=c, N=4) for c in (0.25, 0.75, 1.2)]
        expected = verdict_codes(games)

        def failing(M):
            raise NumericFailureError("eigen-solve failed")

        monkeypatch.setattr(uniqueness, "spectral_radius", failing)
        codes = verdict_codes(games)
        assert expected[:, 0].tolist() == [1, 0, 0]
        assert codes[:, 0].tolist() == [1, 3, 0]
        assert (codes[:, 1] == 3).all()  # C2 always takes the eigen-solve
        np.testing.assert_array_equal(codes[:, 2:], expected[:, 2:])

    def test_eigen_failure_stays_with_its_game(self, monkeypatch):
        games = [flat_game(Q=3, coupling=0.25, N=4), flat_game(Q=3, coupling=0.75, N=4)]
        expected = verdict_codes(games)
        solve = uniqueness.spectral_radius

        def failing(M):
            if (np.asarray(M) == 0.75).any():
                raise NumericFailureError("eigen-solve failed")
            return solve(M)

        monkeypatch.setattr(uniqueness, "spectral_radius", failing)
        codes = verdict_codes(games)
        np.testing.assert_array_equal(codes[0], expected[0])
        assert codes[1, :2].tolist() == [3, 3]
        np.testing.assert_array_equal(codes[1, 2:], expected[1, 2:])

    def test_balanced_resolve_failure_is_an_error_verdict(self, monkeypatch):
        # Flat Q = 3 coupling 0.5 has radius 1.0 on every bin, so the bracket
        # cannot decide it and the balanced matrix is solved again; that
        # solve's LinAlgError used to escape both functions raw.
        edge, good = flat_game(Q=3, coupling=0.5, N=4), flat_game(Q=3, coupling=0.25, N=4)
        expected, expected_codes = check_conditions(edge).to_dict(), verdict_codes([edge, good])

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(uniqueness.np.linalg, "eigvals", failing)
        report = check_conditions(edge)
        for name in ("C1", "C2"):
            assert report[name].satisfied is None
            assert report[name].error == "eigen-solve failed: Eigenvalues did not converge"
        for name in CONDITION_NAMES[2:]:
            assert report[name].to_dict() == expected["conditions"][name]
        codes = verdict_codes([edge, good])
        assert codes[0, :2].tolist() == [3, 3]
        np.testing.assert_array_equal(codes[0, 2:], expected_codes[0, 2:])
        np.testing.assert_array_equal(codes[1], expected_codes[1])
