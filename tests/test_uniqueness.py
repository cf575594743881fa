import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import specnash.uniqueness as uniqueness
from conftest import flat_game
from perron_oracle import oracle_spectral_radius
from specnash import InvalidInputError, UNBOUNDED, build_game, ratio_scenario
from specnash.channel import NormalizedGame
from specnash.uniqueness import (
    CONDITION_NAMES,
    check_conditions,
    coupling_stack,
    is_K,
    is_P,
    is_Z,
    perron_weights,
    spectral_radius,
    usable_carriers,
    usable_sets,
)


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
        balance = uniqueness.matrix_balance
        monkeypatch.setattr(uniqueness, "matrix_balance",
                            lambda A: calls.append(A) or balance(A))
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
        np.testing.assert_array_equal(usable_carriers(game, 0, "all"), np.ones(4, bool))

    def test_single_user_keeps_alive_bins(self):
        gain2 = np.array([[[1.0, 0.0, 2.0]]])
        game = NormalizedGame(gain2=gain2, pmax=np.full((1, 3), UNBOUNDED), Gamma=np.ones(1))
        np.testing.assert_array_equal(
            usable_carriers(game, 0, "virtual_interferer"), [True, False, True]
        )

    def test_zero_gain_excluded_in_virtual_mode(self):
        gain2 = np.zeros((2, 2, 3))
        gain2[0, 0] = [1.0, 0.0, 1.0]
        gain2[1, 1] = [1.0, 1.0, 1.0]
        gain2[0, 1] = gain2[1, 0] = np.full(3, 0.1)
        game = NormalizedGame(gain2=gain2, pmax=np.full((2, 3), UNBOUNDED), Gamma=np.ones(2))
        kept = usable_carriers(game, 0, "virtual_interferer")
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
            usable_carriers(game, 0, "psychic")

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
                    kept = usable_carriers(game, q)
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
                np.testing.assert_array_equal(usable_carriers(game, q), self.per_bin_mask(game, q))


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
