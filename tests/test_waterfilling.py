import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from level_oracle import oracle_level
from specnash import (
    InfeasibleWaterfillError,
    InvalidInputError,
    NormalizedGame,
    PowerProfile,
    UNBOUNDED,
    WaterfillInput,
    kkt_residual,
    water_level,
    waterfill,
)
from specnash.waterfilling import level_solve

INF = UNBOUNDED


def two_bin_oracle(g, i, Gamma, budget, N=2):
    """Closed-form two-bin waterfill with no caps.

    Both bins active: mu = (budget*N + a1 + a2)/2 with a_k = Gamma*i_k/g_k;
    if that drops a bin below zero, everything goes to the cheaper bin.
    """
    a = Gamma * np.asarray(i, float) / np.asarray(g, float)
    mu = (budget * N + a.sum()) / 2.0
    p = mu - a
    if p.min() < 0:
        k = int(a.argmin())
        p = np.zeros(2)
        p[k] = budget * N
        mu = a[k] + budget * N
    return p, mu


def random_inputs(rng, count, N=16, masked=False):
    out = []
    for _ in range(count):
        g = rng.exponential(1.0, N)
        i = 1.0 + rng.exponential(0.7, N)
        pmax = rng.uniform(0.3, 4.0, N) if masked else np.full(N, INF)
        out.append(WaterfillInput(g=g, i=i, Gamma=rng.uniform(1.0, 3.0), pmax=pmax))
    return out


class TestWaterfill:
    def test_flat_uniform(self):
        inp = WaterfillInput(g=[1, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        np.testing.assert_allclose(waterfill(inp), [1.0, 1.0])
        assert water_level(inp) == pytest.approx(2.0)

    def test_two_bin_closed_form(self):
        inp = WaterfillInput(g=[4, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        p_ref, mu_ref = two_bin_oracle([4, 1], [1, 1], 1.0, 1.0)
        np.testing.assert_allclose(waterfill(inp), p_ref)
        assert water_level(inp) == pytest.approx(mu_ref)
        assert mu_ref == pytest.approx(1.625)

    def test_trivial_mask_branch(self):
        inp = WaterfillInput(g=[1, 1], i=[1, 1], Gamma=1, pmax=[0.5, 0.5], budget=1)
        np.testing.assert_allclose(waterfill(inp), [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            water_level(inp)

    def test_mask_clipped_bin(self):
        # Piecewise-linear hand oracle: bin 1 saturates at 0.2, so
        # 0.2 + (mu - 1) = 2 gives mu = 2.8 and p = [0.2, 1.8].
        inp = WaterfillInput(g=[10, 1], i=[1, 1], Gamma=1, pmax=[0.2, INF], budget=1)
        np.testing.assert_allclose(waterfill(inp), [0.2, 1.8])
        assert water_level(inp) == pytest.approx(2.8)

    def test_zero_gain_bin_gets_nothing(self):
        inp = WaterfillInput(g=[1, 0, 1], i=[1, 1, 1], Gamma=1, pmax=[INF] * 3, budget=1)
        p = waterfill(inp)
        assert p[1] == 0.0
        assert p.mean() == pytest.approx(1.0, abs=1e-12)

    def test_all_dead_unbounded_infeasible(self):
        inp = WaterfillInput(g=[0, 0], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        with pytest.raises(InfeasibleWaterfillError):
            waterfill(inp)
        with pytest.raises(InfeasibleWaterfillError):
            water_level(inp)

    def test_usable_capacity_short_saturates(self):
        # Mask sum admits the budget but only through a dead bin.
        inp = WaterfillInput(g=[1, 0], i=[1, 1], Gamma=1, pmax=[1.0, 3.0], budget=1)
        np.testing.assert_allclose(waterfill(inp), [1.0, 0.0])
        with pytest.raises(InfeasibleWaterfillError):
            water_level(inp)

    def test_sort_vs_bisect(self, rng):
        for inp in random_inputs(rng, 40, masked=True):
            prices = inp.Gamma * inp.i / inp.g
            ref = oracle_level(prices, inp.pmax, inp.budget * inp.N)
            assert water_level(inp) == pytest.approx(ref, abs=1e-9)

    def test_budget_tolerance(self, rng):
        for inp in random_inputs(rng, 200) + random_inputs(rng, 200, masked=True):
            p = waterfill(inp)
            assert abs(p.mean() - inp.budget) <= 1e-12
            assert (p >= 0).all() and (p <= inp.pmax).all()

    def test_monotone_in_interference(self, rng):
        # Raising i on one bin never increases that bin's allocation.
        for inp in random_inputs(rng, 50):
            p = waterfill(inp)
            k = int(rng.integers(inp.N))
            i2 = inp.i.copy()
            i2[k] *= 1.5
            p2 = waterfill(WaterfillInput(g=inp.g, i=i2, Gamma=inp.Gamma, pmax=inp.pmax))
            assert p2[k] <= p[k] + 1e-12

    def test_equal_marginal_property(self, rng):
        for inp in random_inputs(rng, 50, masked=True):
            p = waterfill(inp)
            mu = water_level(inp)
            interior = (p > 1e-12) & (p < inp.pmax - 1e-12)
            if interior.any():
                level = inp.Gamma * inp.i[interior] / inp.g[interior] + p[interior]
                assert np.abs(level - mu).max() <= 1e-9

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WaterfillInput(g=[-1, 1], i=[1, 1], Gamma=1, pmax=[INF, INF])
        with pytest.raises(InvalidInputError):
            WaterfillInput(g=[1, 1], i=[0.5, 1], Gamma=1, pmax=[INF, INF])
        with pytest.raises(InvalidInputError):
            WaterfillInput(g=[1, 1], i=[1, 1], Gamma=0.5, pmax=[INF, INF])
        with pytest.raises(InvalidInputError):
            WaterfillInput(g=[1, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=0.0)


@st.composite
def level_problems(draw):
    """Batched level solves: prices may be +inf (never enter), caps +inf
    (never saturate) or too small for the target."""
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    N = draw(st.integers(1, 12))
    prices = draw(arrays(np.float64, batch + (N,), elements=st.one_of(
        st.floats(-1e3, 1e3), st.just(INF))))
    caps = draw(arrays(np.float64, batch + (N,), elements=st.one_of(
        st.floats(0.0, 5.0), st.just(INF))))
    if draw(st.booleans()):
        target = draw(st.floats(0.05, 1.5)) * N
    else:
        target = draw(arrays(np.float64, batch, elements=st.floats(0.05, 1.5))) * N
    return prices, caps, target


class TestLevelSolve:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=level_problems())
    def test_matches_bisection_oracle(self, problem):
        prices, caps, target = problem
        rows_p = prices.reshape(-1, prices.shape[-1])
        rows_c = caps.reshape(rows_p.shape)
        rows_t = np.broadcast_to(target, prices.shape[:-1]).reshape(-1)
        refs, ties = [], []
        for pr, cp, t in zip(rows_p, rows_c, rows_t):
            try:
                refs.append(oracle_level(pr, cp, t))
            except InfeasibleWaterfillError:
                refs.append(None)
            # A capacity that meets the target to rounding may go either way.
            ties.append(abs(cp[np.isfinite(pr)].sum() - t) <= 1e-12 * t)
        if any(ref is None and not tie for ref, tie in zip(refs, ties)):
            with pytest.raises(InfeasibleWaterfillError):
                level_solve(prices, caps, target)
            return
        try:
            mu = np.reshape(level_solve(prices, caps, target), -1)
        except InfeasibleWaterfillError:
            assert any(ties)
            return
        for m, (pr, cp, t) in enumerate(zip(rows_p, rows_c, rows_t)):
            scale = max(1.0, abs(mu[m]))
            x = np.clip(mu[m] - pr, 0.0, cp)
            assert abs(x.sum() - t) <= 1e-9 * scale
            if refs[m] is not None:
                # The level can be non-unique where supply is flat; the
                # allocation it induces cannot.
                assert np.abs(x - np.clip(refs[m] - pr, 0.0, cp)).max() <= 1e-9 * scale
            # Each batched row is bit-equal to the same row solved alone.
            assert np.float64(level_solve(pr, cp, t)).tobytes() == mu[m].tobytes()

    def test_all_prices_infinite_raises(self):
        for caps in ([1.0, 2.0], [INF, INF]):
            with pytest.raises(InfeasibleWaterfillError):
                level_solve(np.full(2, INF), np.array(caps), 1.0)

    def test_dead_bin_matches_subset(self):
        # An infinite price gives bit-for-bit the level of the live bins alone.
        prices = np.array([0.5, INF, 1.25, 0.1, INF])
        caps = np.array([1.0, 2.0, INF, 0.7, 0.3])
        live = np.isfinite(prices)
        for target in (0.4, 1.3, 3.0):
            ref = level_solve(prices[live], caps[live], target)
            assert level_solve(prices, caps, target) == ref
        ref = level_solve(prices[live], np.full(3, INF), 2.0)
        assert level_solve(prices, np.full(5, INF), 2.0) == ref


class TestKktResidual:
    def test_optimum_is_stationary(self, rng):
        for inp in random_inputs(rng, 100) + random_inputs(rng, 100, masked=True):
            assert kkt_residual(waterfill(inp), inp) <= 1e-9

    def test_uniform_is_not(self):
        inp = WaterfillInput(g=[4, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        assert kkt_residual(np.array([1.0, 1.0]), inp) > 0.1

    def test_mask_violation_rejected(self):
        inp = WaterfillInput(g=[4, 1], i=[1, 1], Gamma=1, pmax=[0.5, INF], budget=1)
        with pytest.raises(InvalidInputError):
            kkt_residual(np.array([0.8, 1.2]), inp)

    def test_budget_violation_rejected(self):
        inp = WaterfillInput(g=[4, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        with pytest.raises(InvalidInputError):
            kkt_residual(np.array([1.5, 1.5]), inp)

    def test_trivial_branch_residual(self):
        inp = WaterfillInput(g=[1, 1], i=[1, 1], Gamma=1, pmax=[0.4, 0.4], budget=1)
        assert kkt_residual(np.array([0.4, 0.4]), inp) == 0.0
        assert kkt_residual(np.array([0.1, 0.4]), inp) == pytest.approx(0.3)

    def test_budget_slack_detected(self):
        inp = WaterfillInput(g=[4, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        p = waterfill(inp) * 0.9
        assert kkt_residual(p, inp) > 0.05


class TestPowerProfile:
    def test_feasibility(self):
        game = NormalizedGame(
            gain2=np.ones((2, 2, 2)), pmax=np.full((2, 2), 1.5), Gamma=np.ones(2)
        )
        assert PowerProfile(np.ones((2, 2))).is_feasible(game)
        assert not PowerProfile(np.full((2, 2), 1.6)).is_feasible(game)
        assert not PowerProfile(-np.ones((2, 2))).is_feasible(game)
        assert not PowerProfile(np.ones((2, 3))).is_feasible(game)

    def test_budget_used(self):
        prof = PowerProfile(np.array([[1.0, 0.5], [0.0, 0.0]]))
        np.testing.assert_allclose(prof.budget_used(), [0.75, 0.0])
