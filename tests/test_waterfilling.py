import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from equilibrium_oracle import oracle_waterfill
from level_oracle import oracle_level
from specnash import (
    InfeasibleWaterfillError,
    InvalidInputError,
    NormalizedGame,
    NumericFailureError,
    PowerProfile,
    UNBOUNDED,
    WaterfillInput,
    kkt_residual,
    waterfill,
)
from specnash.waterfilling import level_solve, waterfill_rows

INF = UNBOUNDED


def level_of(inp):
    """Water level of one input: NaN on the trivial and saturation branches."""
    return waterfill_rows(inp.g, inp.i, inp.Gamma, inp.pmax, inp.budget)[1]


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
        assert level_of(inp) == pytest.approx(2.0)

    def test_two_bin_closed_form(self):
        inp = WaterfillInput(g=[4, 1], i=[1, 1], Gamma=1, pmax=[INF, INF], budget=1)
        p_ref, mu_ref = two_bin_oracle([4, 1], [1, 1], 1.0, 1.0)
        np.testing.assert_allclose(waterfill(inp), p_ref)
        assert level_of(inp) == pytest.approx(mu_ref)
        assert mu_ref == pytest.approx(1.625)

    def test_trivial_mask_branch(self):
        inp = WaterfillInput(g=[1, 1], i=[1, 1], Gamma=1, pmax=[0.5, 0.5], budget=1)
        np.testing.assert_allclose(waterfill(inp), [0.5, 0.5])
        assert np.isnan(level_of(inp))

    def test_mask_clipped_bin(self):
        # Piecewise-linear hand oracle: bin 1 saturates at 0.2, so
        # 0.2 + (mu - 1) = 2 gives mu = 2.8 and p = [0.2, 1.8].
        inp = WaterfillInput(g=[10, 1], i=[1, 1], Gamma=1, pmax=[0.2, INF], budget=1)
        np.testing.assert_allclose(waterfill(inp), [0.2, 1.8])
        assert level_of(inp) == pytest.approx(2.8)

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
            level_of(inp)

    def test_usable_capacity_short_saturates(self):
        # Mask sum admits the budget but only through a dead bin.
        inp = WaterfillInput(g=[1, 0], i=[1, 1], Gamma=1, pmax=[1.0, 3.0], budget=1)
        np.testing.assert_allclose(waterfill(inp), [1.0, 0.0])
        assert np.isnan(level_of(inp))

    def test_sort_vs_bisect(self, rng):
        for inp in random_inputs(rng, 40, masked=True):
            prices = inp.Gamma * inp.i / inp.g
            ref = oracle_level(prices, inp.pmax, inp.budget * inp.N)
            assert level_of(inp) == pytest.approx(ref, abs=1e-9)

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
            mu = level_of(inp)
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


def tie_input(seed, N, k, dead_frac):
    """Waterfill operands whose caps total N*(1 + k*2.2e-16), near the budget N.

    Gains span six decades; a ``dead_frac`` share of the bins (never all)
    has zero gain.
    """
    rng = np.random.default_rng(seed)
    g = 10.0 ** rng.uniform(-3.0, 3.0, N)
    dead = rng.uniform(size=N) < dead_frac
    dead[rng.integers(N)] = False
    g[dead] = 0.0
    caps = rng.uniform(0.05, 1.0, N)
    caps *= N * (1.0 + k * 2.2e-16) / caps.sum()
    return WaterfillInput(g=g, i=1.0 + rng.exponential(0.7, N), Gamma=rng.uniform(1.0, 3.0),
                          pmax=caps)


class TestCapacityRule:
    """Caps absorb the budget exactly when they sum to at least it."""

    def test_cap_vector_one_ulp_short(self):
        inp = WaterfillInput(g=[1, 1], i=[1, 1], Gamma=1, pmax=[1, 1 - 4e-16])
        p = waterfill(inp)
        assert p.tobytes() == inp.pmax.tobytes()
        assert kkt_residual(p, inp) == 0.0
        assert np.isnan(level_of(inp))

    def test_caps_equal_to_budget(self):
        inp = WaterfillInput(g=[3, 1, 0.2], i=[1, 2, 1], Gamma=1, pmax=[1, 1, 1])
        p = waterfill(inp)
        np.testing.assert_allclose(p, 1.0, rtol=0, atol=1e-15)
        assert kkt_residual(p, inp) <= 1e-12
        assert np.isfinite(level_of(inp))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 64), k=st.integers(-4, 8),
           dead_frac=st.sampled_from([0.0, 0.0, 0.2, 0.5]))
    def test_near_tie_caps_never_raise(self, seed, N, k, dead_frac):
        inp = tie_input(seed, N, k, dead_frac)
        p = waterfill(inp)
        assert kkt_residual(p, inp) <= 1e-9


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


LEVEL_ROW_KINDS = ("uncapped", "capped", "short", "dead")


@st.composite
def mixed_level_stacks(draw):
    """Level-solve stacks whose rows are uncapped, capped with room to spare,
    short (enterable caps at most 90% of the target) or dead (no finite
    price), with some +inf prices in every row that can enter."""
    M, N = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    kinds = draw(st.lists(st.sampled_from(LEVEL_ROW_KINDS), min_size=M, max_size=M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prices = rng.uniform(-5.0, 5.0, (M, N))
    prices[rng.random((M, N)) < 0.3] = INF
    prices[np.arange(M), rng.integers(N, size=M)] = rng.uniform(-5.0, 5.0, M)
    caps = rng.uniform(0.0, 2.0, (M, N))
    target = rng.uniform(0.05, 1.5, M) * N
    for m, kind in enumerate(kinds):
        live = prices[m] < INF
        if kind == "uncapped":
            caps[m] = INF
        elif kind == "capped":
            caps[m, rng.choice(np.nonzero(live)[0])] = 1.1 * target[m] + 1.0
        elif kind == "short":
            caps[m] *= 0.9 * target[m] / caps[m, live].sum()
        else:
            prices[m] = INF
            caps[m, rng.random(N) < 0.5] = INF
    return prices, caps, target, kinds


ROW_KINDS = ("uncapped", "capped", "short", "dead", "saturate", "polish")


def kernel_row(rng, kind: str, N: int):
    """One (g, i, Gamma, pmax) row aimed at one waterfill branch."""
    g = 10.0 ** rng.uniform(-2.0, 3.0, N)
    i = 1.0 + rng.exponential(1.0, N)
    pmax = rng.uniform(0.3, 3.0, N)
    pmax[rng.integers(N)] = N  # the caps absorb the budget
    if kind == "uncapped":
        pmax = np.full(N, INF)
    elif kind == "short":
        pmax = 0.999 * rng.uniform(0.0, 1.0, N)  # all caps short: the cap vector
    elif kind == "dead" and N > 1:
        g[rng.random(N) < 0.4] = 0.0
        g[rng.integers(N)] = 1.0
        pmax[rng.random(N) < 0.5] = INF
        pmax[g == 0.0] = N  # the live caps alone may fall short
    elif kind == "saturate" and N > 1:
        dead = rng.random(N) < 0.5
        dead[0], dead[-1] = True, False
        g[dead] = 0.0
        pmax = np.where(dead, N, 0.999 * rng.uniform(0.0, 1.0, N))
    elif kind == "polish":
        g = 10.0 ** rng.uniform(-9.0, -6.0, N)  # levels near 1e9 drift in the last bits
    return g, i, rng.uniform(1.0, 3.0), pmax


@st.composite
def kernel_batches(draw):
    Q, N = draw(st.integers(1, 6)), draw(st.integers(1, 64))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=Q, max_size=Q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [kernel_row(rng, kind, N) for kind in kinds]
    return tuple(np.array([row[j] for row in rows]) for j in range(4))


class TestWaterfillRows:
    """The batched kernel against per-row ``waterfill`` and the NaN-level oracle."""

    def test_bit_equal_to_per_row_waterfill(self):
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(batch=kernel_batches())
        def check(batch):
            g, i, Gamma, pmax = batch
            p, mu = waterfill_rows(g, i, Gamma, pmax)
            assert p.shape == g.shape and mu.shape == Gamma.shape
            for r in range(g.shape[0]):
                ref, ref_mu, branch = oracle_waterfill(g[r], i[r], Gamma[r], pmax[r])
                one = waterfill(WaterfillInput(g=g[r], i=i[r], Gamma=Gamma[r], pmax=pmax[r]))
                assert p[r].tobytes() == ref.tobytes() == one.tobytes()
                if ref_mu is None:
                    assert np.isnan(mu[r])
                else:
                    assert mu[r] == ref_mu
                    seen.add("capped" if np.isfinite(pmax[r]).any() else "uncapped")
                    if not g[r].all():
                        seen.add("dead")
                seen.add(branch)

        check()
        assert seen == {"level", "polish", "trivial", "saturate", "capped", "uncapped", "dead"}

    def test_leading_axes_and_1d(self, rng):
        rows = [kernel_row(rng, kind, 9) for kind in ROW_KINDS]
        g, i, Gamma, pmax = (np.array([row[j] for row in rows]) for j in range(4))
        p, mu = waterfill_rows(g, i, Gamma, pmax)
        p3, mu3 = waterfill_rows(*(a.reshape((2, 3) + a.shape[1:]) for a in (g, i, Gamma, pmax)))
        assert p3.reshape(p.shape).tobytes() == p.tobytes()
        assert mu3.reshape(mu.shape).tobytes() == mu.tobytes()
        for r in range(len(rows)):
            p1, mu1 = waterfill_rows(g[r], i[r], Gamma[r], pmax[r])
            assert isinstance(mu1, float) and p1.tobytes() == p[r].tobytes()
            assert np.float64(mu1).tobytes() == mu[r].tobytes()
        # Plain sequences are taken as arrays, as WaterfillInput takes them.
        p1, mu1 = waterfill_rows([1.0, 2.0], [1, 1], 1, [INF, INF])
        assert p1.tolist() == [0.75, 1.25] and mu1 == 1.75

    def test_subnormal_gain_is_a_dead_bin(self):
        # The price of a subnormal gain overflows to inf: the bin is dead
        # like a zero-gain bin, with no RuntimeWarning.  It used to count as
        # usable, so a saturated row filled it with its infinite cap.
        g, ones = np.array([1e-320, 2.0]), np.ones(2)
        p, mu = waterfill_rows(g, ones, 1.0, np.full(2, INF))
        assert p.tolist() == [0.0, 2.0] and mu == 2.5
        inp = WaterfillInput(g=g, i=ones, Gamma=1.0, pmax=[INF, INF])
        assert kkt_residual(p, inp) == 0.0
        assert kkt_residual(np.array([0.5, 1.5]), inp) == 0.5
        # Saturated: the live bin takes its cap, the dead one nothing.
        capped = WaterfillInput(g=g, i=ones, Gamma=1.0, pmax=[INF, 1.0])
        assert waterfill(capped).tolist() == [0.0, 1.0]
        with pytest.raises(InfeasibleWaterfillError, match="no usable bin"):
            waterfill_rows(np.full(2, 1e-320), ones, 1.0, np.full(2, INF))

    def test_all_dead_row_raises(self):
        g = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(InfeasibleWaterfillError, match="zero"):
            waterfill_rows(g, np.ones((2, 2)), np.ones(2), np.full((2, 2), INF))
        # Caps short of the budget pin even an all-dead row to them.
        p, mu = waterfill_rows(g, np.ones((2, 2)), np.ones(2), np.full((2, 2), 0.5))
        assert p.tolist() == [[0.5, 0.5], [0.5, 0.5]] and np.isnan(mu).all()


    @pytest.mark.parametrize("gain", [1e-17, 1e-15])
    def test_level_lost_to_rounding_raises(self, gain):
        # Prices of 1e17 put the level's rounding step (16) above the budget
        # of a 64-bin row: no allocation meets it, and an all-zero one used
        # to come back with no error.  At 1e15 the row is still exact.
        inp = WaterfillInput(g=np.full(64, gain), i=np.ones(64), Gamma=1.0, pmax=np.full(64, INF))
        if gain < 1e-16:
            with pytest.raises(NumericFailureError, match="budget"):
                waterfill(inp)
            rows = [np.stack([np.full(64, gain), np.ones(64)]), np.ones((2, 64)), np.ones(2),
                    np.full((2, 64), INF)]
            with pytest.raises(NumericFailureError, match="budget"):
                waterfill_rows(*rows)
        else:
            assert waterfill(inp).tolist() == [1.0] * 64


class TestLevelSolve:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=level_problems())
    def test_matches_bisection_oracle(self, problem):
        prices, caps, target = problem
        rows_p = prices.reshape(-1, prices.shape[-1])
        rows_c = caps.reshape(rows_p.shape)
        rows_t = np.broadcast_to(target, prices.shape[:-1]).reshape(-1)
        refs, short = [], []
        for pr, cp, t in zip(rows_p, rows_c, rows_t):
            try:
                refs.append(oracle_level(pr, cp, t))
            except InfeasibleWaterfillError:
                refs.append(None)
            # The capacity rule: the caps of the bins that can enter sum to
            # less than the target, with no tolerance.  The oracle sums the
            # same caps in another order, so at a rounding tie it may
            # disagree; it is then skipped below.
            short.append(np.where(np.isfinite(pr), cp, 0.0).sum() < t)
        mu = np.reshape(level_solve(prices, caps, target), -1)
        for m, (pr, cp, t) in enumerate(zip(rows_p, rows_c, rows_t)):
            # Each batched row is bit-equal to the same row solved alone.
            assert np.float64(level_solve(pr, cp, t)).tobytes() == mu[m].tobytes()
            if short[m]:
                assert np.isnan(mu[m])
                continue
            scale = max(1.0, abs(mu[m]))
            x = np.clip(mu[m] - pr, 0.0, cp)
            assert abs(x.sum() - t) <= 1e-9 * scale
            if refs[m] is not None:
                # The level can be non-unique where supply is flat; the
                # allocation it induces cannot.
                assert np.abs(x - np.clip(refs[m] - pr, 0.0, cp)).max() <= 1e-9 * scale

    def test_all_prices_infinite_is_nan(self):
        for caps in ([1.0, 2.0], [INF, INF]):
            assert np.isnan(level_solve(np.full(2, INF), np.array(caps), 1.0))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(stack=mixed_level_stacks())
    def test_short_rows_are_nan_and_leave_the_rest(self, stack):
        prices, caps, target, kinds = stack
        mu = level_solve(prices, caps, target)
        short = np.where(prices < INF, caps, 0.0).sum(-1) < target
        assert (np.isnan(mu) == short).all()
        assert short.tolist() == [kind in ("short", "dead") for kind in kinds]
        for pr, cp, t, m in zip(prices, caps, target, mu):
            assert np.float64(level_solve(pr, cp, t)).tobytes() == m.tobytes()

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
