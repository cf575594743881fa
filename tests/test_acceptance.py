"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, not configured.
"""

import time

import numpy as np

from conftest import random_c1_game
from matrix_classes import is_K
from ne_oracle import brute_force_ne
from specnash import (
    ChannelSet,
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
    orthogonal_profile,
    solve,
)
from specnash.errors import InvalidInputError
from specnash.experiments import (
    run_psd,
    run_rate_region,
    run_uniqueness_mc,
    run_verify_theorem1,
)
from specnash.matrix_oracle import verify_diagonal_optimality
from specnash.pareto import (
    minmax_bound,
    project_all,
    random_feasible_profile,
    rate_array,
    rate_gradient,
    sample_rate_region,
    solve_modified_game,
    solve_scalarized,
)
from specnash.uniqueness import check_conditions, spectral_radius


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {label} {detail}".rstrip(), flush=True)
    assert ok, f"criterion {num}: {label} {detail}"


def mild_reference_scenario(Q=3, N=64, snr_db=15.0, d_ratio=12.0, order=3, decay=0.45):
    """Deterministic mildly selective scenario (exponential delay profile)."""
    pdp = np.exp(-np.arange(order + 1) / decay)
    pdp /= pdp.sum()
    taps = np.zeros((Q, Q, order + 1), dtype=complex)
    for r in range(Q):
        for q in range(Q):
            phase = 2.0 * np.pi * (3 * r + q + 1) * np.arange(order + 1) / 7.0
            taps[r, q] = np.sqrt(pdp) * np.exp(1j * phase)
    d = np.full((Q, Q), float(d_ratio))
    np.fill_diagonal(d, 1.0)
    snr = 10.0 ** (snr_db / 10.0)
    return ChannelSet(
        taps=taps, d=d, gamma=2.5, P=np.full(Q, snr), sigma2=np.ones(Q),
        pmax_bar=np.full((Q, N), UNBOUNDED), Gamma=np.ones(Q), N=N,
    )


def test_criterion_01_waterfilling_correctness():
    rng = np.random.default_rng(2024)
    inputs = []
    for j in range(1000):
        g = rng.exponential(1.0, 64)
        i = 1.0 + rng.exponential(0.7, 64)
        pmax = rng.uniform(0.3, 4.0, 64) if j % 2 else np.full(64, UNBOUNDED)
        inputs.append(WaterfillInput(g=g, i=i, Gamma=rng.uniform(1.0, 3.0), pmax=pmax))
    for inp in inputs[:50]:  # warm the interpreter and allocator
        waterfill(inp)
    import gc

    # CPU time of this process: immune to scheduler noise from neighbors
    # on shared machines; equals wall time on an otherwise idle laptop.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        cpu_ms = np.inf
        wall_ms = np.inf
        for _ in range(3):  # best of three shields against cache effects
            w0 = time.perf_counter()
            c0 = time.process_time()
            outputs = [waterfill(inp) for inp in inputs]
            cpu_ms = min(cpu_ms, (time.process_time() - c0) * 1e3)
            wall_ms = min(wall_ms, (time.perf_counter() - w0) * 1e3)
    finally:
        if gc_was_enabled:
            gc.enable()

    feasible = all(
        (p >= 0.0).all() and (p <= inp.pmax).all() for p, inp in zip(outputs, inputs)
    )
    budget_err = max(abs(p.mean() - inp.budget) for p, inp in zip(outputs, inputs))
    kkt = max(kkt_residual(p, inp) for p, inp in zip(outputs, inputs))
    ok = feasible and budget_err <= 1e-12 and kkt <= 1e-9 and cpu_ms < 50.0
    verdict(1, "waterfilling correctness",
            ok, f"(budget {budget_err:.1e}, kkt {kkt:.1e}, {cpu_ms:.1f} ms cpu, "
                f"{wall_ms:.1f} ms wall)")


def test_criterion_02_ne_oracle_equivalence():
    worst_cell, worst_spread = 0.0, 0.0
    for seed in range(20):
        game, _, _ = random_c1_game(seed=100 + seed)
        ref = solve(game, "sequential", tol=1e-11)
        sim = solve(game, "simultaneous", tol=1e-11)
        assert ref.converged and sim.converged
        spread = float(np.abs(ref.profile.p - sim.profile.p).max())
        for s in range(20):
            init = random_feasible_profile(game, np.random.default_rng(s))
            other = solve(game, "sequential", init=init, tol=1e-11)
            spread = max(spread, float(np.abs(other.profile.p - ref.profile.p).max()))
        worst_spread = max(worst_spread, spread)

        bf = brute_force_ne(game, grid=200)
        assert len(bf.clusters) == 1, f"seed {seed}: {len(bf.clusters)} clusters"
        cell = max(float(np.abs(np.diff(g, axis=0)).max()) for g in bf.grids)
        dist = min(
            float(np.abs(bf.profiles[i] - ref.profile.p).max()) for i in bf.clusters[0]
        )
        worst_cell = max(worst_cell, dist / cell)
    ok = worst_cell <= 1.0 + 1e-6 and worst_spread <= 1e-6
    verdict(2, "equilibrium matches brute-force oracle",
            ok, f"(worst distance {worst_cell:.2f} cells, spread {worst_spread:.1e})")


def test_criterion_03_condition_battery():
    implications_ok = True
    counts = {"C1": 0, "C5": 0, "C2": 0, "nC1": 0}
    rng = np.random.default_rng(7)
    for n in range(500):
        Q = int(rng.integers(2, 5))
        ch = ratio_scenario(
            Q, 8,
            d_ratio=float(10.0 ** rng.uniform(np.log10(0.4), np.log10(20.0))),
            snr_db=float(rng.uniform(-10.0, 10.0)),
            seed=(900, n),
            channel_order=3,
        )
        report = check_conditions(build_game(ch))
        c1 = report.satisfied("C1")
        c2 = report.satisfied("C2")
        c5 = report.satisfied("C5")
        c3_unit = report["C3"].detail["unit_margin"] < 1.0 - 1e-9
        if c5 and not c3_unit:
            implications_ok = False
        if c3_unit and not c1:
            implications_ok = False
        if c2 and not c1:
            implications_ok = False
        counts["C1"] += c1
        counts["C2"] += c2
        counts["C5"] += c5
        counts["nC1"] += not c1
    diverse = counts["C5"] >= 10 and counts["C1"] >= 50 and counts["nC1"] >= 50

    lemma_ok = True
    checked = 0
    rng = np.random.default_rng(11)
    while checked < 200:
        n = int(rng.integers(1, 7))
        H = rng.uniform(0.0, 1.0, (n, n)) * rng.uniform(0.2, 1.7)
        rho = spectral_radius(H)
        if abs(rho - 1.0) <= 1e-6:
            continue
        if (rho < 1.0) != is_K(np.eye(n) - H):
            lemma_ok = False
        checked += 1
    ok = implications_ok and lemma_ok and diverse
    verdict(3, "uniqueness-condition battery", ok, f"(counts {counts})")


def test_criterion_04_figure1_reproduction(tmp_path):
    cfg = {
        "kind": "uniqueness_mc",
        "seed": 17,
        "trials": 500,
        "scenario": {"Q": 5, "N": 64, "gamma": 2.5, "snr_db": -10.0, "Gamma": 1.0,
                     "channel_order": 6},
        "d_ratio_sweep": [1.0, 2.0, 4.0, 8.0],
        "Dq_modes": ["virtual_interferer"],
    }
    t0 = time.perf_counter()
    summary = run_uniqueness_mc(cfg, str(tmp_path / "fig1.csv"))
    elapsed = time.perf_counter() - t0

    probs = summary["probs"]
    trials = summary["trials"]
    sigma = np.sqrt(0.25 / trials)
    p_c1_2 = probs[(2.0, "virtual_interferer", "C1")]
    p_c5_2 = probs[(2.0, "virtual_interferer", "C5")]
    ordering = all(
        probs[(r, "virtual_interferer", "C1")]
        >= probs[(r, "virtual_interferer", "C7")] - 2 * sigma
        and probs[(r, "virtual_interferer", "C7")]
        >= probs[(r, "virtual_interferer", "C5")] - 2 * sigma
        for r in summary["ratios"]
    )
    ok = p_c1_2 >= 0.9 and p_c5_2 <= 0.05 and ordering and elapsed <= 300.0
    verdict(4, "distance-threshold Monte Carlo",
            ok, f"(P(C1)={p_c1_2:.3f}, P(C5)={p_c5_2:.3f}, {elapsed:.0f} s)")


def test_criterion_05_diagonal_optimality():
    violations = 0
    worst = -np.inf
    for inst in range(10):
        ch = ratio_scenario(2, 4, d_ratio=1.5, snr_db=8.0, seed=(500, inst),
                            channel_order=2)
        q = inst % 2
        for payoff, gamma in (("mutual_information", None), ("gap", 3.0)):
            rep = verify_diagonal_optimality(
                ch, q, samples=200, seed=1000 + inst, payoff=payoff, Gamma=gamma
            )
            violations += rep.violations
            worst = max(worst, rep.max_gap)
    ok = violations == 0
    verdict(5, "diagonal precoding never beaten",
            ok, f"(max payoff gap {worst:.2e})")


def test_criterion_06_regime_classification():
    # High interference: constructed orthogonal equilibria, both reachable.
    instances = 0
    both_found_everywhere = True
    rule_checked = 0
    seed = 0
    while instances < 5 and seed < 60:
        ch = ratio_scenario(2, 2, d_ratio=0.25, snr_db=10.0, seed=seed, channel_order=1)
        game = build_game(ch)
        seed += 1
        perms = [orthogonal_profile(game, [[0], [1]]), orthogonal_profile(game, [[1], [0]])]
        residuals = [
            max(np.abs(p[q] - best_response(q, p, game)).max() for q in range(2))
            for p in perms
        ]
        if max(residuals) > 1e-9:
            continue
        instances += 1
        signatures = set()
        for s in range(40):
            init = random_feasible_profile(game, np.random.default_rng(s), sparse=True)
            res = solve(game, init=init, tol=1e-10, order_seed=s)
            if res.converged and res.classification.orthogonal:
                signatures.add(tuple((res.profile.p > 1e-6).astype(int).ravel()))
            if len(signatures) >= 2:
                break
        if len(signatures) < 2:
            both_found_everywhere = False

    # Allocation ordering whenever the moderate-interference premise holds.
    rule_ok = True
    for s in range(60):
        ch = ratio_scenario(2, 2, d_ratio=1.0, snr_db=5.0, seed=s, channel_order=1)
        game = build_game(ch)
        res = solve(game, tol=1e-10, max_iter=4000)
        if not (res.converged and res.classification.orthogonal):
            continue
        try:
            rule = check_allocation_rule(res, game)
        except InvalidInputError:
            continue
        rule_checked += 1
        if not all(rule.pairs.values()):
            rule_ok = False

    # Low interference: near-flat allocation on a mild reference channel.
    ch = mild_reference_scenario(snr_db=15.0)
    res = solve(build_game(ch), tol=1e-9)
    flat = float(res.classification.flatness.max())
    ch_low = mild_reference_scenario(snr_db=5.0)
    res_low = solve(build_game(ch_low), tol=1e-9)
    flat_low = float(res_low.classification.flatness.max())

    ok = (
        instances == 5
        and both_found_everywhere
        and rule_checked >= 5
        and rule_ok
        and flat < 0.05
        and flat_low > flat
    )
    verdict(6, "regime classification",
            ok, f"(permutation NEs on {instances} instances, rule checks {rule_checked}, "
                f"flatness {flat:.3f} @15dB vs {flat_low:.3f} @5dB)")


def test_criterion_07_pareto_sandwich():
    sandwich_ok = True
    dominance_ok = True
    for seed in range(50):
        ch = ratio_scenario(2, 2, d_ratio=1.5 + (seed % 5), snr_db=6.0 + (seed % 7),
                            seed=(700, seed), channel_order=1)
        game = build_game(ch)
        res = solve(game, tol=1e-9, max_iter=4000)
        assert res.converged
        ne = rate_array(res.profile.p, game)
        for q in range(2):
            mm = minmax_bound(game, q, grid=96)
            if mm.value > ne[q] + 1e-6:
                sandwich_ok = False
        region = sample_rate_region(game, resolution=21)
        frontier = region.points[region.pareto]
        slack = 0.0
        for qq in range(2):
            s = np.sort(frontier[:, qq])
            if s.size > 1:
                slack = max(slack, float(np.diff(s).max()))
        slack = max(slack, 1e-6)
        for x in frontier:
            if (ne > x + slack).all():
                dominance_ok = False
    ok = sandwich_ok and dominance_ok
    verdict(7, "equilibria sandwiched by bounds and frontier", ok)


def test_criterion_08_modified_game_consistency():
    lambdas = [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 3.0], [3.0, 1.0]]
    worst = 0.0
    for inst in range(10):
        ch = ratio_scenario(2, 4, d_ratio=10.0, snr_db=12.0, seed=(800, inst),
                            channel_order=2)
        game = build_game(ch)
        for lam in lambdas:
            sc = solve_scalarized(game, lam, restarts=3, seed=inst, tol=1e-10,
                                  max_iter=6000)
            mg = solve_modified_game(game, lam, tol=1e-8, max_iter=8000)
            gap = float(np.abs(rate_array(sc.profile.p, game) - mg.rates).max())
            worst = max(worst, gap)
    ok = worst <= 1e-3
    verdict(8, "side-payment game matches weighted optimum",
            ok, f"(worst per-user gap {worst:.2e})")


def test_criterion_09_gradient_check():
    worst = 0.0
    checked = 0
    rng = np.random.default_rng(31)
    while checked < 100:
        ch = ratio_scenario(2, 4, d_ratio=2.0, snr_db=8.0, seed=(901, checked),
                            channel_order=2)
        game = build_game(ch)
        p = project_all(rng.uniform(0.1, 1.3, (2, 4)), game) * rng.uniform(0.5, 0.9)
        p = np.maximum(p, 0.02)
        q = checked % 2
        ana = rate_gradient(p, game, q)
        num = np.zeros_like(p)
        h = 1e-6
        for r in range(2):
            for k in range(4):
                up, dn = p.copy(), p.copy()
                up[r, k] += h
                dn[r, k] -= h
                num[r, k] = (rate_array(up, game)[q] - rate_array(dn, game)[q]) / (2 * h)
        worst = max(worst, float(np.abs(ana - num).max() / np.abs(num).max()))
        checked += 1
    ok = worst <= 1e-5
    verdict(9, "analytic rate gradient", ok, f"(worst rel err {worst:.1e})")


def test_criterion_10_asymmetric_loss():
    ratio, geo = 0.2, 1.3
    d = np.ones((2, 2))
    d[0, 1] = geo * np.sqrt(ratio)
    d[1, 0] = geo / np.sqrt(ratio)
    losses = []
    for s in range(20):
        ch = ratio_scenario(2, 8, snr_db=5.0, seed=(333, s), channel_order=4, d=d)
        game = build_game(ch)
        ne = solve(game, tol=1e-9)
        assert ne.converged
        sc = solve_scalarized(game, [1.0, 1.0], restarts=5, seed=s, tol=1e-9)
        losses.append(1.0 - rate_array(ne.profile.p, game).sum() / sc.value)
    ok = max(losses) >= 0.15
    verdict(10, "asymmetric equilibrium loss",
            ok, f"(max sum-rate loss {max(losses):.1%})")


def test_criterion_11_determinism(tmp_path):
    configs = {
        "montecarlo": (
            run_uniqueness_mc,
            {
                "seed": 4, "trials": 8,
                "scenario": {"Q": 3, "N": 16, "gamma": 2.5, "snr_db": -5.0,
                             "Gamma": 1.0, "channel_order": 4},
                "d_ratio_sweep": [1.0, 3.0],
            },
            "mc.csv",
        ),
        "psd": (
            run_psd,
            {
                "seed": 6,
                "scenario": {"Q": 2, "N": 16, "gamma": 2.5, "snr_db": 10.0,
                             "Gamma": 1.0, "channel_order": 3, "d_ratio": 0.5},
                "check_rule": True,
            },
            "psd.csv",
        ),
        "rate_region": (
            run_rate_region,
            {
                "seed": 8, "mode": "symmetric", "resolution": 11, "splits": 3,
                "lambda_sweep": [[1.0, 1.0]],
                "scenario": {"Q": 2, "N": 2, "gamma": 2.5, "snr_db": 8.0,
                             "Gamma": 1.0, "channel_order": 1, "d_ratio": 3.0},
            },
            "region.csv",
        ),
        "verify_theorem1": (
            run_verify_theorem1,
            {
                "seed": 9, "instances": 1, "samples": 50,
                "payoffs": ["mutual_information"],
                "scenario": {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 8.0,
                             "Gamma": 1.0, "channel_order": 2, "d_ratio": 2.0},
            },
            "t1.json",
        ),
    }
    identical = True
    for name, (runner, cfg, fname) in configs.items():
        a = str(tmp_path / ("a_" + fname))
        b = str(tmp_path / ("b_" + fname))
        runner(dict(cfg), a)
        runner(dict(cfg), b)
        same = open(a, "rb").read() == open(b, "rb").read()
        if fname.endswith(".csv"):
            same &= (
                open(a + ".meta.json", "rb").read() == open(b + ".meta.json", "rb").read()
            )
        if not same:
            identical = False
    verdict(11, "byte-identical reruns", identical)
