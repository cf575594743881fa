"""Config-driven experiment drivers.

Each driver consumes one JSON config document, runs a reproducible
experiment, and emits a fixed-schema CSV (or JSON report) plus a
``<out>.meta.json`` sidecar echoing the config and aggregate results.
All randomness is derived from one root seed via per-(trial, link)
counters, so outputs are byte-identical across reruns and worker counts.

CSV schemas (version 1):
    uniqueness: d_ratio,condition,Dq_mode,prob,trials
    psd:        user,carrier,power           (1-based users and carriers)
    region:     provenance,label,r1..rQ
"""

from __future__ import annotations

import csv
import json
import os
from multiprocessing import Pool

import numpy as np

from . import __version__
from .channel import ChannelSet, UNBOUNDED, build_game, ratio_scenario
from .equilibrium import classify_profile, check_allocation_rule, solve
from .errors import InvalidInputError
from .matrix_oracle import verify_diagonal_optimality
from .pareto import rate_array, sample_rate_region, solve_modified_game, solve_scalarized
from .uniqueness import CONDITION_NAMES, check_conditions

CSV_SCHEMA_VERSION = 1


def scenario_from_config(scen: dict, seed) -> ChannelSet:
    """Build a ChannelSet from a config fragment.

    Raw entry: explicit taps (nested [re, im] pairs), distances, powers.
    Ratio entry: Q/N plus gamma, d_ratio, snr_db, Gamma, channel_order;
    the taps are drawn from streams keyed by ``seed``.
    """
    if "taps" in scen:
        taps = np.asarray(scen["taps"], dtype=np.float64)
        if taps.ndim != 4 or taps.shape[-1] != 2:
            raise InvalidInputError("raw taps must be a (Q, Q, L+1, 2) re/im array")
        pmax_bar = scen.get("pmax_bar")
        N = int(scen["N"])
        Q = taps.shape[0]
        if pmax_bar is None:
            pmax_bar = np.full((Q, N), UNBOUNDED)
        else:
            pmax_bar = np.asarray(
                [[UNBOUNDED if v is None else v for v in row] for row in pmax_bar]
            )
        return ChannelSet(
            taps=taps[..., 0] + 1j * taps[..., 1],
            d=np.asarray(scen["d"], dtype=np.float64),
            gamma=float(scen["gamma"]),
            P=np.asarray(scen["P"], dtype=np.float64),
            sigma2=np.asarray(scen["sigma2"], dtype=np.float64),
            pmax_bar=pmax_bar,
            Gamma=np.asarray(scen["Gamma"], dtype=np.float64),
            N=N,
        )
    kwargs = {}
    for key in ("gamma", "d_ratio", "snr_db", "Gamma", "channel_order", "tap_variance", "tap_decay"):
        if key in scen:
            kwargs[key] = scen[key]
    if "d" in scen:
        kwargs["d"] = np.asarray(scen["d"], dtype=np.float64)
    return ratio_scenario(int(scen["Q"]), int(scen["N"]), seed=seed, **kwargs)


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_meta(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["csv_schema_version"] = CSV_SCHEMA_VERSION
    payload["package_version"] = __version__
    with open(path + ".meta.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


# ---------------------------------------------------------------------------
# uniqueness Monte Carlo (condition satisfaction probability vs distance)

def _uniqueness_trial(args):
    scen, root_seed, trial, ratios, modes = args
    out = np.zeros((len(ratios), len(modes), len(CONDITION_NAMES)), dtype=bool)
    for i, ratio in enumerate(ratios):
        cfg = dict(scen)
        cfg["d_ratio"] = ratio
        ch = scenario_from_config(cfg, seed=(root_seed, trial))
        game = build_game(ch)
        for j, mode in enumerate(modes):
            report = check_conditions(game, Dq_mode=mode)
            for c, name in enumerate(CONDITION_NAMES):
                out[i, j, c] = report.satisfied(name)
    return out


def run_uniqueness_mc(cfg: dict, out_path: str, workers: int = 1) -> dict:
    """Condition satisfaction probabilities over random channel draws.

    Sweeps the normalized interlink distance; the channel taps of trial t
    are shared across the sweep (streams keyed by (seed, t, link)), so the
    sweep compares distances on matched fading.  ``workers`` is capped at
    the CPU count.
    """
    scen = cfg["scenario"]
    root_seed = int(cfg.get("seed", 0))
    trials = int(cfg.get("trials", 500))
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    ratios = [float(r) for r in cfg.get("d_ratio_sweep", [scen.get("d_ratio", 2.0)])]
    modes = list(cfg.get("Dq_modes", ["virtual_interferer", "all"]))
    conditions = list(cfg.get("conditions", CONDITION_NAMES))

    jobs = [(scen, root_seed, t, ratios, modes) for t in range(trials)]
    if workers > 1:
        with Pool(workers) as pool:
            hits = pool.map(_uniqueness_trial, jobs)
    else:
        hits = [_uniqueness_trial(j) for j in jobs]
    counts = np.sum(hits, axis=0)

    rows = []
    probs = {}
    for i, ratio in enumerate(ratios):
        for j, mode in enumerate(modes):
            for c, name in enumerate(CONDITION_NAMES):
                if name not in conditions:
                    continue
                p = counts[i, j, c] / trials
                probs[(ratio, mode, name)] = p
                rows.append([_fmt(ratio), name, mode, _fmt(p), trials])
    _write_csv(out_path, ["d_ratio", "condition", "Dq_mode", "prob", "trials"], rows)
    _write_meta(
        out_path,
        {
            "kind": "uniqueness_mc",
            "config": cfg,
            "trials": trials,
            "probabilities": {
                f"{r}:{m}:{n}": v for (r, m, n), v in sorted(probs.items())
            },
        },
    )
    return {"probs": probs, "trials": trials, "ratios": ratios, "modes": modes}


# ---------------------------------------------------------------------------
# equilibrium PSD snapshot

def run_psd(cfg: dict, out_path: str) -> dict:
    """Solve one scenario to equilibrium and emit the per-bin powers."""
    root_seed = int(cfg.get("seed", 0))
    ch = scenario_from_config(cfg["scenario"], seed=(root_seed,))
    game = build_game(ch)
    solver = cfg.get("solver", {})
    res = solve(
        game,
        schedule=solver.get("schedule", "sequential"),
        tol=float(solver.get("tol", 1e-8)),
        max_iter=int(solver.get("max_iter", 2000)),
    )
    rows = []
    for q in range(game.Q):
        for k in range(game.N):
            rows.append([q + 1, k + 1, _fmt(res.profile.p[q, k])])
    _write_csv(out_path, ["user", "carrier", "power"], rows)

    meta = {
        "kind": "psd",
        "config": cfg,
        "converged": res.converged,
        "iterations": res.iterations,
        "residual": res.residual,
        "rates": rate_array(res.profile.p, game).tolist(),
    }
    cls = res.classification or classify_profile(res.profile.p, game)
    meta["classification"] = {
        "orthogonal": cls.orthogonal,
        "shared_carriers": cls.shared_carriers,
        "flatness": cls.flatness.tolist(),
        "exclusive": [(idx + 1).tolist() for idx in cls.exclusive],
    }
    if cfg.get("check_rule", False) and cls.orthogonal:
        try:
            rule = check_allocation_rule(res, game)
            meta["allocation_rule"] = {
                "pairs": {f"{r + 1}->{q + 1}": ok for (r, q), ok in rule.pairs.items()},
                "violations": rule.violations,
                "premise_margin": rule.premise_margin,
            }
        except InvalidInputError as err:
            meta["allocation_rule"] = {"skipped": str(err)}
    _write_meta(out_path, meta)
    return meta


# ---------------------------------------------------------------------------
# rate region studies

def _lambda_label(lam) -> str:
    return ":".join(_fmt(v) for v in lam)


def run_rate_region(cfg: dict, out_path: str) -> dict:
    """Equilibria against the cooperative frontier.

    mode="symmetric": one scenario; emits the gridded Pareto samples, the
    equilibrium point, the side-payment-game points for a weight sweep,
    and the fixed-total-power equilibrium sweep.
    mode="asymmetric": seeds x one asymmetric geometry; emits equilibrium
    and best weighted-sum rates per seed (sum-rate loss in the sidecar).
    mode="channel_order": average equilibrium rates per channel order.
    """
    mode = cfg.get("mode", "symmetric")
    root_seed = int(cfg.get("seed", 0))
    scen = cfg["scenario"]
    rows = []
    meta: dict = {"kind": "rate_region", "mode": mode, "config": cfg}
    Q_out = int(scen["Q"]) if "Q" in scen else None

    if mode == "symmetric":
        ch = scenario_from_config(scen, seed=(root_seed,))
        game = build_game(ch)
        Q = Q_out = game.Q
        region = sample_rate_region(game, resolution=int(cfg.get("resolution", 16)))
        for pt in region.points[region.pareto]:
            rows.append(["grid_pareto", ""] + [_fmt(v) for v in pt])
        ne = solve(game, tol=1e-9)
        ne_rates = rate_array(ne.profile.p, game)
        rows.append(["ne", ""] + [_fmt(v) for v in ne_rates])
        lam_sweep = cfg.get("lambda_sweep", [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        for lam in lam_sweep:
            mg = solve_modified_game(game, lam, tol=float(cfg.get("mg_tol", 1e-6)))
            rows.append(["modified_game", _lambda_label(lam)] + [_fmt(v) for v in mg.rates])
        splits = np.linspace(0.15, 0.85, int(cfg.get("splits", 8)))
        sweep = sample_rate_region(game, budget_mode="total_split", splits=splits)
        for t, pt in zip(splits, sweep.points):
            rows.append(["ne_total_split", _fmt(t)] + [_fmt(v) for v in pt])
        meta["ne_rates"] = ne_rates.tolist()
        meta["ne_converged"] = ne.converged
        meta["pareto_count"] = int(region.pareto.sum())
    elif mode == "asymmetric":
        seeds = int(cfg.get("seeds", 20))
        Q = int(scen["Q"])
        if Q != 2:
            raise InvalidInputError("asymmetric mode is two-user")
        ratio = float(cfg.get("d12_over_d21", 0.2))
        geo = float(cfg.get("d_cross_geomean", 2.0))
        d = np.ones((2, 2))
        d[0, 1] = geo * np.sqrt(ratio)
        d[1, 0] = geo / np.sqrt(ratio)
        losses = []
        for s in range(seeds):
            sc = dict(scen)
            sc["d"] = d.tolist()
            ch = scenario_from_config(sc, seed=(root_seed, s))
            game = build_game(ch)
            ne = solve(game, tol=1e-9)
            ne_rates = rate_array(ne.profile.p, game)
            sc_res = solve_scalarized(
                game,
                np.ones(2),
                restarts=int(cfg.get("restarts", 8)),
                seed=root_seed + s,
                tol=1e-9,
            )
            opt_rates = rate_array(sc_res.profile.p, game)
            loss = 1.0 - ne_rates.sum() / max(sc_res.value, 1e-300)
            losses.append(loss)
            rows.append(["ne", str(s)] + [_fmt(v) for v in ne_rates])
            rows.append(["scalarized", str(s)] + [_fmt(v) for v in opt_rates])
        meta["sum_rate_loss"] = losses
        meta["max_loss"] = max(losses)
    elif mode == "channel_order":
        orders = [int(v) for v in cfg.get("orders", [0, 4, 8])]
        seeds = int(cfg.get("seeds", 100))
        Q = int(scen["Q"])
        means = {}
        for L in orders:
            acc = np.zeros(Q)
            for s in range(seeds):
                sc = dict(scen)
                sc["channel_order"] = L
                ch = scenario_from_config(sc, seed=(root_seed, L, s))
                game = build_game(ch)
                ne = solve(game, tol=1e-8)
                acc += rate_array(ne.profile.p, game)
            means[L] = acc / seeds
            rows.append(["ne_mean_order", str(L)] + [_fmt(v) for v in means[L]])
        meta["order_means"] = {str(L): v.tolist() for L, v in means.items()}
    else:
        raise InvalidInputError(f"unknown rate_region mode {mode!r}")

    header = ["provenance", "label"] + [f"r{q + 1}" for q in range(Q_out)]
    _write_csv(out_path, header, rows)
    _write_meta(out_path, meta)
    return meta


# ---------------------------------------------------------------------------
# diagonal-optimality verification

def run_verify_theorem1(cfg: dict, out_path: str) -> dict:
    """Random-precoder dominance experiment across instances and payoffs."""
    root_seed = int(cfg.get("seed", 0))
    instances = int(cfg.get("instances", 10))
    samples = int(cfg.get("samples", 200))
    payoffs = list(cfg.get("payoffs", ["mutual_information", "gap"]))
    gap_gamma = float(cfg.get("gap_Gamma", 3.0))
    scen = cfg["scenario"]

    results = []
    total_violations = 0
    worst_gap = -np.inf
    for inst in range(instances):
        ch = scenario_from_config(scen, seed=(root_seed, inst))
        for q in range(ch.Q):
            for payoff in payoffs:
                rep = verify_diagonal_optimality(
                    ch,
                    q,
                    samples=samples,
                    seed=root_seed * 1000003 + inst * 101 + q,
                    payoff=payoff,
                    Gamma=gap_gamma if payoff == "gap" else None,
                )
                total_violations += rep.violations
                worst_gap = max(worst_gap, rep.max_gap)
                results.append(
                    {
                        "instance": inst,
                        "user": q,
                        "payoff": payoff,
                        "violations": rep.violations,
                        "max_gap": rep.max_gap,
                        "best_response_value": rep.best_response_value,
                    }
                )
    report = {
        "kind": "verify_theorem1",
        "config": cfg,
        "total_violations": total_violations,
        "worst_gap": float(worst_gap),
        "results": results,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return report


RUNNERS = {
    "uniqueness_mc": run_uniqueness_mc,
    "psd": run_psd,
    "rate_region": run_rate_region,
    "verify_theorem1": run_verify_theorem1,
}
