"""The benchmark's workloads: inputs derived from a seed, driver calls, gates.

Each workload issues calls to one public driver of ``specnash.experiments``.
Item ``i`` of seed ``s`` is a pure function of ``(workload, s, i)``, so a
traced pass over the first K items repeats an untraced one exactly.  The
warm-up call uses a fixed canary config.  Every call's output is checked by
the workload's gate, which returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from specnash import experiments
from specnash.channel import build_game
from specnash.errors import InvalidInputError
from specnash.waterfilling import WaterfillInput, kkt_residual

HERE = Path(__file__).resolve().parent

CANARY_SEED = 17


def item_rng(workload: str, seed: int, i: int) -> np.random.Generator:
    """Generator keyed by (workload, seed, item index)."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, i])


def item_seed(workload: str, seed: int, i: int) -> int:
    return int(item_rng(workload, seed, i).integers(0, 2**31 - 1))


def read_output(out: str) -> bytes:
    """Bytes a driver call wrote: the CSV or JSON report plus any sidecar."""
    data = Path(out).read_bytes()
    meta = Path(out + ".meta.json")
    return data + meta.read_bytes() if meta.exists() else data


def bytes_written(out: str) -> int:
    meta = Path(out + ".meta.json")
    return Path(out).stat().st_size + (meta.stat().st_size if meta.exists() else 0)


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one counted item is
    config: Callable[[int, int], dict]  # (seed, i) -> driver config
    canary: Callable[[], dict]
    call: Callable[[dict, str], object]  # (config, out path) -> driver result
    check: Callable[[dict, str, object], list]  # (config, out, result) -> failures
    items: Callable[[dict], int]  # items one call completes
    nominal_s: float  # rough seconds per call at the baseline; sizes traced passes


# ---------------------------------------------------------------------------
# fig1_mc: Fig. 1 uniqueness Monte Carlo (criterion-04 scenario)

FIG1_TRIALS = 2
FIG1_SCENARIO = {"Q": 5, "N": 64, "gamma": 2.5, "snr_db": -10.0, "Gamma": 1.0, "channel_order": 6}
FIG1_RATIOS = [1.0, 2.0, 4.0, 8.0]


def fig1_config(seed: int, i: int) -> dict:
    return fig1_config_for(item_seed("fig1_mc", seed, i))


def fig1_config_for(root_seed: int, trials: int = FIG1_TRIALS) -> dict:
    return {
        "kind": "uniqueness_mc",
        "seed": root_seed,
        "trials": trials,
        "scenario": dict(FIG1_SCENARIO),
        "d_ratio_sweep": list(FIG1_RATIOS),
        "Dq_modes": ["virtual_interferer"],
    }


def fig1_call(cfg: dict, out: str, workers: int = 1):
    return experiments.run_uniqueness_mc(cfg, out, workers=workers)


@cache
def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def fig1_check(cfg: dict, out: str, result) -> list:
    """Every probability is k/trials, and a config with a recorded
    reference reproduces it exactly."""
    meta = json.loads(Path(out + ".meta.json").read_text())
    probs = meta["probabilities"]
    trials = cfg["trials"]
    failures = []
    expected = len(FIG1_RATIOS) * len(experiments.CONDITION_NAMES)
    if len(probs) != expected:
        failures.append(f"fig1_mc: {len(probs)} probabilities, expected {expected}")
    for key, p in probs.items():
        if not (0.0 <= p <= 1.0) or p * trials != round(p * trials):
            failures.append(f"fig1_mc: probability {key}={p} is not k/{trials}")
    ref = load_reference()["fig1_mc"].get(str(cfg["seed"]))
    if ref is not None and ref != probs:
        failures.append(f"fig1_mc: probabilities differ from the reference for seed {cfg['seed']}")
    return failures


FIG1 = Workload(
    name="fig1_mc",
    item="game",
    config=fig1_config,
    canary=lambda: fig1_config_for(CANARY_SEED, trials=1),
    call=fig1_call,
    check=fig1_check,
    items=lambda cfg: cfg["trials"] * len(cfg["d_ratio_sweep"]),
    nominal_s=0.9,
)

PARALLEL_CALLS = 4  # timed fig1_mc calls repeated with workers=2


def parallel_check(configs: list, outputs: list, seconds: list, out: str) -> tuple:
    """Rerun fig1_mc calls with workers=2 and compare the bytes.

    Returns (failures, speed-up of workers=2 over the workers=1 times).
    """
    failures = []
    par_s = 0.0
    for cfg, expected in zip(configs, outputs):
        t0 = time.perf_counter()
        fig1_call(cfg, out, workers=2)
        par_s += time.perf_counter() - t0
        if read_output(out) != expected:
            failures.append(f"fig1_mc: workers=2 output differs from workers=1 for seed {cfg['seed']}")
    speedup = sum(seconds) / par_s if par_s > 0 else 0.0
    return failures, speedup


# ---------------------------------------------------------------------------
# psd_solve: equilibrium PSD snapshots, capped and uncapped, both schedules

PSD_Q, PSD_N, PSD_ORDER = 5, 64, 6
PSD_SNR_DB, PSD_D_RATIO, PSD_GAMMA = 10.0, 6.0, 2.5
PSD_TOL = 1e-10  # at the default 1e-8 the fixed point is too loose for the 1e-9 KKT gate
PSD_CAP_RANGE = (0.4, 3.0)  # per-bin caps in budget units


def psd_config(seed: int, i: int) -> dict:
    """Even items: uncapped ratio entry; odd items: raw entry with per-bin
    caps.  Gauss-Seidel and Jacobi alternate in pairs, so all four meet.

    The distance ratio is 6: at 4, Jacobi missed convergence within 2000
    sweeps on about 0.2% of games of either entry (9 of ~4000 seen), and
    every item must converge; at 6 none of 9148 Jacobi games did."""
    rng = item_rng("psd_solve", seed, i)
    root_seed = int(rng.integers(0, 2**31 - 1))
    schedule = ("sequential", "simultaneous")[(i // 2) % 2]
    if i % 2 == 0:
        scenario = {
            "Q": PSD_Q, "N": PSD_N, "gamma": PSD_GAMMA, "snr_db": PSD_SNR_DB,
            "d_ratio": PSD_D_RATIO, "Gamma": 1.0, "channel_order": PSD_ORDER,
        }
    else:
        L = PSD_ORDER + 1
        taps = rng.standard_normal((PSD_Q, PSD_Q, L, 2)) * np.sqrt(0.5 / L)
        P = 10.0 ** (PSD_SNR_DB / 10.0)
        d = np.full((PSD_Q, PSD_Q), PSD_D_RATIO)
        np.fill_diagonal(d, 1.0)
        scenario = {
            "taps": taps.tolist(),
            "d": d.tolist(),
            "gamma": PSD_GAMMA,
            "P": [P] * PSD_Q,
            "sigma2": [1.0] * PSD_Q,
            "Gamma": [1.0] * PSD_Q,
            "N": PSD_N,
            "pmax_bar": (P * rng.uniform(*PSD_CAP_RANGE, size=(PSD_Q, PSD_N))).tolist(),
        }
    return {"seed": root_seed, "scenario": scenario, "solver": {"schedule": schedule, "tol": PSD_TOL}}


def psd_call(cfg: dict, out: str):
    return experiments.run_psd(cfg, out)


def read_profile(out: str, Q: int, N: int) -> np.ndarray:
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["user", "carrier", "power"] or len(rows) != Q * N + 1:
        raise ValueError("psd CSV has the wrong header or row count")
    p = np.full((Q, N), np.nan)
    for user, carrier, power in rows[1:]:
        p[int(user) - 1, int(carrier) - 1] = float(power)
    return p


def psd_check(cfg: dict, out: str, meta) -> list:
    """Converged; every user meets its budget to 1e-12 and its power is a
    waterfilling response to the equilibrium interference (KKT <= 1e-9)."""
    if not meta["converged"]:
        return [f"psd_solve: seed {cfg['seed']} did not converge in {meta['iterations']} sweeps"]
    game = build_game(experiments.scenario_from_config(cfg["scenario"], seed=(cfg["seed"],)))
    p = read_profile(out, game.Q, game.N)
    failures = []
    for q in range(game.Q):
        if game.pmax[q].mean() >= 1.0 and abs(p[q].mean() - 1.0) > 1e-12:
            failures.append(f"psd_solve: user {q} spends {p[q].mean()!r} of its budget")
        i = 1.0 + np.einsum("rk,rk->k", game.gain2[:, q, :], p) - game.gain2[q, q, :] * p[q]
        inp = WaterfillInput(
            g=game.gain2[q, q, :], i=np.maximum(i, 1.0), Gamma=game.Gamma[q],
            pmax=game.pmax[q], budget=1.0,
        )
        try:
            res = kkt_residual(p[q], inp)
        except InvalidInputError as err:  # infeasible beyond kkt_residual's 1e-9
            failures.append(f"psd_solve: user {q} power is infeasible: {err}")
            continue
        if not res <= 1e-9:
            failures.append(f"psd_solve: user {q} KKT residual {res:.3g} > 1e-9")
    return failures


PSD = Workload(
    name="psd_solve",
    item="solve",
    config=psd_config,
    canary=lambda: psd_config(CANARY_SEED, 1),  # capped: the heavier level solve
    call=psd_call,
    check=psd_check,
    items=lambda cfg: 1,
    nominal_s=0.012,
)


# ---------------------------------------------------------------------------
# pareto_asym: asymmetric equilibrium-vs-weighted-optimum study (criterion 10)
#
# Not in BENCHMARK.json: items take 2-11 s with a coefficient of variation
# near 0.5, so a run short enough for the benchmark's time budget holds too
# few of them for a steady rate.  Run it by hand with a long --seconds.

PARETO_SCENARIO = {"Q": 2, "N": 8, "gamma": 2.5, "snr_db": 5.0, "Gamma": 1.0, "channel_order": 4}


def pareto_config_for(root_seed: int) -> dict:
    return {
        "mode": "asymmetric",
        "seed": root_seed,
        "seeds": 1,
        "restarts": 5,
        "d12_over_d21": 0.2,
        "d_cross_geomean": 1.3,
        "scenario": dict(PARETO_SCENARIO),
    }


@contextmanager
def capturing(module, attr: str, sink: list):
    """Record (args, result) of every call to ``module.attr`` inside the block."""
    original = getattr(module, attr)

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(module, attr, capture)
    try:
        yield
    finally:
        setattr(module, attr, original)


def pareto_call(cfg: dict, out: str):
    ne, opt = [], []
    with capturing(experiments, "solve", ne), capturing(experiments, "solve_scalarized", opt):
        meta = experiments.run_rate_region(cfg, out)
    return meta, ne, opt


def pareto_check(cfg: dict, out: str, result) -> list:
    """The NE converged, both profiles are feasible, the loss is finite."""
    meta, ne, opt = result
    failures = []
    if len(ne) != cfg["seeds"] or len(opt) != cfg["seeds"]:
        return [f"pareto_asym: expected {cfg['seeds']} NE and optimum solves, got {len(ne)}, {len(opt)}"]
    for ((game,), res), (_, sc) in zip(ne, opt):
        if not res.converged:
            failures.append(f"pareto_asym: NE of seed {cfg['seed']} did not converge")
        if not res.profile.is_feasible(game):
            failures.append(f"pareto_asym: NE profile of seed {cfg['seed']} is infeasible")
        if not sc.profile.is_feasible(game):
            failures.append(f"pareto_asym: optimum profile of seed {cfg['seed']} is infeasible")
    if not np.isfinite(meta["sum_rate_loss"]).all():
        failures.append(f"pareto_asym: non-finite sum-rate loss {meta['sum_rate_loss']}")
    return failures


PARETO = Workload(
    name="pareto_asym",
    item="seed",
    config=lambda seed, i: pareto_config_for(item_seed("pareto_asym", seed, i)),
    canary=lambda: pareto_config_for(CANARY_SEED),
    call=pareto_call,
    check=pareto_check,
    items=lambda cfg: cfg["seeds"],
    nominal_s=4.4,
)


# ---------------------------------------------------------------------------
# theorem1: random-precoder check of diagonal optimality

THEOREM1_SCENARIO = {"Q": 2, "N": 8, "gamma": 2.5, "snr_db": 8.0, "d_ratio": 1.5,
                     "Gamma": 1.0, "channel_order": 2}


def theorem1_config_for(root_seed: int) -> dict:
    return {
        "seed": root_seed,
        "instances": 1,
        "samples": 200,
        "payoffs": ["mutual_information", "gap"],
        "scenario": dict(THEOREM1_SCENARIO),
    }


def theorem1_call(cfg: dict, out: str):
    return experiments.run_verify_theorem1(cfg, out)


def theorem1_check(cfg: dict, out: str, report) -> list:
    """No sampled precoder beats the diagonal response, in the returned
    report and in the JSON written to disk."""
    written = json.loads(Path(out).read_text())
    expected = cfg["instances"] * THEOREM1_SCENARIO["Q"] * len(cfg["payoffs"])
    failures = []
    if written["total_violations"] != 0 or report["total_violations"] != 0:
        failures.append(f"theorem1: {written['total_violations']} violations for seed {cfg['seed']}")
    if len(written["results"]) != expected:
        failures.append(f"theorem1: {len(written['results'])} results, expected {expected}")
    return failures


THEOREM1 = Workload(
    name="theorem1",
    item="instance",
    config=lambda seed, i: theorem1_config_for(item_seed("theorem1", seed, i)),
    canary=lambda: theorem1_config_for(CANARY_SEED),
    call=theorem1_call,
    check=theorem1_check,
    items=lambda cfg: cfg["instances"],
    nominal_s=0.2,
)

WORKLOADS = {w.name: w for w in (FIG1, PSD, PARETO, THEOREM1)}
