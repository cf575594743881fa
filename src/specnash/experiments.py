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
import numbers
import os
from itertools import chain
from multiprocessing import Pool

import numpy as np

from . import __version__
from .channel import (ChannelSet, UNBOUNDED, build_game, distance_sweep, ratio_distances,
                      ratio_scenario)
from .equilibrium import classify_profile, check_allocation_rule, solve
from .errors import InvalidInputError
# verify_diagonal_optimality stays importable here: bench/tracing.py wraps this site.
from .matrix_oracle import verify_diagonal_optimality, verify_instance
from .pareto import (rate_array, sample_rate_region, solve_modified_game, solve_scalarized,
                     total_split_rates)
from .uniqueness import (CONDITION_NAMES, DQ_MODES, VERDICT_KINDS, check_conditions,
                         verdict_codes)

CSV_SCHEMA_VERSION = 1

# The keys of each scenario entry kind and the JSON type of their values.
_RAW_KEYS = {"taps": list, "d": list, "gamma": float, "P": list, "sigma2": list, "Gamma": list,
             "N": int, "pmax_bar": list}
_RATIO_KEYS = {"Q": int, "N": int, "gamma": float, "d_ratio": float, "snr_db": float,
               "Gamma": float, "channel_order": int, "tap_variance": float, "tap_decay": float,
               "d": list}


def scenario_from_config(scen: dict, seed) -> ChannelSet:
    """Build a ChannelSet from a config fragment.

    Raw entry: explicit taps (nested [re, im] pairs), distances, powers.
    Ratio entry: Q/N plus gamma, d_ratio, snr_db, Gamma, channel_order;
    the taps are drawn from streams keyed by ``seed``.  A key the entry
    does not use and a value of the wrong JSON type are rejected by key.
    """
    _checked_scenario(scen)
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
    kwargs = {k: v for k, v in scen.items() if k not in ("Q", "N")}
    if "d" in kwargs:
        kwargs["d"] = np.asarray(kwargs["d"], dtype=np.float64)
    return ratio_scenario(int(scen["Q"]), int(scen["N"]), seed=seed, **kwargs)


def _checked_scenario(scen: dict) -> dict:
    """``scen`` once each key is one its entry kind uses and holds a value of its type."""
    kind, keys = ("raw", _RAW_KEYS) if "taps" in scen else ("ratio", _RATIO_KEYS)
    _reject_unknown(f"{kind} scenario keys", scen, keys)
    for key in scen:
        _setting(scen, key, None, keys[key])
    return scen


def _reject_unknown(what: str, given, known) -> None:
    """Reject, by name, the entries of ``given`` (a dict's keys or a list) not in ``known``."""
    unknown = ", ".join(sorted(str(v) for v in given if v not in known))
    if unknown:
        raise InvalidInputError(f"unknown {what}: {unknown}")


# Config values by JSON type; an integer passes where a number is read.
_KINDS = {int: (numbers.Integral, "integer"), float: (numbers.Real, "number"),
          bool: (bool, "boolean"), str: (str, "string"), list: (list, "array"),
          dict: (dict, "object")}


def _setting(cfg: dict, key: str, default, kind, entries=None):
    """``cfg[key]`` (``default`` when absent) if it is a ``kind``, each entry an
    ``entries`` for a list; else rejected by key, not left to fail deeper in."""
    def fits(v, k):
        return isinstance(v, _KINDS[k][0]) and (k is bool or not isinstance(v, bool))

    value = cfg.get(key, default)
    if not (fits(value, kind) and (entries is None or all(fits(v, entries) for v in value))):
        what = _KINDS[kind][1] + (f" of {_KINDS[entries][1]}s" if entries else "")
        raise InvalidInputError(f"config key {key!r} must be a JSON {what}, got {value!r}")
    return value


def _count(cfg: dict, key: str, default: int, least: int = 1) -> int:
    """``cfg[key]`` (``default`` when absent) if it is an integer of at least ``least``."""
    n = int(_setting(cfg, key, default, int))
    if n < least:
        raise InvalidInputError(f"config key {key!r} must be >= {least}, got {n}")
    return n


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\\n"."""
    with open(path, "w") as fh:
        fh.write(_json_text(payload, "\n") + "\n")


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings
_SCALAR_TEXT = {float: lambda x: _FLOAT_WORDS.get(text := float.__repr__(x), text),
                str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                bool: {True: "true", False: "false"}.get, type(None): lambda o: "null"}
_SCALAR_TEXT[np.float64] = _SCALAR_TEXT[float]  # a float subclass: json writes it as one


def _json_text(o, nl: str) -> str:
    """json.dumps text of ``o``, each line break written as ``nl`` (a newline and the indent of
    ``o``'s first line).  json's indented encoder is pure Python, so what json meets most is
    rendered here, anything else by json.dumps, reindented (no JSON string holds a newline)."""
    kind = type(o)
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](o)
    inner = nl + "  "
    if kind is dict and all(type(k) is str for k in o):
        items = [_SCALAR_TEXT[str](k) + ": " + _json_text(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if o else "{}"
    if kind is list:
        return _float_block(o, nl) or (
            "[" + inner + ("," + inner).join([_json_text(v, inner) for v in o]) + nl + "]"
            if o else "[]")
    if isinstance(o, (np.ndarray, np.floating, np.integer, np.bool_)):  # as json: _json_default
        return _json_text(_json_default(o), nl)
    return json.dumps(o, indent=2, sort_keys=True, default=_json_default).replace("\n", nl)


def _float_block(o: list, nl: str) -> str | None:
    """:func:`_json_text` of a rectangular nested list of floats, else None."""
    shape, leaves = [len(o)], o
    while ((kinds := set(map(type, leaves))) == {list}
           and len(sizes := set(map(len, leaves))) == 1):
        shape.append(sizes.pop())
        leaves = list(chain.from_iterable(leaves))
    if kinds != {float}:  # other leaves, or a ragged list
        return None
    text = list(map(float.__repr__, leaves))
    if not _FLOAT_WORDS.keys().isdisjoint(text):
        text = [_FLOAT_WORDS.get(t, t) for t in text]
    for depth in range(len(shape) - 1, -1, -1):
        inner = nl + "  " * (depth + 1)
        wrap = ("[" + inner + "%s" + nl + "  " * depth + "]").__mod__
        text = list(map(wrap, map(("," + inner).join, zip(*[iter(text)] * shape[depth]))))
    return text[0]


def _write_meta(path: str, payload: dict) -> None:
    payload = dict(payload)
    payload["csv_schema_version"] = CSV_SCHEMA_VERSION
    payload["package_version"] = __version__
    _write_json(path + ".meta.json", payload)


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
    ch = scenario_from_config(scen, seed=(root_seed, trial))
    # An explicit distance matrix overrides d_ratio, as in ratio_scenario.
    games = distance_sweep(ch, [ch.d if "d" in scen else ratio_distances(ch.Q, r) for r in ratios])
    return np.stack([verdict_codes(games, mode) for mode in modes], axis=1)


_MC_KEYS = {"kind", "out", "seed", "scenario", "trials", "d_ratio_sweep", "Dq_modes",
            "conditions"}


def run_uniqueness_mc(cfg: dict, out_path: str, workers: int = 1) -> dict:
    """Condition satisfaction probabilities over random channel draws.

    Sweeps the normalized interlink distance on matched fading: trial t
    draws its taps once (streams keyed by (seed, t, link)) and takes their
    FFT once, each distance rescales the same fading powers, and the
    games of the whole sweep are certified as one stack per ``Dq_mode``
    (:func:`verdict_codes`).  A probability counts the verdicts that hold;
    the result also counts, per (ratio, mode, condition), the boundary and
    error verdicts that it leaves out (``"boundary"``, ``"errors"``).
    Rejects an unknown config key, condition or Dq mode, an empty sweep,
    mode or condition list and a raw (taps) scenario, which cannot be
    redrawn per trial, before any channel is built.  ``workers`` is capped
    at the CPU count.
    """
    _reject_unknown("uniqueness_mc config keys", cfg, _MC_KEYS)
    scen = _checked_scenario(_setting(cfg, "scenario", None, dict))
    if "taps" in scen:
        raise InvalidInputError("uniqueness_mc redraws the taps per trial: use a ratio scenario")
    root_seed = int(_setting(cfg, "seed", 0, int))
    trials = _count(cfg, "trials", 500)
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    ratios = [float(r) for r in
              _setting(cfg, "d_ratio_sweep", [scen.get("d_ratio", 2.0)], list, float)]
    modes = _setting(cfg, "Dq_modes", list(DQ_MODES), list, str)
    conditions = _setting(cfg, "conditions", list(CONDITION_NAMES), list, str)
    if not (ratios and modes and conditions):
        raise InvalidInputError("d_ratio_sweep, Dq_modes and conditions must each name an entry")
    _reject_unknown(f"Dq_modes (expected {', '.join(DQ_MODES)})", modes, DQ_MODES)
    _reject_unknown(f"conditions (expected {', '.join(CONDITION_NAMES)})", conditions,
                    CONDITION_NAMES)

    jobs = [(scen, root_seed, t, ratios, modes) for t in range(trials)]
    if workers > 1:
        with Pool(workers) as pool:
            codes = np.stack(pool.map(_uniqueness_trial, jobs))
    else:
        codes = np.stack([_uniqueness_trial(j) for j in jobs])
    counts = {kind: (codes == c).sum(axis=0) for c, kind in enumerate(VERDICT_KINDS)}

    rows = []
    probs, boundary, errors = {}, {}, {}
    for i, ratio in enumerate(ratios):
        for j, mode in enumerate(modes):
            for c, name in enumerate(CONDITION_NAMES):
                if name not in conditions:
                    continue
                p = counts["true"][i, j, c] / trials
                probs[(ratio, mode, name)] = p
                boundary[(ratio, mode, name)] = int(counts["boundary"][i, j, c])
                errors[(ratio, mode, name)] = int(counts["error"][i, j, c])
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
    return {"probs": probs, "boundary": boundary, "errors": errors, "trials": trials,
            "ratios": ratios, "modes": modes}


# ---------------------------------------------------------------------------
# uniqueness conditions of one scenario

_CHECK_KEYS = {"kind", "out", "seed", "scenario", "Dq_mode"}


def run_check_uniqueness(cfg: dict, out_path: str) -> dict:
    """Evaluate the seven uniqueness conditions and emit the JSON report;
    an unknown config key or Dq mode is rejected before any channel is built."""
    _reject_unknown("check_uniqueness config keys", cfg, _CHECK_KEYS)
    root_seed = int(_setting(cfg, "seed", 0, int))
    Dq_mode = _setting(cfg, "Dq_mode", "virtual_interferer", str)
    _reject_unknown(f"Dq_mode (expected {', '.join(DQ_MODES)})", [Dq_mode], DQ_MODES)
    ch = scenario_from_config(_setting(cfg, "scenario", None, dict), seed=(root_seed,))
    report = check_conditions(build_game(ch), Dq_mode=Dq_mode)
    payload = report.to_dict()
    _write_json(out_path, payload)
    return payload


# ---------------------------------------------------------------------------
# equilibrium PSD snapshot

_PSD_KEYS = {"kind", "out", "seed", "scenario", "solver", "check_rule"}
_SOLVER_KEYS = {"schedule", "tol", "max_iter"}


def run_psd(cfg: dict, out_path: str) -> dict:
    """Solve one scenario to equilibrium and emit the per-bin powers.

    Rejects a config or ``solver`` key it does not read before any channel
    is built.
    """
    solver = _setting(cfg, "solver", {}, dict)
    _reject_unknown("psd config keys", cfg, _PSD_KEYS)
    _reject_unknown("psd solver keys", solver, _SOLVER_KEYS)
    root_seed = int(_setting(cfg, "seed", 0, int))
    check_rule = _setting(cfg, "check_rule", False, bool)
    schedule = _setting(solver, "schedule", "sequential", str)
    tol = float(_setting(solver, "tol", 1e-8, float))
    max_iter = _count(solver, "max_iter", 2000)
    ch = scenario_from_config(_setting(cfg, "scenario", None, dict), seed=(root_seed,))
    game = build_game(ch)
    res = solve(game, schedule=schedule, tol=tol, max_iter=max_iter)
    rows = [f"{q},{k},{v!r}\n" for q, powers in enumerate(res.profile.p.tolist(), 1)
            for k, v in enumerate(powers, 1)]
    with open(out_path, "w", newline="\n") as fh:  # csv.writer's lines, none needing quotes
        fh.write("user,carrier,power\n" + "".join(rows))

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
    if check_rule and cls.orthogonal:
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


_REGION_KEYS = {"kind", "out", "seed", "scenario", "mode"}
_REGION_MODE_KEYS = {"symmetric": {"resolution", "lambda_sweep", "mg_tol", "splits"},
                     "asymmetric": {"seeds", "restarts", "d12_over_d21", "d_cross_geomean"},
                     "channel_order": {"orders", "seeds"}}


def run_rate_region(cfg: dict, out_path: str) -> dict:
    """Equilibria against the cooperative frontier.

    mode="symmetric": one scenario; emits the gridded Pareto samples, the
    equilibrium point, the side-payment-game points for a weight sweep,
    and the fixed-total-power equilibrium sweep.
    mode="asymmetric": seeds x one asymmetric geometry; emits equilibrium
    and best weighted-sum rates per seed (sum-rate loss in the sidecar).
    mode="channel_order": average equilibrium rates per channel order.
    Rejects an unknown mode, a key its mode does not read, a count out of
    range, an empty list and, in the two modes that redraw the taps, a raw
    (taps) scenario before any channel is built.
    """
    mode = _setting(cfg, "mode", "symmetric", str)
    _reject_unknown("rate_region mode", [mode], _REGION_MODE_KEYS)
    _reject_unknown(f"rate_region {mode} config keys", cfg, _REGION_KEYS | _REGION_MODE_KEYS[mode])
    root_seed = int(_setting(cfg, "seed", 0, int))
    scen = _checked_scenario(_setting(cfg, "scenario", None, dict))
    if mode != "symmetric" and "taps" in scen:
        raise InvalidInputError(f"rate_region {mode} mode redraws the taps per seed: "
                                "use a ratio scenario")
    rows = []
    meta: dict = {"kind": "rate_region", "mode": mode, "config": cfg}
    Q_out = int(scen["Q"]) if "Q" in scen else None

    if mode == "symmetric":
        resolution = _count(cfg, "resolution", 16, least=2)
        lam_sweep = _setting(cfg, "lambda_sweep", [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]], list)
        if not lam_sweep:
            raise InvalidInputError("config key 'lambda_sweep' must name a weight vector")
        mg_tol = float(_setting(cfg, "mg_tol", 1e-6, float))
        splits = np.linspace(0.15, 0.85, _count(cfg, "splits", 8))
        ch = scenario_from_config(scen, seed=(root_seed,))
        game = build_game(ch)
        Q_out = game.Q
        # First, so that a game it is not defined for (Q != 2) fails before the grid.
        split_rates = total_split_rates(game, splits)
        region = sample_rate_region(game, resolution)
        for pt in region.points[region.pareto]:
            rows.append(["grid_pareto", ""] + [_fmt(v) for v in pt])
        ne = solve(game, tol=1e-9)
        ne_rates = rate_array(ne.profile.p, game)
        rows.append(["ne", ""] + [_fmt(v) for v in ne_rates])
        for lam in lam_sweep:
            mg = solve_modified_game(game, lam, tol=mg_tol)
            rows.append(["modified_game", _lambda_label(lam)] + [_fmt(v) for v in mg.rates])
        for t, pt in zip(splits, split_rates):
            rows.append(["ne_total_split", _fmt(t)] + [_fmt(v) for v in pt])
        meta["ne_rates"] = ne_rates.tolist()
        meta["ne_converged"] = ne.converged
        meta["pareto_count"] = int(region.pareto.sum())
    elif mode == "asymmetric":
        seeds = _count(cfg, "seeds", 20)
        restarts = _count(cfg, "restarts", 8)
        ratio = float(_setting(cfg, "d12_over_d21", 0.2, float))
        geo = float(_setting(cfg, "d_cross_geomean", 2.0, float))
        if int(scen["Q"]) != 2:
            raise InvalidInputError("asymmetric mode is two-user")
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
            sc_res = solve_scalarized(game, np.ones(2), restarts=restarts, seed=root_seed + s,
                                      tol=1e-9)
            opt_rates = rate_array(sc_res.profile.p, game)
            loss = 1.0 - ne_rates.sum() / max(sc_res.value, 1e-300)
            losses.append(loss)
            rows.append(["ne", str(s)] + [_fmt(v) for v in ne_rates])
            rows.append(["scalarized", str(s)] + [_fmt(v) for v in opt_rates])
        meta["sum_rate_loss"] = losses
        meta["max_loss"] = max(losses)
    else:
        orders = [int(v) for v in _setting(cfg, "orders", [0, 4, 8], list, int)]
        if not orders or min(orders) < 0:
            raise InvalidInputError(f"config key 'orders' must list orders >= 0, got {orders}")
        seeds = _count(cfg, "seeds", 100)
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

    header = ["provenance", "label"] + [f"r{q + 1}" for q in range(Q_out)]
    _write_csv(out_path, header, rows)
    _write_meta(out_path, meta)
    return meta


# ---------------------------------------------------------------------------
# diagonal-optimality verification

_THEOREM1_KEYS = {"kind", "out", "seed", "instances", "samples", "payoffs", "gap_Gamma",
                  "scenario"}
_PAYOFFS = ("mutual_information", "gap")


def run_verify_theorem1(cfg: dict, out_path: str) -> dict:
    """Random-precoder dominance experiment across instances and payoffs.

    Rejects a config key it does not read, fewer than one instance, an
    empty payoff list and an unknown payoff name before any channel is built.
    """
    _reject_unknown("verify_theorem1 config keys", cfg, _THEOREM1_KEYS)
    root_seed = int(_setting(cfg, "seed", 0, int))
    instances = _count(cfg, "instances", 10)
    samples = int(_setting(cfg, "samples", 200, int))
    payoffs = _setting(cfg, "payoffs", list(_PAYOFFS), list, str)
    gap_gamma = float(_setting(cfg, "gap_Gamma", 3.0, float))
    scen = _setting(cfg, "scenario", None, dict)
    if not payoffs:
        raise InvalidInputError("payoffs must name at least one payoff")
    _reject_unknown(f"payoffs (expected {', '.join(_PAYOFFS)})", payoffs, _PAYOFFS)

    results = []
    for inst in range(instances):
        ch = scenario_from_config(scen, seed=(root_seed, inst))
        seeds = [root_seed * 1000003 + inst * 101 + q for q in range(ch.Q)]
        reports = verify_instance(ch, seeds, samples, payoffs, gap_gamma)
        pairs = [(q, payoff) for q in range(ch.Q) for payoff in payoffs]
        results += [{"instance": inst, "user": q, "payoff": payoff, "violations": rep.violations,
                     "max_gap": rep.max_gap, "best_response_value": rep.best_response_value}
                    for (q, payoff), rep in zip(pairs, reports)]
    report = {
        "kind": "verify_theorem1",
        "config": cfg,
        "total_violations": sum(r["violations"] for r in results),
        "worst_gap": float(max(r["max_gap"] for r in results)),
        "results": results,
    }
    _write_json(out_path, report)
    return report
