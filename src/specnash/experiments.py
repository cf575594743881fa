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

import json
import math
import numbers
import os
from dataclasses import dataclass
from itertools import chain
from multiprocessing import Pool

import numpy as np

from . import __version__
from .channel import (ChannelSet, UNBOUNDED, build_game, ratio_distances, ratio_scenario,
                      ratio_sweeps)
from .equilibrium import classify_profile, check_allocation_rule, solve
from .errors import InvalidInputError
# verify_diagonal_optimality stays importable here: bench/tracing.py wraps this site.
from .matrix_oracle import verify_diagonal_optimality, verify_instance
from .pareto import (rate_array, sample_rate_region, solve_modified_game, solve_scalarized,
                     total_split_rates)
from .uniqueness import (CONDITION_NAMES, DQ_MODES, VERDICT_KINDS, check_conditions,
                         verdict_codes)

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class _Ints:
    """Spec of a JSON integer of at least ``least``."""

    least: int


@dataclass(frozen=True)
class _Array:
    """Spec of a JSON number array of ``ndim`` axes, read as float64."""

    ndim: int
    null: float = math.nan  # what a JSON null entry reads as


_REQUIRED = object()
_COMMON = {"kind": (str, None), "out": (str, None), "seed": (_Ints(0), 0),
           "scenario": ("scenario", _REQUIRED)}
_REGION_MODES = ("symmetric", "asymmetric", "channel_order")
_REGION = _COMMON | {"mode": (_REGION_MODES, "symmetric")}
_PAYOFFS = ("mutual_information", "gap")

# The keys of each config entry kind: key -> (spec, default), where _REQUIRED marks a key that
# must be given, and a key whose default is None also takes null.  A spec is a JSON type (an
# integer passes where a number is read, and reads as a float), an _Ints, a tuple of allowed
# strings, [spec] for a non-empty array of spec, an _Array, or the kind of a nested object
# ("scenario": a raw entry if it has taps, else a ratio entry).
_SCHEMAS = {
    "raw scenario": {"taps": (_Array(4), _REQUIRED), "d": (_Array(2), _REQUIRED),
                     "gamma": (float, _REQUIRED), "P": (_Array(1), _REQUIRED),
                     "sigma2": (_Array(1), _REQUIRED), "Gamma": (_Array(1), _REQUIRED),
                     "N": (_Ints(1), _REQUIRED), "pmax_bar": (_Array(2, null=UNBOUNDED), None)},
    # ratio_scenario's parameters at its defaults.
    "ratio scenario": {"Q": (_Ints(1), _REQUIRED), "N": (_Ints(1), _REQUIRED),
                       "gamma": (float, 2.5), "d_ratio": (float, 2.0), "snr_db": (float, 10.0),
                       "Gamma": (float, 1.0), "channel_order": (int, 6),
                       "tap_variance": (float, None), "tap_decay": (float, None),
                       "d": (_Array(2), None)},
    "uniqueness_mc": _COMMON | {"trials": (_Ints(1), 500), "d_ratio_sweep": ([float], None),
                                "Dq_modes": ([DQ_MODES], list(DQ_MODES)),
                                "conditions": ([CONDITION_NAMES], list(CONDITION_NAMES))},
    "check_uniqueness": _COMMON | {"Dq_mode": (DQ_MODES, "virtual_interferer")},
    "psd": _COMMON | {"check_rule": (bool, False), "solver": ("psd solver", {})},
    "psd solver": {"schedule": (str, "sequential"), "tol": (float, 1e-8),
                   "max_iter": (_Ints(1), 2000)},
    "rate_region symmetric": _REGION | {
        "resolution": (_Ints(2), 16), "splits": (_Ints(1), 8), "mg_tol": (float, 1e-6),
        "lambda_sweep": ([_Array(1)], [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])},
    "rate_region asymmetric": _REGION | {
        "seeds": (_Ints(1), 20), "restarts": (_Ints(1), 8), "d12_over_d21": (float, 0.2),
        "d_cross_geomean": (float, 2.0)},
    "rate_region channel_order": _REGION | {"orders": ([_Ints(0)], [0, 4, 8]),
                                            "seeds": (_Ints(1), 100)},
    "verify_theorem1": _COMMON | {"instances": (_Ints(1), 10), "samples": (int, 200),
                                  "payoffs": ([_PAYOFFS], list(_PAYOFFS)),
                                  "gap_Gamma": (float, 3.0)},
}

# Config values by JSON type.
_KINDS = {int: (numbers.Integral, "integer"), float: (numbers.Real, "number"),
          bool: (bool, "boolean"), str: (str, "string"), dict: (dict, "object")}


def _config(cfg: dict, kind: str) -> dict:
    """Every key of entry kind ``kind`` (see ``_SCHEMAS``): as ``cfg`` gives it, read by its
    spec, or at its default.  A value that does not fit its spec, a missing required key and an
    unknown key are rejected by name."""
    if kind == "scenario":
        kind = "raw scenario" if "taps" in cfg else "ratio scenario"
    out = {}
    for key, (spec, default) in _SCHEMAS[kind].items():
        value = cfg.get(key, default)
        if value is _REQUIRED:
            raise InvalidInputError(f"config key {key!r} is required: {_describe(spec)}")
        out[key] = None if value is None and default is None else _read(key, value, spec)
    unknown = ", ".join(sorted(key for key in cfg if key not in out))
    if unknown:
        raise InvalidInputError(f"unknown {kind} keys: {unknown}")
    return out


def _read(key: str, value, spec):
    """``value`` read by ``spec`` (see ``_SCHEMAS``), or rejected by ``key`` if it does not fit."""
    read = value
    if isinstance(spec, _Array):
        try:
            read = np.asarray(value, dtype=np.float64)
            fits = read.ndim == spec.ndim
        except (TypeError, ValueError, OverflowError):  # a non-number, or a ragged array
            fits = False
        if fits and not math.isnan(spec.null) and np.isnan(read).any():  # a NaN literal stays
            read[np.equal(np.asarray(value, dtype=object), None)] = spec.null
    elif isinstance(spec, list):
        fits = type(value) is list and len(value) > 0
        read = [_read(key, v, spec[0]) for v in value] if fits else value
    elif isinstance(spec, tuple):
        if isinstance(value, str) and value not in spec:
            raise InvalidInputError(f"unknown {key} {value!r} (expected {', '.join(spec)})")
        fits = isinstance(value, str)
    elif isinstance(spec, str):
        fits = isinstance(value, dict)
        read = _config(value, spec) if fits else value
    else:
        kind = int if isinstance(spec, _Ints) else spec
        fits = isinstance(value, _KINDS[kind][0]) and isinstance(value, bool) == (kind is bool)
        if fits and isinstance(spec, _Ints):
            fits = value >= spec.least
        if fits and kind is float:
            try:
                read = float(value)
            except OverflowError:  # an integer past the float range
                fits = False
    if not fits:
        raise InvalidInputError(f"config key {key!r} must be {_describe(spec)}, got {value!r}")
    return read


def _describe(spec) -> str:
    """What ``spec`` reads, for a rejection message."""
    if isinstance(spec, _Array):
        return f"a {spec.ndim}-d JSON array of numbers"
    if isinstance(spec, list):
        return f"a non-empty JSON array, each entry {_describe(spec[0])}"
    if isinstance(spec, tuple):
        return "one of " + ", ".join(spec)
    if isinstance(spec, _Ints):
        return f"a JSON integer >= {spec.least}"
    return "a JSON " + _KINDS[dict if isinstance(spec, str) else spec][1]


def scenario_from_config(scen: dict, seed) -> ChannelSet:
    """Build a ChannelSet from a config fragment.

    Raw entry: explicit taps (nested [re, im] pairs), distances, powers.
    Ratio entry: Q/N plus gamma, d_ratio, snr_db, Gamma, channel_order;
    the taps are drawn from streams keyed by ``seed``.  The entry is
    checked against its kind's ``_SCHEMAS`` table first, whose keys are
    the parameters of ``ChannelSet`` and of ``ratio_scenario``.
    """
    scen = _config(scen, "scenario")
    if "taps" not in scen:
        return ratio_scenario(seed=seed, **scen)
    taps = scen["taps"]
    if taps.shape[-1] != 2:
        raise InvalidInputError("raw taps must be a (Q, Q, L+1, 2) re/im array")
    if scen["pmax_bar"] is None:
        scen["pmax_bar"] = np.full((len(taps), scen["N"]), UNBOUNDED)
    return ChannelSet(**dict(scen, taps=taps[..., 0] + 1j * taps[..., 1]))


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _write_csv(path: str, header: list, lines) -> None:
    """Write the header fields and ``lines``, rows joined by commas (no field needs quotes)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


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

# Trials certified per verdict_codes call.  Larger chunks spread the per-call
# costs thinner but hold more games at once: the usable-bin screen builds a
# (rows, N) price stack, so memory grows with the chunk.
_CHUNK = 8


def _chunk_codes(args) -> np.ndarray:
    """Verdict codes of a range of trials, shape (trials, distances, modes, conditions)."""
    scen, root_seed, trials, distances, modes = args
    games = ratio_sweeps([(root_seed, t) for t in trials], distances, **scen)
    codes = np.stack([verdict_codes(games, mode) for mode in modes], axis=1)
    return codes.reshape(len(trials), len(distances), *codes.shape[1:])


def run_uniqueness_mc(cfg: dict, out_path: str, workers: int = 1) -> dict:
    """Condition satisfaction probabilities over random channel draws.

    Sweeps the normalized interlink distance on matched fading: trial t
    draws its taps once (streams keyed by (seed, t, link)) and each
    distance rescales the same fading powers.  Trials are certified in
    fixed chunks of eight: a chunk draws its taps in one call, takes one
    FFT, and certifies the games of all its trials and distances as one
    stack per ``Dq_mode`` (:func:`verdict_codes`, whose C1 and C7 take an
    eigen-solve only where rigorous bounds leave the verdict open).  A
    probability counts the verdicts that hold; the result also counts, per
    (ratio, mode, condition), the boundary and error verdicts that it
    leaves out (``"boundary"``, ``"errors"``).  Rejects a config that does
    not fit ``_SCHEMAS["uniqueness_mc"]``, a raw (taps) scenario, which
    cannot be redrawn per trial, and a sweep entry <= 0 before any channel
    is built.  ``workers`` is capped at the CPU count and at the number of
    chunks, and one worker runs the chunks in this process; the output
    bytes do not depend on it.
    """
    conf = _config(cfg, "uniqueness_mc")
    scen, trials, modes = conf["scenario"], conf["trials"], conf["Dq_modes"]
    if "taps" in scen:
        raise InvalidInputError("uniqueness_mc redraws the taps per trial: use a ratio scenario")
    if workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {workers}")
    sweep = conf["d_ratio_sweep"]
    if sweep and not all(r > 0 for r in sweep):
        raise InvalidInputError(f"d_ratio_sweep entries must be > 0, got {sweep!r}")
    ratios = sweep or [scen["d_ratio"]]
    # An explicit distance matrix overrides d_ratio, as in ratio_scenario.
    distances = [scen["d"] if scen["d"] is not None else ratio_distances(scen["Q"], r)
                 for r in ratios]

    chunks = [(scen, conf["seed"], range(t, min(t + _CHUNK, trials)), distances, modes)
              for t in range(0, trials, _CHUNK)]
    workers = min(workers, os.cpu_count() or 1, len(chunks))
    if workers > 1:
        with Pool(workers) as pool:
            codes = np.concatenate(pool.map(_chunk_codes, chunks))
    else:
        codes = np.concatenate([_chunk_codes(chunk) for chunk in chunks])
    counts = {kind: (codes == c).sum(axis=0) for c, kind in enumerate(VERDICT_KINDS)}

    rows = []
    probs, boundary, errors = {}, {}, {}
    for i, ratio in enumerate(ratios):
        for j, mode in enumerate(modes):
            for c, name in enumerate(CONDITION_NAMES):
                if name not in conf["conditions"]:
                    continue
                p = counts["true"][i, j, c] / trials
                probs[(ratio, mode, name)] = p
                boundary[(ratio, mode, name)] = int(counts["boundary"][i, j, c])
                errors[(ratio, mode, name)] = int(counts["error"][i, j, c])
                rows.append(f"{_fmt(ratio)},{name},{mode},{_fmt(p)},{trials}")
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

def run_check_uniqueness(cfg: dict, out_path: str) -> dict:
    """Evaluate the seven uniqueness conditions and emit the JSON report; a
    config that does not fit its ``_SCHEMAS`` table is rejected before any
    channel is built."""
    conf = _config(cfg, "check_uniqueness")
    ch = scenario_from_config(conf["scenario"], seed=(conf["seed"],))
    payload = check_conditions(build_game(ch), Dq_mode=conf["Dq_mode"]).to_dict()
    _write_json(out_path, payload)
    return payload


# ---------------------------------------------------------------------------
# equilibrium PSD snapshot

def run_psd(cfg: dict, out_path: str) -> dict:
    """Solve one scenario to equilibrium and emit the per-bin powers.

    Rejects a config that does not fit its ``_SCHEMAS`` table, ``solver``
    block included, before any channel is built.
    """
    conf = _config(cfg, "psd")
    game = build_game(scenario_from_config(conf["scenario"], seed=(conf["seed"],)))
    res = solve(game, **conf["solver"])
    _write_csv(out_path, ["user", "carrier", "power"],
               [f"{q},{k},{v!r}" for q, powers in enumerate(res.profile.p.tolist(), 1)
                for k, v in enumerate(powers, 1)])

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
    if conf["check_rule"] and cls.orthogonal:
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
    Rejects a config that does not fit the ``_SCHEMAS`` table of its mode, a
    raw (taps) scenario in the two modes that redraw the taps, and asymmetric
    distance keys <= 0 before any channel is built.
    """
    mode = cfg.get("mode", "symmetric")
    conf = _config(cfg, f"rate_region {mode if mode in _REGION_MODES else 'symmetric'}")
    root_seed, scen = conf["seed"], conf["scenario"]
    if mode != "symmetric" and "taps" in scen:
        raise InvalidInputError(f"rate_region {mode} mode redraws the taps per seed: "
                                "use a ratio scenario")
    rows = []
    meta: dict = {"kind": "rate_region", "mode": mode, "config": cfg}
    Q_out = scen.get("Q")

    if mode == "symmetric":
        splits = np.linspace(0.15, 0.85, conf["splits"])
        ch = scenario_from_config(scen, seed=(root_seed,))
        game = build_game(ch)
        Q_out = game.Q
        # First, so that a game it is not defined for (Q != 2) fails before the grid.
        split_rates = total_split_rates(game, splits)
        region = sample_rate_region(game, conf["resolution"])
        for pt in region.points[region.pareto]:
            rows.append(["grid_pareto", ""] + [_fmt(v) for v in pt])
        ne = solve(game, tol=1e-9)
        ne_rates = rate_array(ne.profile.p, game)
        rows.append(["ne", ""] + [_fmt(v) for v in ne_rates])
        for lam in conf["lambda_sweep"]:
            mg = solve_modified_game(game, lam, tol=conf["mg_tol"])
            rows.append(["modified_game", _lambda_label(lam)] + [_fmt(v) for v in mg.rates])
        for t, pt in zip(splits, split_rates):
            rows.append(["ne_total_split", _fmt(t)] + [_fmt(v) for v in pt])
        meta["ne_rates"] = ne_rates.tolist()
        meta["ne_converged"] = ne.converged
        meta["pareto_count"] = int(region.pareto.sum())
    elif mode == "asymmetric":
        ratio, geo = conf["d12_over_d21"], conf["d_cross_geomean"]
        if scen["Q"] != 2:
            raise InvalidInputError("asymmetric mode is two-user")
        for key in ("d12_over_d21", "d_cross_geomean"):
            if not conf[key] > 0:
                raise InvalidInputError(f"{key} must be > 0, got {conf[key]!r}")
        d = np.ones((2, 2))
        d[0, 1] = geo * np.sqrt(ratio)
        d[1, 0] = geo / np.sqrt(ratio)
        losses = []
        for s in range(conf["seeds"]):
            ch = scenario_from_config(dict(scen, d=d), seed=(root_seed, s))
            game = build_game(ch)
            ne = solve(game, tol=1e-9)
            ne_rates = rate_array(ne.profile.p, game)
            sc_res = solve_scalarized(game, np.ones(2), restarts=conf["restarts"],
                                      seed=root_seed + s, tol=1e-9)
            opt_rates = rate_array(sc_res.profile.p, game)
            loss = 1.0 - ne_rates.sum() / max(sc_res.value, 1e-300)
            losses.append(loss)
            rows.append(["ne", str(s)] + [_fmt(v) for v in ne_rates])
            rows.append(["scalarized", str(s)] + [_fmt(v) for v in opt_rates])
        meta["sum_rate_loss"] = losses
        meta["max_loss"] = max(losses)
    else:
        seeds = conf["seeds"]
        means = {}
        for L in conf["orders"]:
            acc = np.zeros(Q_out)
            for s in range(seeds):
                ch = scenario_from_config(dict(scen, channel_order=L), seed=(root_seed, L, s))
                game = build_game(ch)
                ne = solve(game, tol=1e-8)
                acc += rate_array(ne.profile.p, game)
            means[L] = acc / seeds
            rows.append(["ne_mean_order", str(L)] + [_fmt(v) for v in means[L]])
        meta["order_means"] = {str(L): v.tolist() for L, v in means.items()}

    header = ["provenance", "label"] + [f"r{q + 1}" for q in range(Q_out)]
    _write_csv(out_path, header, map(",".join, rows))
    _write_meta(out_path, meta)
    return meta


# ---------------------------------------------------------------------------
# diagonal-optimality verification

def run_verify_theorem1(cfg: dict, out_path: str) -> dict:
    """Random-precoder dominance experiment across instances and payoffs.

    Rejects a config that does not fit its ``_SCHEMAS`` table before any
    channel is built.
    """
    conf = _config(cfg, "verify_theorem1")
    root_seed, payoffs = conf["seed"], conf["payoffs"]
    results = []
    for inst in range(conf["instances"]):
        ch = scenario_from_config(conf["scenario"], seed=(root_seed, inst))
        seeds = [root_seed * 1000003 + inst * 101 + q for q in range(ch.Q)]
        reports = verify_instance(ch, seeds, conf["samples"], payoffs, conf["gap_Gamma"])
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
