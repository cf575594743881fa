import contextlib
import copy
import csv
import io
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specnash import InvalidInputError, NumericFailureError
from specnash.channel import build_game
from specnash.cli import main
from specnash.experiments import (
    run_check_uniqueness,
    run_psd,
    run_rate_region,
    run_uniqueness_mc,
    run_verify_theorem1,
    scenario_from_config,
)
from specnash.uniqueness import CONDITION_NAMES, check_conditions
from trial_oracle import oracle_trial_codes

MC_CFG = {
    "kind": "uniqueness_mc",
    "seed": 5,
    "trials": 12,
    "scenario": {"Q": 3, "N": 16, "gamma": 2.5, "snr_db": -5.0, "Gamma": 1.0,
                 "channel_order": 4},
    "d_ratio_sweep": [1.0, 2.0, 4.0],
}

PSD_CFG = {
    "kind": "psd",
    "seed": 2,
    "scenario": {"Q": 2, "N": 16, "gamma": 2.5, "snr_db": 10.0, "Gamma": 1.0,
                 "channel_order": 3, "d_ratio": 0.4},
    "check_rule": True,
}


# One quick config per subcommand.
SMALL_CFGS = {
    "solve": PSD_CFG,
    "check-uniqueness": {"seed": 1, "scenario": PSD_CFG["scenario"]},
    "montecarlo": MC_CFG | {"trials": 2, "d_ratio_sweep": [2.0]},
    "rate-region": {
        "seed": 8, "mode": "symmetric", "resolution": 5, "splits": 2,
        "lambda_sweep": [[1.0, 1.0]],
        "scenario": {"Q": 2, "N": 2, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                     "channel_order": 1, "d_ratio": 3.0},
    },
    "verify-theorem1": {
        "seed": 9, "instances": 1, "samples": 50, "payoffs": ["mutual_information"],
        "scenario": {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                     "channel_order": 2, "d_ratio": 2.0},
    },
}



def raw_scenario(pmax_bar):
    """Raw two-user, 16-bin entry with fixed taps at 10 dB."""
    taps = np.zeros((2, 2, 3, 2))
    taps[0, 0] = [[1.0, 0.2], [0.4, -0.1], [0.1, 0.3]]
    taps[1, 1] = [[0.8, -0.3], [0.2, 0.5], [-0.2, 0.1]]
    taps[0, 1] = [[0.3, 0.1], [0.1, 0.0], [0.0, 0.1]]
    taps[1, 0] = [[0.2, -0.2], [0.1, 0.1], [0.1, 0.0]]
    scen = {"taps": taps.tolist(), "d": [[1.0, 2.0], [2.0, 1.0]], "gamma": 2.5,
            "P": [10.0, 10.0], "sigma2": [1.0, 1.0], "Gamma": [1.0, 1.0], "N": 16}
    if pmax_bar is not None:
        scen["pmax_bar"] = pmax_bar
    return scen

def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestScenarioFromConfig:
    def test_raw_taps_roundtrip(self):
        taps = np.zeros((1, 1, 2, 2))
        taps[0, 0, 0] = [1.0, 0.5]
        taps[0, 0, 1] = [0.2, -0.1]
        scen = {
            "taps": taps.tolist(),
            "d": [[1.0]],
            "gamma": 2.0,
            "P": [2.0],
            "sigma2": [1.0],
            "Gamma": [1.0],
            "N": 4,
            "pmax_bar": [[1.0, None, 2.0, None]],
        }
        ch = scenario_from_config(scen, seed=(0,))
        assert ch.taps[0, 0, 0] == pytest.approx(1.0 + 0.5j)
        assert np.isinf(ch.pmax_bar[0, 1])
        assert ch.pmax_bar[0, 2] == 2.0

    def test_ratio_entry(self):
        ch = scenario_from_config(MC_CFG["scenario"] | {"d_ratio": 2.0}, seed=(1, 2))
        assert ch.Q == 3 and ch.N == 16

    def test_seed_controls_taps(self):
        a = scenario_from_config(MC_CFG["scenario"] | {"d_ratio": 2.0}, seed=(1, 2))
        b = scenario_from_config(MC_CFG["scenario"] | {"d_ratio": 2.0}, seed=(1, 3))
        assert a.taps.tobytes() != b.taps.tobytes()


class TestUniquenessMc:
    def test_schema_and_monotonicity(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        summary = run_uniqueness_mc(MC_CFG, out)
        rows = read_csv(out)
        assert set(rows[0]) == {"d_ratio", "condition", "Dq_mode", "prob", "trials"}
        trials = summary["trials"]
        sigma = np.sqrt(0.25 / trials)
        for mode in summary["modes"]:
            for name in ("C1", "C2", "C5", "C7"):
                probs = [summary["probs"][(r, mode, name)] for r in summary["ratios"]]
                for a, b in zip(probs, probs[1:]):
                    assert b >= a - 2 * sigma, (mode, name, probs)

    def test_worker_invariance(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_uniqueness_mc(MC_CFG, a, workers=1)
        run_uniqueness_mc(MC_CFG, b, workers=2)
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("change", [
        {"trials": 21, "Dq_modes": ["virtual_interferer", "all"]},  # not a whole number of chunks
        {"trials": 10, "scenario": MC_CFG["scenario"] | {"d": [[1.0, 2.0, 3.0], [1.5, 1.0, 2.5],
                                                             [0.7, 4.0, 1.0]]}},
        {"trials": 10, "seed": 8, "scenario": MC_CFG["scenario"] | {"tap_decay": 1.5}},
    ])
    def test_chunks_equal_trial_oracle(self, tmp_path, change):
        # Chunks of trials certified as one stack give each trial's verdicts as
        # certifying the trials one by one did, with one worker or two.
        cfg = MC_CFG | change
        codes = np.stack([oracle_trial_codes(cfg, t) for t in range(cfg["trials"])])
        outputs = []
        for workers in (1, 2):
            out = str(tmp_path / f"w{workers}.csv")
            summary = run_uniqueness_mc(cfg, out, workers=workers)
            outputs.append(open(out, "rb").read() + open(out + ".meta.json", "rb").read())
            for i, ratio in enumerate(summary["ratios"]):
                for j, mode in enumerate(summary["modes"]):
                    for c, name in enumerate(CONDITION_NAMES):
                        key, count = (ratio, mode, name), np.bincount(codes[:, i, j, c], minlength=4)
                        assert summary["probs"][key] == count[1] / cfg["trials"], key
                        assert (summary["boundary"][key], summary["errors"][key]) == tuple(count[2:])
        assert outputs[0] == outputs[1]

    def test_meta_sidecar(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        run_uniqueness_mc(MC_CFG, out)
        meta = json.load(open(out + ".meta.json"))
        assert meta["kind"] == "uniqueness_mc"
        assert meta["trials"] == 12
        assert meta["csv_schema_version"] == 1

    @pytest.mark.parametrize("change,named", [
        ({"trial": 3}, "trial"),
        ({"conditions": ["C9"]}, "C9"),
        ({"conditions": []}, "conditions"),
        ({"d_ratio_sweep": []}, "d_ratio_sweep"),
        ({"Dq_modes": []}, "Dq_modes"),
        ({"Dq_modes": ["psychic"]}, "psychic"),
    ])
    def test_bad_config_exit_code(self, tmp_path, monkeypatch, capsys, change, named):
        # Each exited 0 before: "trial" ran the default 500 trials, and the
        # others wrote a header-only CSV.
        import specnash.experiments as experiments_mod

        def no_channel(*args, **kwargs):
            raise AssertionError("config rejected only after building a channel")

        monkeypatch.setattr(experiments_mod, "scenario_from_config", no_channel)
        monkeypatch.setattr(experiments_mod, "ratio_sweeps", no_channel)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MC_CFG | change))
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_boundary_and_error_verdicts_are_counted_and_noted(self, tmp_path, monkeypatch,
                                                               capsys):
        import specnash.uniqueness as uniqueness

        cfg = MC_CFG | {"trials": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        def montecarlo(out: str) -> str:
            args = ["montecarlo", "--config", str(cfg_path), "--out", str(tmp_path / out)]
            assert main(args) == 0
            return capsys.readouterr().err

        assert "note:" not in montecarlo("a.csv")

        def failing(M):
            raise NumericFailureError("eigen-solve failed")

        monkeypatch.setattr(uniqueness, "spectral_radius", failing)
        summary = run_uniqueness_mc(cfg, str(tmp_path / "b.csv"))
        # Every C2 verdict and every C1 verdict its bounds leave open is an
        # error, which the probability does not count as holding.
        c1 = [summary["errors"][r, "virtual_interferer", "C1"] for r in cfg["d_ratio_sweep"]]
        for r in cfg["d_ratio_sweep"]:
            for mode in ("virtual_interferer", "all"):
                assert summary["errors"][r, mode, "C2"] == 3
                assert summary["probs"][r, mode, "C2"] == 0.0
                assert summary["errors"][r, mode, "C3"] == 0
        assert 0 < sum(c1) < 3 * len(c1)
        errors = sum(summary["errors"].values())
        boundary = sum(summary["boundary"].values())
        assert montecarlo("c.csv") == (
            f"note: {boundary} boundary and {errors} error verdicts, not counted as holding\n")
        # The note leaves the files as run_uniqueness_mc writes them.
        for suffix in (".csv", ".csv.meta.json"):
            assert (tmp_path / f"c{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    def test_accepted_keys(self, tmp_path):
        out = tmp_path / "mc.csv"
        cfg = MC_CFG | {"out": str(out), "trials": 2, "Dq_modes": ["all"], "conditions": ["C2"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["montecarlo", "--config", str(cfg_path)]) == 0
        rows = read_csv(out)
        assert [(r["d_ratio"], r["condition"], r["Dq_mode"]) for r in rows] == [
            (repr(r), "C2", "all") for r in MC_CFG["d_ratio_sweep"]
        ]
        assert json.loads((tmp_path / "mc.csv.meta.json").read_text())["config"] == cfg


class TestPsd:
    def test_rows_and_meta(self, tmp_path):
        out = str(tmp_path / "psd.csv")
        meta = run_psd(PSD_CFG, out)
        rows = read_csv(out)
        assert len(rows) == 2 * 16
        assert rows[0]["user"] == "1" and rows[0]["carrier"] == "1"
        total = sum(float(r["power"]) for r in rows if r["user"] == "1")
        assert total / 16 <= 1.0 + 1e-9
        assert meta["converged"]
        assert "classification" in meta and "rates" in meta

    def test_high_interference_rule_checked(self, tmp_path):
        out = str(tmp_path / "psd.csv")
        meta = run_psd(PSD_CFG, out)
        if meta["classification"]["orthogonal"]:
            assert "allocation_rule" in meta


class TestPsdRegimes:
    """The three interference regimes the solver is expected to exhibit."""

    def test_low_interference_near_flat(self, tmp_path):
        # Mildly selective deterministic channel, wide separation, high SNR.
        order, decay, Q = 3, 0.45, 3
        pdp = np.exp(-np.arange(order + 1) / decay)
        pdp /= pdp.sum()
        taps = np.zeros((Q, Q, order + 1, 2))
        for r in range(Q):
            for q in range(Q):
                phase = 2.0 * np.pi * (3 * r + q + 1) * np.arange(order + 1) / 7.0
                taps[r, q, :, 0] = np.sqrt(pdp) * np.cos(phase)
                taps[r, q, :, 1] = np.sqrt(pdp) * np.sin(phase)
        d = np.full((Q, Q), 12.0)
        np.fill_diagonal(d, 1.0)
        snr = 10.0 ** 1.5
        cfg = {
            "seed": 0,
            "scenario": {
                "taps": taps.tolist(), "d": d.tolist(), "gamma": 2.5,
                "P": [snr] * Q, "sigma2": [1.0] * Q, "Gamma": [1.0] * Q, "N": 64,
            },
        }
        meta = run_psd(cfg, str(tmp_path / "flat.csv"))
        assert meta["converged"]
        assert max(meta["classification"]["flatness"]) < 0.05
        assert not meta["classification"]["orthogonal"]

    def test_high_interference_orthogonal(self, tmp_path):
        cfg = {
            "seed": 0,
            "check_rule": True,
            "scenario": {"Q": 2, "N": 32, "gamma": 2.5, "snr_db": 5.0, "Gamma": 1.0,
                         "channel_order": 3, "d_ratio": 0.4},
        }
        meta = run_psd(cfg, str(tmp_path / "orth.csv"))
        assert meta["converged"]
        assert meta["classification"]["orthogonal"]
        assert meta["classification"]["shared_carriers"] == 0

    def test_intermediate_interference_overlapped(self, tmp_path):
        cfg = {
            "seed": 1,
            "scenario": {"Q": 3, "N": 32, "gamma": 2.5, "snr_db": 15.0, "Gamma": 1.0,
                         "channel_order": 3, "d_ratio": 5.0},
        }
        meta = run_psd(cfg, str(tmp_path / "mid.csv"))
        assert meta["converged"]
        assert not meta["classification"]["orthogonal"]
        assert max(meta["classification"]["flatness"]) > 0.05
        assert meta["classification"]["shared_carriers"] > 0


class TestRateRegion:
    def test_symmetric_mode(self, tmp_path):
        cfg = {
            "kind": "rate_region",
            "seed": 3,
            "mode": "symmetric",
            "resolution": 13,
            "splits": 4,
            "lambda_sweep": [[1.0, 1.0]],
            "scenario": {"Q": 2, "N": 2, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                         "channel_order": 1, "d_ratio": 3.0},
        }
        out = str(tmp_path / "rr.csv")
        meta = run_rate_region(cfg, out)
        rows = read_csv(out)
        kinds = {r["provenance"] for r in rows}
        assert {"grid_pareto", "ne", "modified_game", "ne_total_split"} <= kinds
        # No equilibrium point may strictly dominate a Pareto sample
        # beyond grid slack.
        ne = np.array([[float(r["r1"]), float(r["r2"])] for r in rows if r["provenance"] == "ne"])
        grid = np.array(
            [[float(r["r1"]), float(r["r2"])] for r in rows if r["provenance"] == "grid_pareto"]
        )
        slack = 0.1
        for point in grid:
            assert not ((ne >= point + slack).all(axis=1)).any()
        assert meta["ne_converged"]

    def test_symmetric_ne_near_frontier_max_sum(self, tmp_path):
        # Moderate separation: the equilibrium sum rate sits within 5% of
        # the best sum over the sampled region.
        cfg = {
            "kind": "rate_region",
            "seed": 0,
            "mode": "symmetric",
            "resolution": 41,
            "splits": 3,
            "lambda_sweep": [[1.0, 1.0]],
            "scenario": {"Q": 2, "N": 2, "gamma": 2.5, "snr_db": 10.0, "Gamma": 1.0,
                         "channel_order": 1, "d_ratio": 5.0},
        }
        out = str(tmp_path / "sym5.csv")
        meta = run_rate_region(cfg, out)
        rows = read_csv(out)
        ne_sum = sum(float(r["r1"]) + float(r["r2"]) for r in rows if r["provenance"] == "ne")
        best_sum = max(
            float(r["r1"]) + float(r["r2"]) for r in rows if r["provenance"] == "grid_pareto"
        )
        assert ne_sum >= 0.95 * best_sum
        assert meta["ne_converged"]

    def test_asymmetric_mode(self, tmp_path):
        cfg = {
            "kind": "rate_region",
            "seed": 1,
            "mode": "asymmetric",
            "seeds": 3,
            "restarts": 3,
            "d12_over_d21": 0.2,
            "d_cross_geomean": 1.5,
            "scenario": {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 5.0, "Gamma": 1.0,
                         "channel_order": 2},
        }
        out = str(tmp_path / "asym.csv")
        meta = run_rate_region(cfg, out)
        assert len(meta["sum_rate_loss"]) == 3
        assert meta["max_loss"] <= 1.0

    def test_channel_order_mode_rates_improve(self, tmp_path):
        # Frequency selectivity helps the equilibria on average: mean rates
        # are nondecreasing in the channel order.
        cfg = {
            "kind": "rate_region",
            "seed": 55,
            "mode": "channel_order",
            "orders": [0, 4, 8],
            "seeds": 100,
            "scenario": {"Q": 2, "N": 16, "gamma": 2.5, "snr_db": 5.0, "Gamma": 1.0,
                         "d_ratio": 1.0},
        }
        out = str(tmp_path / "orders.csv")
        meta = run_rate_region(cfg, out)
        sums = [sum(meta["order_means"][str(L)]) for L in (0, 4, 8)]
        assert sums[1] >= sums[0] - 0.02
        assert sums[2] >= sums[1] - 0.02
        assert sums[2] > sums[0]


class TestVerifyTheorem1Driver:
    def test_report(self, tmp_path):
        cfg = {
            "kind": "verify_theorem1",
            "seed": 0,
            "instances": 2,
            "samples": 50,
            "payoffs": ["mutual_information"],
            "scenario": {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                         "channel_order": 2, "d_ratio": 2.0},
        }
        out = str(tmp_path / "t1.json")
        report = run_verify_theorem1(cfg, out)
        assert report["total_violations"] == 0
        loaded = json.load(open(out))
        assert loaded["total_violations"] == 0

    @pytest.mark.parametrize("change", [
        {"instances": 0},
        {"instances": -1},
        {"payoffs": []},
        {"payoffs": ["capacity"]},
        {"payoffs": ["gap", "mse"]},
        {"sample": 10},
    ])
    def test_bad_config_exit_code(self, tmp_path, monkeypatch, capsys, change):
        # Each of these exited 0: no instances or payoffs wrote a -Infinity
        # worst gap, and an unknown key such as "sample" was ignored.
        import specnash.experiments as experiments_mod

        def no_channel(*args, **kwargs):
            raise AssertionError("config rejected only after building a channel")

        monkeypatch.setattr(experiments_mod, "scenario_from_config", no_channel)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFGS["verify-theorem1"] | change))
        out = tmp_path / "t.json"
        rc = main(["verify-theorem1", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_accepted_keys(self, tmp_path):
        cfg = SMALL_CFGS["verify-theorem1"] | {
            "kind": "verify_theorem1", "out": str(tmp_path / "unused.json"), "gap_Gamma": 2.0,
            "payoffs": ["gap"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "t.json"
        assert main(["verify-theorem1", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == cfg


class TestPsdDriver:
    def test_unknown_schedule_builds_no_channel(self, tmp_path, monkeypatch):
        # The schema took any string, so solve rejected "jacobi" only after
        # one build_game call.
        import specnash.experiments as experiments_mod

        built, build = [], experiments_mod.build_game
        monkeypatch.setattr(experiments_mod, "build_game", lambda ch: built.append(ch) or build(ch))
        cfg = {"seed": 0, "scenario": {"Q": 2, "N": 8}, "solver": {"schedule": "jacobi"}}
        with pytest.raises(InvalidInputError, match="unknown schedule 'jacobi'"):
            run_psd(cfg, str(tmp_path / "x.csv"))
        assert built == []
        run_psd(cfg | {"solver": {"schedule": "simultaneous"}}, str(tmp_path / "x.csv"))
        assert len(built) == 1

    @pytest.mark.parametrize("change,named", [
        ({"trial": 10}, "trial"),
        ({"solver": {"tolerance": 1e-10}}, "tolerance"),
        ({"solver": {"schedule": "simultaneous", "maxiter": 5}}, "maxiter"),
        ({"solver": [1e-10]}, "object"),
    ])
    def test_bad_config_exit_code(self, tmp_path, monkeypatch, capsys, change, named):
        # "tolerance" silently ran at the default tol of 1e-8 before.
        import specnash.experiments as experiments_mod

        def no_channel(*args, **kwargs):
            raise AssertionError("config rejected only after building a channel")

        monkeypatch.setattr(experiments_mod, "scenario_from_config", no_channel)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PSD_CFG | change))
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_accepted_keys(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = PSD_CFG | {"out": str(out), "solver": {"schedule": "sequential", "tol": 1e-10,
                                                     "max_iter": 500}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert meta["config"] == cfg and meta["converged"] and meta["residual"] <= 1e-10


REGION_SCENARIO = {"Q": 2, "N": 4, "gamma": 2.5, "snr_db": 5.0, "Gamma": 1.0,
                   "channel_order": 2}
REGION_CFGS = {
    "symmetric": SMALL_CFGS["rate-region"],
    "asymmetric": {"seed": 1, "mode": "asymmetric", "seeds": 1, "restarts": 1,
                   "d12_over_d21": 0.2, "d_cross_geomean": 1.5, "scenario": REGION_SCENARIO},
    "channel_order": {"seed": 2, "mode": "channel_order", "orders": [0, 2], "seeds": 2,
                      "scenario": REGION_SCENARIO | {"d_ratio": 2.0}},
}


class TestConfigValidation:
    @pytest.fixture
    def no_channel(self, monkeypatch):
        import specnash.experiments as experiments_mod

        def fail(*args, **kwargs):
            raise AssertionError("config rejected only after building a channel")

        monkeypatch.setattr(experiments_mod, "scenario_from_config", fail)
        monkeypatch.setattr(experiments_mod, "ratio_sweeps", fail)

    def run(self, tmp_path, command, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x.out"
        rc = main([command, "--config", str(cfg_path), "--out", str(out)])
        return rc, out

    @pytest.mark.parametrize("command,cfg,key", [
        ("montecarlo", MC_CFG | {"d_ratio_sweep": 2.0}, "d_ratio_sweep"),
        ("montecarlo", MC_CFG | {"d_ratio_sweep": [1.0, None]}, "d_ratio_sweep"),
        ("montecarlo", MC_CFG | {"trials": None}, "trials"),
        ("montecarlo", MC_CFG | {"trials": True}, "trials"),
        ("montecarlo", MC_CFG | {"Dq_modes": "all"}, "Dq_modes"),
        ("solve", PSD_CFG | {"seed": None}, "seed"),
        ("solve", PSD_CFG | {"solver": {"tol": "1e-9"}}, "tol"),
        ("solve", PSD_CFG | {"check_rule": "yes"}, "check_rule"),
        ("verify-theorem1", SMALL_CFGS["verify-theorem1"] | {"instances": None}, "instances"),
        ("verify-theorem1", SMALL_CFGS["verify-theorem1"] | {"payoffs": "gap"}, "payoffs"),
        ("check-uniqueness", SMALL_CFGS["check-uniqueness"] | {"Dq_mode": ["all"]}, "Dq_mode"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"resolution": 4.5}, "resolution"),
        ("rate-region", REGION_CFGS["channel_order"] | {"orders": 4}, "orders"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"scenario": None}, "scenario"),
        ("montecarlo", MC_CFG | {"scenario": None}, "scenario"),
        ("solve", PSD_CFG | {"scenario": None}, "scenario"),
        ("check-uniqueness", {"seed": 1, "scenario": None}, "scenario"),
        ("verify-theorem1", SMALL_CFGS["verify-theorem1"] | {"scenario": None}, "scenario"),
    ])
    def test_wrong_type_exit_code(self, tmp_path, capsys, no_channel, command, cfg, key):
        # Each printed a TypeError (or AttributeError) traceback, ran on a
        # value of the wrong type, or (Dq_modes) read "all" as the unknown
        # modes "a, l, l".
        rc, out = self.run(tmp_path, command, cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be ")

    @pytest.mark.parametrize("command,cfg,key", [
        ("solve", PSD_CFG | {"solver": {"max_iter": 0}}, "max_iter"),
        ("solve", PSD_CFG | {"solver": {"max_iter": -4}}, "max_iter"),
        ("montecarlo", MC_CFG | {"trials": 0}, "trials"),
        ("rate-region", REGION_CFGS["channel_order"] | {"seeds": 0}, "seeds"),
        ("rate-region", REGION_CFGS["channel_order"] | {"orders": [-2]}, "orders"),
        ("rate-region", REGION_CFGS["channel_order"] | {"orders": []}, "orders"),
        ("rate-region", REGION_CFGS["asymmetric"] | {"seeds": 0}, "seeds"),
        ("rate-region", REGION_CFGS["asymmetric"] | {"restarts": 0}, "restarts"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"splits": 0}, "splits"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"resolution": 1}, "resolution"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"lambda_sweep": []}, "lambda_sweep"),
    ])
    def test_count_out_of_range_exit_code(self, tmp_path, capsys, no_channel, command, cfg, key):
        # max_iter 0 wrote the initial profile with an infinite residual and
        # channel_order seeds 0 wrote NaN rates, both with exit 0; asymmetric
        # seeds or restarts 0 and a negative order failed deep in numpy, and
        # empty orders or lambda_sweep passed silently.
        rc, out = self.run(tmp_path, command, cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must ")

    @pytest.mark.parametrize("command,cfg,named", [
        ("montecarlo", MC_CFG, "uniqueness_mc"),
        ("rate-region", REGION_CFGS["asymmetric"], "rate_region asymmetric mode"),
        ("rate-region", REGION_CFGS["channel_order"], "rate_region channel_order mode"),
    ])
    def test_raw_scenario_where_taps_are_redrawn_exit_code(self, tmp_path, capsys, no_channel,
                                                           command, cfg, named):
        # A raw entry's taps cannot be redrawn per trial or seed: montecarlo
        # failed on a d_ratio key the user never wrote, and rate-region on a
        # bare KeyError 'Q'.
        rc, out = self.run(tmp_path, command, cfg | {"scenario": raw_scenario(None)})
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {named} redraws the taps per ")

    @pytest.mark.parametrize("command", sorted(SMALL_CFGS))
    @pytest.mark.parametrize("top,seed", [([1, 2], []), ("x", ["--seed", "3"])])
    def test_non_object_config_exit_code(self, tmp_path, capsys, no_channel, command, top, seed):
        # [1, 2] raised AttributeError under solve and rate-region and read as
        # the unknown keys "1, 2" under montecarlo; "x" with --seed raised a
        # TypeError on every command.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(top))
        out = tmp_path / "x.out"
        assert main([command, "--config", str(cfg_path), "--out", str(out), *seed]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: config must be a JSON object, got ")

    @pytest.mark.parametrize("command", sorted(SMALL_CFGS))
    def test_non_string_out_exit_code(self, tmp_path, monkeypatch, capsys, no_channel, command):
        # "out": true opened file descriptor 1 (stdout) as the output file,
        # closed it, then raised a TypeError writing the meta sidecar.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(SMALL_CFGS[command] | {"out": True}))
        assert main([command, "--config", "cfg.json"]) == 1
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]
        assert capsys.readouterr().err.startswith("error: config key 'out' must be a JSON string")

    def test_null_out_writes_the_default_file(self, tmp_path, monkeypatch):
        # A key with no default value reads null as absent, so "out": null
        # falls back to the subcommand's default file.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(PSD_CFG | {"out": None}))
        assert main(["solve", "--config", "cfg.json"]) == 0
        assert (tmp_path / "psd.csv").exists()

    @pytest.mark.parametrize("command,cfg,named", [
        ("rate-region", SMALL_CFGS["rate-region"] | {"resolutoin": 4}, "resolutoin"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"seeds": 3}, "seeds"),
        ("rate-region", REGION_CFGS["asymmetric"] | {"resolution": 5}, "resolution"),
        ("rate-region", REGION_CFGS["channel_order"] | {"restarts": 2}, "restarts"),
        ("check-uniqueness", SMALL_CFGS["check-uniqueness"] | {"Dq_mdoe": "all"}, "Dq_mdoe"),
        ("check-uniqueness", SMALL_CFGS["check-uniqueness"] | {"Dq_mode": "al"}, "al"),
    ])
    def test_unknown_key_exit_code(self, tmp_path, capsys, no_channel, command, cfg, named):
        # "resolutoin" ran at resolution 16, and "Dq_mdoe" ran the default
        # mode; an unknown Dq_mode failed only after the channel was built.
        rc, out = self.run(tmp_path, command, cfg)
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and named in err

    @pytest.mark.parametrize("mode", sorted(REGION_CFGS))
    def test_region_accepted_keys(self, tmp_path, mode):
        cfg = REGION_CFGS[mode] | {"kind": "rate_region", "out": str(tmp_path / "unused.csv")}
        if mode == "symmetric":
            cfg["mg_tol"] = 1e-6
        rc, out = self.run(tmp_path, "rate-region", cfg)
        assert rc == 0
        assert json.loads(out.with_name(out.name + ".meta.json").read_text())["config"] == cfg

    def test_check_uniqueness_accepted_keys(self, tmp_path):
        cfg = SMALL_CFGS["check-uniqueness"] | {"kind": "check_uniqueness", "Dq_mode": "all",
                                                "out": str(tmp_path / "unused.json")}
        rc, out = self.run(tmp_path, "check-uniqueness", cfg)
        assert rc == 0
        assert set(json.loads(out.read_text())["conditions"]) == {f"C{i}" for i in range(1, 8)}

    @pytest.mark.parametrize("command,cfg,key", [
        ("solve", PSD_CFG | {"scenario": {"Q": 2, "N": 4, "snr_db": None, "channel_order": 1}},
         "snr_db"),
        ("solve", PSD_CFG | {"scenario": {"Q": 2.7, "N": "4", "channel_order": 1}}, "Q"),
        ("solve", PSD_CFG | {"scenario": {"Q": 2, "N": "4", "channel_order": 1}}, "N"),
        ("solve", PSD_CFG | {"scenario": raw_scenario(None) | {"N": 16.0}}, "N"),
        ("solve", PSD_CFG | {"scenario": raw_scenario(None) | {"gamma": "2.5"}}, "gamma"),
        ("check-uniqueness", {"seed": 1, "scenario": PSD_CFG["scenario"] | {"gamma": "2.5"}},
         "gamma"),
        ("montecarlo", MC_CFG | {"scenario": MC_CFG["scenario"] | {"channel_order": 1.5}},
         "channel_order"),
        ("rate-region", REGION_CFGS["asymmetric"] | {"scenario": REGION_SCENARIO | {"Q": None}},
         "Q"),
        ("rate-region", REGION_CFGS["channel_order"] | {"scenario": REGION_SCENARIO | {"Q": "2"}},
         "Q"),
        ("verify-theorem1", SMALL_CFGS["verify-theorem1"]
         | {"scenario": SMALL_CFGS["verify-theorem1"]["scenario"] | {"d_ratio": "2"}}, "d_ratio"),
    ])
    def test_wrong_scenario_value_type_exit_code(self, tmp_path, capsys, command, cfg, key):
        # Values inside a scenario block were not type-checked: each of these
        # printed a TypeError traceback or ran on a coerced value (Q = 2.7 as
        # 2, N = "4" as 4, N = 16.0 as 16, channel_order = 1.5 as 1).
        rc, out = self.run(tmp_path, command, cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be ")

    @pytest.mark.parametrize("solver", [{"tol": float("nan")}, {"tol": 0.0}, {"tol": -1e-9}])
    def test_solver_tol_must_be_positive(self, tmp_path, capsys, solver):
        # A NaN tol passed the old "tol <= 0" check: the solve ran to max_iter
        # and exited 0 with converged: false.
        rc, out = self.run(tmp_path, "solve", PSD_CFG | {"solver": solver})
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: tol must be positive")

    @pytest.mark.parametrize("change,key", [
        ({"channel_order": -1}, "channel_order"),  # was a ZeroDivisionError traceback
        ({"snr_db": 1e300}, "snr_db"),  # was an OverflowError traceback
        ({"snr_db": float("inf")}, "snr_db"),
    ])
    def test_ratio_scenario_values_exit_code(self, tmp_path, capsys, change, key):
        rc, out = self.run(tmp_path, "solve", PSD_CFG | {"scenario": PSD_CFG["scenario"] | change})
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {key} must ")

    def test_symmetric_region_rejects_three_users_before_the_grid(self, tmp_path, capsys,
                                                                   monkeypatch):
        # The split sweep is two-user; a Q = 3 scenario used to fail only
        # after the grid, the equilibrium and every side-payment solve.
        import specnash.experiments as experiments_mod

        def no_grid(*args, **kwargs):
            raise AssertionError("Q = 3 rejected only after the grid")

        monkeypatch.setattr(experiments_mod, "sample_rate_region", no_grid)
        base = SMALL_CFGS["rate-region"]
        cfg = base | {"lambda_sweep": [[1.0, 1.0, 1.0]], "scenario": base["scenario"] | {"Q": 3}}
        rc, out = self.run(tmp_path, "rate-region", cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: total_split sweep is defined for Q = 2")

    @pytest.mark.parametrize("command,cfg,message", [
        ("check-uniqueness", {"seed": 1, "scenario": PSD_CFG["scenario"] | {"Gamma": float("inf")}},
         "Gamma must be "),
        ("montecarlo", MC_CFG | {"scenario": MC_CFG["scenario"] | {"Gamma": float("inf")}},
         "Gamma must be "),
        ("check-uniqueness", {"seed": 1, "scenario": raw_scenario(None) | {"gamma": float("nan")}},
         "gamma must be finite"),
        ("rate-region", SMALL_CFGS["rate-region"] | {"lambda_sweep": [[float("nan"), 1.0]]},
         "weights must be "),
        ("rate-region", SMALL_CFGS["rate-region"] | {"mg_tol": float("nan")}, "tol must be "),
        ("rate-region", SMALL_CFGS["rate-region"] | {"mg_tol": -1.0}, "tol must be "),
    ])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, command, cfg, message):
        # An infinite Gamma exited 3 on a failed eigen-solve and a NaN gamma
        # named the gains; a NaN weight wrote a "nan:1.0" row and a NaN or
        # negative mg_tol ran all 5000 steps, both with exit 0.
        rc, out = self.run(tmp_path, command, cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys, no_channel):
        # Was numpy's "expected non-negative integer", from the tap draw.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PSD_CFG))
        out = tmp_path / "x.csv"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: config key 'seed' must be ")

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"seed": 1, "kind": "\xff"}')
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("error", [KeyError, ValueError, TypeError])
    def test_internal_errors_are_not_config_errors(self, tmp_path, monkeypatch, error):
        # main reports the package's errors; a builtin one is a bug to show.
        import specnash.cli as cli_mod

        def broken(cfg, out):
            raise error("internal")

        monkeypatch.setattr(cli_mod, "run_psd", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PSD_CFG))
        with pytest.raises(error):
            main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])

    def test_c7_eigen_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError: it used to exit 1 as a config error.
        import specnash.uniqueness as uniqueness

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(uniqueness.np.linalg, "eigvalsh", failing)
        rc, out = self.run(tmp_path, "check-uniqueness", SMALL_CFGS["check-uniqueness"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric failure: eigen-solve failed")

    def test_balanced_eigen_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # One-tap links at cross distance 2 with gamma 1: every bin couples
        # each pair of the three users by 0.5, a radius of exactly 1, which
        # only the balanced re-solve can place.  Its LinAlgError used to
        # escape main as a traceback; now C1 and C2 are error verdicts, the
        # report is written, and the run exits 3.
        import specnash.uniqueness as uniqueness

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        scen = {"taps": [[[[1.0, 0.0]]] * 3] * 3, "gamma": 1.0, "P": [1.0] * 3,
                "d": [[1.0 if r == q else 2.0 for q in range(3)] for r in range(3)],
                "sigma2": [1.0] * 3, "Gamma": [1.0] * 3, "N": 4}
        monkeypatch.setattr(uniqueness.np.linalg, "eigvals", failing)
        rc, out = self.run(tmp_path, "check-uniqueness", {"scenario": scen})
        assert rc == 3
        report = json.loads(out.read_text())
        assert [name for name, v in report["conditions"].items() if v["error"]] == ["C1", "C2"]
        assert capsys.readouterr().err == (
            "numeric failure: C1: eigen-solve failed: Eigenvalues did not converge; "
            "C2: eigen-solve failed: Eigenvalues did not converge\n")

    def test_vanishing_path_loss_exit_code(self, tmp_path, capsys):
        # 0.5**1e300 underflows to 0: the CLI printed a divide-by-zero
        # RuntimeWarning and exited 1 naming gain2.
        cfg = {"kind": "uniqueness_mc", "trials": 2,
               "scenario": {"Q": 2, "N": 8, "gamma": 1e300, "d_ratio": 0.5}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = self.run(tmp_path, "montecarlo", cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: gamma and d must give d**gamma > 0, got gamma=1e+300 with d entry 0.5\n")

    def test_user_with_no_usable_bin_exit_code(self, tmp_path, capsys):
        # A user whose every bin is dead (zero gain, or a gain of 1e-320 whose
        # price overflows) is indifferent among its strategies, so no command
        # may certify or solve the game.  At the 1e-160 tap, solve warned
        # "overflow encountered in divide" and exited 1 naming interference
        # factors, and check-uniqueness exited 3 on a NaN eigen-solve; at
        # the zero taps, check-uniqueness exited 0 with C1-C7 all true.
        # montecarlo takes ratio entries only: snr_db -3200 gives gains of
        # about 1e-320 (it exited 0), and tap_variance 0 zero taps (it exited 3
        # on the "all" mode's internal invariant).
        one_tap = lambda direct: [[[[direct, 0.0]], [[0.3, 0.0]]], [[[0.2, 0.0]], [[0.8, 0.0]]]]
        raw = {"d": [[1.0, 2.0], [2.0, 1.0]], "gamma": 2.5, "P": [1.0, 1.0],
               "sigma2": [1.0, 1.0], "Gamma": [1.0, 1.0], "N": 4}
        zero = one_tap(1.0)
        zero[1][1] = [[0.0, 0.0]]
        runs = [(command, {"seed": 1, "scenario": raw | {"taps": taps}} | extra)
                for taps in (one_tap(1e-160), zero)
                for command, extra in (("solve", {}), ("check-uniqueness", {}),
                                       ("check-uniqueness", {"Dq_mode": "all"}))]
        runs += [("montecarlo", {"trials": 2, "scenario": {"Q": 2, "N": 8} | scen})
                 for scen in ({"snr_db": -3200.0}, {"tap_variance": 0.0})]
        for command, cfg in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, out = self.run(tmp_path, command, cfg)
            assert rc == 1, (command, cfg)
            assert not out.exists()
            assert capsys.readouterr().err == (
                "error: a user has no usable bin (each gain is zero or too small for a finite "
                "price) and caps above its budget\n"), (command, cfg)
        # User 1's direct taps [1, 1] zero out only bin 2 of N = 2: every
        # command runs, and no usable set holds that bin.  With Dq_mode
        # "all", check-uniqueness kept it and exited 3 on "zero direct gain
        # inside a kept bin set (internal invariant)".
        two_taps = [[[[1.0, 0.0], [1.0, 0.0]], [[0.3, 0.0], [0.0, 0.0]]],
                    [[[0.2, 0.0], [0.0, 0.0]], [[0.8, 0.0], [0.0, 0.0]]]]
        scen = raw | {"taps": two_taps, "N": 2}
        for mode in ("all", "virtual_interferer"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, out = self.run(tmp_path, "check-uniqueness", {"scenario": scen, "Dq_mode": mode})
            assert rc == 0 and capsys.readouterr().err == ""
            report = json.loads(out.read_text())
            assert report["usable"][0] == [True, False], mode
            assert not any(v["error"] for v in report["conditions"].values())
        rc, out = self.run(tmp_path, "solve", {"scenario": scen})
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:3]]
        assert [float(power) for *_, power in rows] == [pytest.approx(2.0, abs=1e-12), 0.0]

    @pytest.mark.parametrize("command,cfg,key", [
        ("solve", PSD_CFG | {"scenario": PSD_CFG["scenario"] | {"d_ratio": 0.0}}, "d_ratio"),
        ("solve", PSD_CFG | {"scenario": PSD_CFG["scenario"] | {"d_ratio": float("nan")}},
         "d_ratio"),
        ("montecarlo", MC_CFG | {"d_ratio_sweep": [2.0, -1.0]}, "d_ratio_sweep"),
        ("rate-region", REGION_CFGS["asymmetric"] | {"d12_over_d21": 0.0}, "d12_over_d21"),
        ("rate-region", REGION_CFGS["asymmetric"] | {"d_cross_geomean": -2.0}, "d_cross_geomean"),
        ("check-uniqueness", {"scenario": PSD_CFG["scenario"] | {"snr_db": -1e300}}, "snr_db"),
    ])
    def test_out_of_range_key_is_named(self, tmp_path, capsys, command, cfg, key):
        # Each exited 1 naming the quantity derived from the key ("d must be
        # (Q, Q) with positive entries", "P must be (Q,) ..."), and the
        # asymmetric keys warned of an invalid sqrt first.
        rc, out = self.run(tmp_path, command, cfg)
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {key} ")


class TestCliContract:
    def test_solve_roundtrip_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PSD_CFG))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["solve", "--config", str(cfg_path), "--out", out1]) == 0
        assert main(["solve", "--config", str(cfg_path), "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert open(out1 + ".meta.json", "rb").read() == open(out2 + ".meta.json", "rb").read()

    def test_check_uniqueness_subcommand(self, tmp_path):
        cfg = {"seed": 1, "scenario": PSD_CFG["scenario"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "u.json")
        assert main(["check-uniqueness", "--config", str(cfg_path), "--out", out]) == 0
        report = json.load(open(out))
        assert set(report["conditions"]) == {"C1", "C2", "C3", "C4", "C5", "C6", "C7"}

    def test_config_error_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["solve", "--config", missing, "--out", str(tmp_path / "x.csv")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1

    def test_theorem1_violation_exit_code(self, tmp_path, monkeypatch):
        import specnash.cli as cli_mod

        def fake_runner(cfg, out):
            with open(out, "w") as fh:
                json.dump({"total_violations": 3}, fh)
            return {"total_violations": 3}

        monkeypatch.setattr(cli_mod, "run_verify_theorem1", fake_runner)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": PSD_CFG["scenario"]}))
        rc = main(["verify-theorem1", "--config", str(cfg_path),
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2

    def test_bad_mode_exit_code(self, tmp_path):
        cfg = {
            "mode": "sideways",
            "scenario": {"Q": 2, "N": 2, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                         "channel_order": 1, "d_ratio": 3.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["rate-region", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_montecarlo_workers_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MC_CFG | {"trials": 4, "d_ratio_sweep": [2.0]}))
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["montecarlo", "--config", str(cfg_path), "--out", a]) == 0
        assert main(["montecarlo", "--config", str(cfg_path), "--out", b, "--workers", "2"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_montecarlo_rejects_trials_below_one(self, tmp_path, trials):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MC_CFG | {"trials": trials}))
        out = tmp_path / "x.csv"
        assert main(["montecarlo", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["montecarlo", "solve"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_rejects_workers_below_one(self, tmp_path, command, workers):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MC_CFG if command == "montecarlo" else PSD_CFG))
        out = tmp_path / "x.csv"
        rc = main([command, "--config", str(cfg_path), "--out", str(out), "--workers", workers])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "check-uniqueness", "rate-region",
                                         "verify-theorem1"])
    def test_rejects_workers_outside_montecarlo(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFGS[command]))
        out = tmp_path / "x.out"
        rc = main([command, "--config", str(cfg_path), "--out", str(out), "--workers", "4"])
        assert rc == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: --workers")

    @pytest.mark.parametrize("command", sorted(SMALL_CFGS))
    def test_workers_one_accepted_everywhere(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFGS[command]))
        out = tmp_path / "x.out"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]) == 0
        assert out.exists()

    def test_infeasible_waterfill_exit_code(self, tmp_path, capsys):
        # User 2's direct taps are all zero and its caps unbounded: no
        # allocation can spend its budget.
        taps = np.zeros((2, 2, 2, 2))
        taps[0, 0] = [[1.0, 0.0], [0.3, 0.1]]
        taps[0, 1] = [[0.2, 0.0], [0.1, 0.0]]
        taps[1, 0] = [[0.3, 0.0], [0.1, 0.1]]
        cfg = {"seed": 1, "scenario": {
            "taps": taps.tolist(), "d": [[1.0, 3.0], [3.0, 1.0]], "gamma": 2.5,
            "P": [10.0, 10.0], "sigma2": [1.0, 1.0], "Gamma": [1.0, 1.0], "N": 4,
        }}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zero" in err

    def test_level_lost_to_rounding_exit_code(self, tmp_path, capsys):
        # Direct gains near 1e-17 price every bin near 1e17, past the reach
        # of the level's rounding step: this used to write all-zero powers
        # with exit code 0.
        cfg = {"scenario": {
            "taps": [[[[1.0, 0.0]], [[0.1, 0.0]]], [[[0.1, 0.0]], [[1.0, 0.0]]]],
            "d": [[1e7, 1e9], [1e9, 1e7]], "gamma": 2.5, "P": [1.0, 1.0],
            "sigma2": [1.0, 1.0], "Gamma": [1.0, 1.0], "N": 64,
        }}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric failure: waterfill level lost")

    @pytest.mark.parametrize("command", ["solve", "check-uniqueness"])
    @pytest.mark.parametrize("extra", [{"snr": -10}, {"pmax_bar": [[1.0] * 16] * 2}])
    def test_unknown_scenario_key_exit_code(self, tmp_path, capsys, command, extra):
        # A misspelled key would run at the default; a ratio entry's mask
        # would be dropped.  Both are rejected by name.
        cfg = {"seed": 1, "scenario": PSD_CFG["scenario"] | extra}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x.out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ratio scenario keys") and next(iter(extra)) in err

    @pytest.mark.parametrize("command", ["solve", "check-uniqueness"])
    @pytest.mark.parametrize("field", ["Gamma", "taps", "pmax_bar"])
    def test_nan_scenario_value_exit_code(self, tmp_path, capsys, command, field):
        # JSON null in a number array reads as NaN, and so does the literal
        # NaN that Python's json accepts.  Every comparison with NaN is
        # False, so these used to pass validation: a NaN tap or cap gave a
        # check-uniqueness report with exit 0, a NaN Gamma an eigen-solve
        # failure (exit 3) or a message naming the interference factors.
        scen = raw_scenario(pmax_bar=[[10.0] * 16, [10.0] * 16])
        if field == "Gamma":
            scen["Gamma"] = [None, 1.0]
        elif field == "taps":
            scen["taps"][0][1][0] = [None, 0.0]
        else:
            scen["pmax_bar"][1][3] = float("nan")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "scenario": scen}))
        out = tmp_path / "x.out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ")

    def test_unknown_raw_scenario_key_exit_code(self, tmp_path, capsys):
        cfg = {"seed": 1, "scenario": raw_scenario(pmax_bar=None) | {"Q": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: unknown raw scenario keys: Q")

    def test_check_uniqueness_mask_equal_to_budget(self, tmp_path):
        # pmax_bar = P on every bin: caps of exactly the budget.
        cfg = {"seed": 1, "scenario": raw_scenario(pmax_bar=[[10.0] * 16, [10.0] * 16])}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "u.json")
        assert main(["check-uniqueness", "--config", str(cfg_path), "--out", out]) == 0
        report = json.load(open(out))
        assert report["usable"] == [[True] * 16] * 2

    def test_check_uniqueness_driver_writes_report(self, tmp_path):
        cfg = {"seed": 1, "scenario": PSD_CFG["scenario"]}
        out = str(tmp_path / "u.json")
        payload = run_check_uniqueness(cfg, out)
        game = build_game(scenario_from_config(cfg["scenario"], seed=(1,)))
        assert payload == check_conditions(game).to_dict()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert open(out).read() == text

    def test_workers_clamped_to_cpu_count(self, tmp_path, monkeypatch):
        import specnash.experiments as experiments

        sizes = []

        class FakePool:
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(j) for j in jobs]

        monkeypatch.setattr(experiments, "Pool", FakePool)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        chunk = experiments._CHUNK  # trials certified per chunk, the unit a worker takes
        cfg = MC_CFG | {"trials": 3 * chunk, "d_ratio_sweep": [2.0]}
        run_uniqueness_mc(cfg, str(tmp_path / "a.csv"), workers=64)
        assert sizes == [3]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
        run_uniqueness_mc(cfg, str(tmp_path / "b.csv"), workers=64)
        assert sizes == [3]  # one CPU: serial, no pool
        assert open(tmp_path / "a.csv", "rb").read() == open(tmp_path / "b.csv", "rb").read()
        # Capped at the number of chunks, and one chunk runs in this process.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        run_uniqueness_mc(cfg | {"trials": chunk + 1}, str(tmp_path / "c.csv"), workers=64)
        run_uniqueness_mc(cfg | {"trials": chunk}, str(tmp_path / "d.csv"), workers=64)
        assert sizes == [3, 2]

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PSD_CFG))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["solve", "--config", str(cfg_path), "--out", out1, "--seed", "99"])
        main(["solve", "--config", str(cfg_path), "--out", out2])
        assert open(out1, "rb").read() != open(out2, "rb").read()


FUZZ_RAW = {"kind": "psd", "out": "unused.csv", "seed": 1,
            "scenario": raw_scenario([[10.0] * 16, [None] * 16])}
FUZZ_CFGS = [*SMALL_CFGS.items(), ("rate-region", REGION_CFGS["asymmetric"]),
             ("rate-region", REGION_CFGS["channel_order"]), ("solve", FUZZ_RAW),
             ("check-uniqueness", FUZZ_RAW)]
DELETE = object()
# Wrong JSON types, edge and non-finite numbers, empty and null-holding arrays.
FUZZ_VALUES = [None, float("nan"), float("inf"), float("-inf"), -1, 0, -0.5, "x", [], {}, [None],
               True, [[1.0]], 2.5, 1e300, DELETE]
# The rejections of the config tables, and the keys they name.
TABLE_REJECTION = re.compile(r"error: (?:config key '(?P<key>[^']+)'|unknown (?P<enum>\w+) '"
                             r"|unknown [\w ]+ keys: (?P<keys>.*))")


def key_paths(obj, path=()):
    """Paths to every key of ``obj``, and to the first entry of every array."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        yield path + (0,)
        yield from key_paths(obj[0], path + (0,))


def changed(cfg, changes):
    """A copy of ``cfg`` with each (path, value) set, or deleted for DELETE; a path that
    an earlier change removed is skipped."""
    cfg = copy.deepcopy(cfg)
    for (*parents, last), value in changes:
        node = cfg
        try:
            for part in parents:
                node = node[part]
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
        except (KeyError, IndexError, TypeError):
            pass
    return cfg


def fuzz_cases():
    """(command, config, changes): one or two (path, value) changes of a FUZZ_CFGS config."""
    def with_changes(case):
        change = st.tuples(st.sampled_from(list(key_paths(case[1]))), st.sampled_from(FUZZ_VALUES))
        return st.tuples(*map(st.just, case), st.lists(change, min_size=1, max_size=2))

    return st.sampled_from(FUZZ_CFGS).flatmap(with_changes)


class TestConfigFuzz:
    # The examples each raised a TypeError out of main before the config tables.
    @example(("solve", FUZZ_RAW, [(("scenario", "taps", 0, 0, 0, 0), {})]))
    @example(("check-uniqueness", FUZZ_RAW, [(("scenario", "pmax_bar", 0), 2.5)]))
    @example(("rate-region", SMALL_CFGS["rate-region"], [(("lambda_sweep", 0, 0), None)]))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzz_cases())
    def test_changed_config_exits_with_a_code(self, case):
        # Every run exits 0, 1 or 3 (no exception escapes main), and a
        # rejection by a config table names the key it rejects.
        command, cfg, changes = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as the CLI runs
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(changed(cfg, changes), fh)
            rc = main([command, "--config", cfg_path, "--out", os.path.join(tmp, "x.out")])
        assert rc in (0, 1, 3)
        rejection = TABLE_REJECTION.match(err.getvalue())
        # A deleted key or an emptied block may be named as a missing or unknown key.
        if rejection and not any(v is DELETE or v == {} for _, v in changes):
            named = {rejection["key"], rejection["enum"], *(rejection["keys"] or "").split(", ")}
            assert named & {part for path, _ in changes for part in path}, err.getvalue()
