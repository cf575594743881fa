import csv
import json

import numpy as np
import pytest

from specnash.cli import main
from specnash.experiments import (
    run_psd,
    run_rate_region,
    run_uniqueness_mc,
    run_verify_theorem1,
    scenario_from_config,
)

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

    def test_meta_sidecar(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        run_uniqueness_mc(MC_CFG, out)
        meta = json.load(open(out + ".meta.json"))
        assert meta["kind"] == "uniqueness_mc"
        assert meta["trials"] == 12
        assert meta["csv_schema_version"] == 1


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
        cfg = MC_CFG | {"trials": 2, "d_ratio_sweep": [2.0]}
        run_uniqueness_mc(cfg, str(tmp_path / "a.csv"), workers=64)
        assert sizes == [3]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
        run_uniqueness_mc(cfg, str(tmp_path / "b.csv"), workers=64)
        assert sizes == [3]  # one CPU: serial, no pool
        assert open(tmp_path / "a.csv", "rb").read() == open(tmp_path / "b.csv", "rb").read()

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PSD_CFG))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["solve", "--config", str(cfg_path), "--out", out1, "--seed", "99"])
        main(["solve", "--config", str(cfg_path), "--out", out2])
        assert open(out1, "rb").read() != open(out2, "rb").read()
