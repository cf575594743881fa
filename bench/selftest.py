"""Self-test of the benchmark (kept out of the repository's test suite).

Checks the span self-time arithmetic, that wrappers record nested spans
and restore every import site, that each correctness gate passes a good
output and fails a corrupted one, that a tiny run of every workload
reports every metric with work counts that repeat exactly for one seed,
and that the benchmark refuses to run without the sources.  Run from the
repository root (about a minute and a half on two cores):

    python3 bench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        # 0: [0, 100] parent; 1: [10, 30] and 2: [20, 50] overlap; 3: [60, 70];
        # 4: [95, 120] overruns the parent and is clipped; 5: [12, 14] is a
        # grandchild and does not count against span 0.
        start = np.array([0, 10, 20, 60, 95, 12])
        end = np.array([100, 30, 50, 70, 120, 14])
        parent = np.array([-1, 0, 0, 0, 0, 1])
        got = tracing.self_times(start, end, parent, [0, 1, 5])
        np.testing.assert_array_equal(got, [100 - 40 - 10 - 5, 20 - 2, 2])

    def test_wrappers_nest_and_restore(self):
        from specnash import equilibrium, experiments, ratio_scenario, build_game

        originals = {
            (m, a): getattr(importlib.import_module(m), a)
            for sites in tracing.SITES.values() for m, a in sites
        }
        game = build_game(ratio_scenario(2, 8, seed=3))
        tracer = tracing.Tracer()
        with tracer.installed():
            experiments.solve(game)  # inactive: passes through unrecorded
            self.assertEqual(tracer.code, [])
            tracer.active = True
            experiments.solve(game)
            tracer.active = False
            self.assertIsNot(equilibrium.best_response, originals[("specnash.equilibrium", "best_response")])
        for (m, a), fn in originals.items():
            self.assertIs(getattr(importlib.import_module(m), a), fn, f"{m}.{a} not restored")
        self.assertEqual(tracer.missing, [])
        names = [tracer.names[c] for c in tracer.code]
        parent = tracer.parent
        self.assertEqual(names[0], "equilibrium.solve")
        self.assertEqual(parent[0], -1)
        for i, name in enumerate(names):
            if name == "equilibrium.best_response":
                self.assertEqual(names[parent[i]], "equilibrium.solve")
            if name == "waterfilling.waterfill":
                self.assertEqual(names[parent[i]], "equilibrium.best_response")
        metrics = tracing.layer_metrics(tracer, {
            k: (0.0, 0) for k in ("experiments.bytes_written", "experiments.par2_speedup",
                                  "trace.items", "trace.overhead_frac")
        })
        self.assertEqual(metrics["equilibrium.solve.calls"][0], 1)
        self.assertEqual(metrics["equilibrium.solve.converged_frac"][0], 1.0)
        self.assertGreater(metrics["equilibrium.solve.iterations"][0], 0)
        self.assertEqual(metrics["waterfilling.waterfill.calls"][0],
                         metrics["equilibrium.best_response.calls"][0])


class Gates(unittest.TestCase):
    def setUp(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=scratch)
        self.out = str(Path(self.tmp) / "out")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def good(self, wl, cfg=None):
        cfg = cfg or wl.canary()
        result = wl.call(cfg, self.out)
        self.assertEqual(wl.check(cfg, self.out, result), [])
        return cfg, result

    def test_fig1_mc(self):
        wl = workloads.FIG1
        cfg, result = self.good(wl)
        self.assertIn(str(cfg["seed"]), workloads.load_reference()["fig1_mc"])
        expected = workloads.read_output(self.out)
        failures, speedup = workloads.parallel_check([cfg], [expected], [1.0], self.out + "2")
        self.assertEqual(failures, [])
        self.assertGreater(speedup, 0.0)
        failures, _ = workloads.parallel_check([cfg], [expected + b" "], [1.0], self.out + "2")
        self.assertEqual(len(failures), 1)
        meta_path = Path(self.out + ".meta.json")
        meta = json.loads(meta_path.read_text())
        key = next(iter(meta["probabilities"]))
        meta["probabilities"][key] = 1.0 - meta["probabilities"][key]
        meta_path.write_text(json.dumps(meta))
        self.assertTrue(any("reference" in f for f in wl.check(cfg, self.out, result)))

    def test_psd_solve(self):
        wl = workloads.PSD
        for i in range(2):  # uncapped ratio entry, then capped raw entry
            cfg, meta = self.good(wl, wl.config(5, i))
        rows = Path(self.out).read_text().splitlines()
        user, carrier, power = rows[1].split(",")
        rows[1] = f"{user},{carrier},{float(power) + 1e-6!r}"
        Path(self.out).write_text("\n".join(rows) + "\n")
        self.assertNotEqual(wl.check(cfg, self.out, meta), [])
        self.assertNotEqual(wl.check(cfg, self.out, dict(meta, converged=False)), [])

    def test_pareto_asym(self):
        wl = workloads.PARETO
        cfg, (meta, ne, opt) = self.good(wl)
        bad = dict(meta, sum_rate_loss=[float("nan")])
        self.assertNotEqual(wl.check(cfg, self.out, (bad, ne, opt)), [])
        self.assertNotEqual(wl.check(cfg, self.out, (meta, [], opt)), [])

    def test_theorem1(self):
        wl = workloads.THEOREM1
        cfg, report = self.good(wl)
        written = json.loads(Path(self.out).read_text())
        written["total_violations"] = 1
        Path(self.out).write_text(json.dumps(written))
        self.assertNotEqual(wl.check(cfg, self.out, report), [])


class TinyRuns(unittest.TestCase):
    def test_every_workload(self):
        per_layer = [name for name, _ in tracing.PER_LAYER]
        end_to_end = [name for name, _ in run.END_TO_END]
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first, second = (bench("--workload", name, "--seed", "3", "--seconds", "1",
                                       "--trace", "1") for _ in range(2))
                self.assertEqual(first.returncode, 0, first.stderr)
                a, b = result_of(first), result_of(second)
                self.assertTrue(a["correct"])
                self.assertEqual(list(a["metrics"]), per_layer)
                counts = {k for k, unit in tracing.PER_LAYER if unit in ("count", "bytes")}
                self.assertEqual({k: a["metrics"][k] for k in counts},
                                 {k: b["metrics"][k] for k in counts})
                self.assertGreater(a["metrics"]["trace.items"]["value"], 0)

                plain = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.assertEqual(plain.returncode, 0, plain.stderr)
                c = result_of(plain)
                self.assertTrue(c["correct"])
                self.assertGreaterEqual(c["attempted"], 1)
                self.assertEqual(list(c["metrics"]), end_to_end)
                for metric, entry in c["metrics"].items():
                    self.assertGreater(entry["value"], 0.0, metric)

    def test_refuses_without_sources(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=scratch))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "theorem1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], tracing.PER_LAYER)


if __name__ == "__main__":
    unittest.main(verbosity=2)
