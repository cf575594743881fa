"""The Fig. 1 Monte Carlo reproduces every probability set in bench/reference.json.

The benchmark gates each ``fig1_mc`` call on these recorded sets; this test
replays all of them (the canary and the first call of seeds 0-99) with the
benchmark's own configs, so a change that moves a verdict fails tier-1 too.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def test_fig1_reference_probabilities(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())["fig1_mc"]
    assert len(reference) == 101
    out = str(tmp_path / "fig1.csv")
    for seed, expected in reference.items():
        trials = 1 if int(seed) == workloads.CANARY_SEED else workloads.FIG1_TRIALS
        cfg = workloads.fig1_config_for(int(seed), trials=trials)
        result = workloads.fig1_call(cfg, out)
        assert workloads.fig1_check(cfg, out, result) == []
        assert json.loads(Path(out + ".meta.json").read_text())["probabilities"] == expected, seed
