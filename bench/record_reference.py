"""Record the reference probabilities that the fig1_mc gate compares against.

Runs the driver once for the canary config and for the first timed call of
workload seeds 0..N-1, and stores each call's probabilities in
``bench/reference.json`` keyed by the config's root seed.  Record only on a
commit whose outputs are known good; from then on every fig1_mc run checks
that those calls reproduce them exactly.  Run from the repository root:

    python3 bench/record_reference.py --seeds 100
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args(argv)
    configs = [workloads.FIG1.canary()] + [
        workloads.FIG1.config(seed, 0) for seed in range(args.seeds)
    ]
    table = {}
    scratch = HERE.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = str(Path(tmp) / "fig1.csv")
        for cfg in configs:
            workloads.fig1_call(cfg, out)
            table[str(cfg["seed"])] = json.loads(Path(out + ".meta.json").read_text())["probabilities"]
    reference = {
        "fig1_mc": table,
        "note": f"canary seed {workloads.CANARY_SEED} and the first call of workload seeds 0..{args.seeds - 1}",
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
