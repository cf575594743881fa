"""specnash benchmark: four driver workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload fig1_mc --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): fig1_mc, psd_solve, pareto_asym, theorem1.
BENCHMARK.json lists the three whose rate is steady in a 36 s run;
pareto_asym needs longer runs and is run by hand.  Closed loop, one
client: driver calls are issued back to back in this process, with BLAS
threads pinned to 1 before numpy is imported.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  Their times are scaled to a reference host speed measured
alongside (see CAL_REF_S); the unscaled rate and the speed factor are
reported too.  ``--trace 1`` runs the first K items untraced, then the
same K items with spans recorded at the import sites of every layer, and
reports the per-layer metrics plus the tracing overhead; K is fixed by the
workload and ``--seconds``, so counts repeat exactly for a given seed.

Every call is checked by its workload's gate.  A human-readable table and
an environment block go to stdout, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, metrics with sample counts, gate failures) and, for traced
runs, the spans are written under ``.bench_out/results/``.

Exit codes: 0 all gates passed, 1 a gate failed (result still printed),
2 the benchmark could not run (no result printed).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fig1_mc", "psd_solve", "pareto_asym", "theorem1")

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_ms_per_item", "ms"),
    ("item_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 2  # fresh processes timing set-up, besides this one

# Host-speed calibration.  On a host whose cores are shared with other
# tenants, the same work runs up to twice as slow from one second to the
# next.  A fixed kernel of small numpy calls under a Python loop (the
# drivers' mix, none of their code) is timed, in wall and CPU time, every
# CAL_EVERY_S.  Each call's wall (CPU) time is scaled by CAL_REF_S / (mean
# wall (CPU) time of the two kernel passes around it), i.e. reported at the
# reference speed; CPU time is scaled on its own because time the host
# steals slows wall time only.
CAL_REF_S = 0.0115  # kernel time on an idle 2-core x86_64 host
CAL_EVERY_S = 0.5


@dataclass
class Record:
    """One timed driver call."""

    items: int
    seconds: float
    cpu_s: float
    failures: list
    bytes_written: int = 0
    output: bytes | None = None
    scale: float = 1.0  # host speed around the call (wall), relative to the reference
    cpu_scale: float = 1.0  # the same in CPU time

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def calibrate() -> tuple:
    """(wall, CPU) seconds one pass of the calibration kernel takes now."""
    x = np.linspace(0.0, 1.0, 64)
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(1500):
        c = np.sort(x)
        np.cumsum(c)
        np.clip(x - 0.5, 0.0, 1.0).sum()
        x = x[::-1].copy()
    return time.perf_counter() - t0, time.process_time() - c0


def speed(cal: list, clock: int = 0) -> float:
    """Reference-to-current host speed ratio from calibration samples, in
    wall (clock=0) or CPU (clock=1) time."""
    return CAL_REF_S * len(cal) / sum(sample[clock] for sample in cal)


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call_item(wl, cfg: dict, out: str, tracer=None, keep_output=False) -> Record:
    from workloads import bytes_written, read_output

    c0 = cpu_seconds()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        result = wl.call(cfg, out)
    except Exception:  # one failed item is counted, not fatal
        failures = [traceback.format_exc(limit=4)]
    else:
        failures = None
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = time.perf_counter() - t0
    cpu_s = cpu_seconds() - c0
    if failures is None:
        try:
            failures = wl.check(cfg, out, result)
        except Exception:
            failures = [traceback.format_exc(limit=4)]
    rec = Record(items=wl.items(cfg), seconds=seconds, cpu_s=cpu_s, failures=failures)
    if not failures:
        rec.bytes_written = bytes_written(out)
        if keep_output:
            rec.output = read_output(out)
    return rec


def run_items(wl, seed: int, out: str, count=None, seconds=None, tracer=None, keep=0):
    """Issue calls back to back: ``count`` of them, or until ``seconds`` pass.

    Returns the records, each with its host-speed scale set, and the
    calibration times sampled along the way.
    """
    records, windows, cal = [], [], [calibrate()]
    next_cal = time.perf_counter() + CAL_EVERY_S
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = 0
    while (count is None or i < count) and (
        deadline is None or i == 0 or time.perf_counter() < deadline
    ):
        rec = call_item(wl, wl.config(seed, i), out, tracer, keep_output=i < keep)
        for msg in rec.failures:
            print(f"gate failure on item {i}: {msg}", file=sys.stderr)
        records.append(rec)
        windows.append(len(cal) - 1)
        i += 1
        if time.perf_counter() >= next_cal:
            cal.append(calibrate())
            next_cal = time.perf_counter() + CAL_EVERY_S
    cal.append(calibrate())
    for rec, w in zip(records, windows):
        rec.scale = speed(cal[w : w + 2])
        rec.cpu_scale = speed(cal[w : w + 2], clock=1)
    return records, cal


def setup(wl_name: str, seed: int, out: str):
    """Imports, input generation and one warm-up (canary) call."""
    import workloads

    wl = workloads.WORKLOADS[wl_name]
    wl.config(seed, 0)
    warm = call_item(wl, wl.canary(), out)
    return wl, warm


def probe_setup(wl_name: str, seed: int) -> float:
    """Set-up time of a fresh process, as it measures itself."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def ok_records(records) -> list:
    return [r for r in records if not r.failures]


def item_ms(records) -> list:
    """Per-item milliseconds of each passing call, at the reference speed."""
    return [1e3 * r.scaled_s / r.items for r in ok_records(records)]


def end_to_end(records, setup_samples) -> dict:
    good = ok_records(records)
    items = sum(r.items for r in good)
    busy = sum(r.scaled_s for r in good)
    per_item = item_ms(records)
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "items_per_s": (items / busy if busy else 0.0, "1/s", items),
        "cpu_ms_per_item": (
            1e3 * sum(r.cpu_s * r.cpu_scale for r in good) / items if items else 0.0, "ms", items
        ),
        "item_ms_p50": (statistics.median(per_item) if per_item else 0.0, "ms", len(per_item)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def report_only(records, cal: list) -> dict:
    """Metrics printed and recorded but not part of the JSON contract."""
    per_item = item_ms(records)
    good = ok_records(records)
    attempted = sum(r.items for r in records)
    failed = sum(r.items for r in records if r.failures)
    busy = sum(r.seconds for r in good)
    out = {
        "failed_frac": (failed / attempted if attempted else 0.0, "frac", attempted),
        "host_speed": (speed(cal), "x", len(cal)),
        "items_per_s_unscaled": (sum(r.items for r in good) / busy if busy else 0.0, "1/s", attempted),
    }
    # The highest percentile with at least ten samples beyond it.
    if len(per_item) >= 100:
        p90 = statistics.quantiles(per_item, n=10, method="inclusive")[-1]
        out["item_ms_p90"] = (p90, "ms", len(per_item))
    return out


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(wl, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy
    import specnash

    return {
        "workload": wl.name,
        "item": wl.item,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "specnash": specnash.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": {"timed": 1, "parallel_check": 2 if wl.name == "fig1_mc" else None},
        "git_commit": git_commit(ROOT),
    }


def fig1_parallel(records, configs) -> tuple:
    """Repeat timed fig1_mc calls with workers=2.

    Returns (gate failures, speed-up with both sides at the reference speed).
    """
    import workloads

    kept = [(c, r) for c, r in zip(configs, records) if r.output is not None]
    par_cal = [calibrate()]
    failures, speedup = workloads.parallel_check(
        [c for c, _ in kept], [r.output for _, r in kept], [r.scaled_s for _, r in kept],
        str(run_dir() / "parallel.csv"),
    )
    par_cal.append(calibrate())
    if not kept:
        failures.append("fig1_mc: no passing call to repeat with workers=2")
    return failures, speedup / speed(par_cal)


def run_dir() -> Path:
    return OUT_DIR / f"run-{os.getpid()}"


def traced_count(wl, seconds: int) -> int:
    """Items in each traced-run pass: about seconds/2.4 of work at the baseline."""
    return max(1, int(seconds / (2.4 * wl.nominal_s)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "specnash" / "__init__.py").is_file():
        print(f"error: no specnash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = run_dir()
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    import workloads

    out = str(work / "item.out")
    wl, warm = setup(args.workload, args.seed, out)
    setup_s = time.perf_counter() - _T0
    setup_s *= speed([calibrate() for _ in range(5)])
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    run_failures = [f"warm-up: {m}" for m in warm.failures]
    keep = workloads.PARALLEL_CALLS if wl.name == "fig1_mc" else 0
    if args.trace:
        from tracing import Tracer, layer_metrics

        count = traced_count(wl, args.seconds)
        timed, cal = run_items(wl, args.seed, out, count=count, keep=keep)
        tracer = Tracer()
        with tracer.installed():
            traced, _ = run_items(wl, args.seed, out, count=count, tracer=tracer)
        records = timed + traced
    else:
        timed, cal = run_items(wl, args.seed, out, seconds=args.seconds, keep=keep)
        records = timed

    repeated = min(keep, len(timed))
    speedup = 0.0
    if repeated:
        configs = [wl.config(args.seed, i) for i in range(repeated)]
        failures, speedup = fig1_parallel(timed[:repeated], configs)
        run_failures += failures

    if args.trace:
        # Both passes at the reference speed, so host drift between them cancels.
        t_u = sum(r.scaled_s for r in timed)
        t_t = sum(r.scaled_s for r in traced)
        metrics = layer_metrics(tracer, {
            "experiments.bytes_written": (sum(r.bytes_written for r in traced), len(traced)),
            "experiments.par2_speedup": (speedup, repeated),
            "trace.items": (sum(r.items for r in traced), len(traced)),
            "trace.overhead_frac": (t_t / t_u - 1.0 if t_u else 0.0, len(traced)),
        })
        if tracer.missing:
            print(f"note: import sites not found: {', '.join(tracer.missing)}", file=sys.stderr)
        extra = {}
    else:
        samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(records, samples)
        extra = report_only(records, cal)
        if repeated:
            extra["par2_speedup"] = (speedup, "x", repeated)

    attempted = sum(r.items for r in records)
    failed = sum(r.items for r in records if r.failures)
    correct = failed == 0 and not run_failures
    env = environment(wl, args.seed, args.seconds, args.trace)

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(results / f"{stem}-spans.npz")
    record = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "gate_failures": run_failures + [m for r in records for m in r.failures],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "reported": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for msg in run_failures:
        print(f"gate failure: {msg}", file=sys.stderr)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {'metric':<48} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"# {name:<48} {value:>14.6g} {unit:<6} {n}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
