"""The repository's benchmark: planner latency and simulated-fleet throughput.

Run from the repository root::

    python3 perfbench/run.py --workload plan_zoo --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py            # every workload in turn, seed 0

It checks the program's outputs before timing anything, prints every
metric with its unit and sample count, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of an untraced run; ``--trace 1`` reports the
per-layer metrics of a traced pass and exports its Chrome trace. Full
results, with the host fingerprint, go to ``.perfbench/`` in the
current directory. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(".perfbench")
#: Frontier models' makespans (GoogLeNet and others) move by one ULP across hash seeds.
HASH_SEED = "0"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("plan_zoo", "fleet_overload", "cloud_slo")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    """What makes wall times from two hosts incomparable."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def setup_seconds(workload: str, seed: int) -> list[list[float]]:
    """Process start to ready-to-time, in fresh interpreters, several times.

    Each set-up is a piece ``[seconds, probe_seconds]`` whose probe time
    is the mean of a probe just before and one just after it
    (:mod:`perfbench.pace`).
    """
    from perfbench.pace import Pace

    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "from perfbench.workloads import WORKLOADS, prepare; "
        "prepare(WORKLOADS[sys.argv[3]], int(sys.argv[4]))"
    )
    pace = Pace()
    pieces = []
    for _ in range(SETUP_REPEATS):
        pace.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(ROOT), str(SRC), workload, str(seed)],
            check=True,
            timeout=120,
        )
        seconds = time.perf_counter() - start
        pace.sample()
        pieces.append([seconds, (pace.taken[-2] + pace.taken[-1]) / 2])
    return pieces


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import metrics
    from perfbench.attribution import Attribution
    from perfbench.workloads import (
        WORKLOADS,
        Run,
        check_outputs,
        prepare,
        timed_phases,
        warmed_engine,
    )

    workload = WORKLOADS[name]
    host = fingerprint()
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()), flush=True)
    setup = [] if trace else setup_seconds(name, seed)
    inputs = prepare(workload, seed)
    run = Run()
    started = time.perf_counter()
    check_outputs(inputs, run)
    checks_s = time.perf_counter() - started
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        untraced = timed_phases(inputs, run, warmed_engine(inputs), None)
        attribution = Attribution()
        engine = warmed_engine(inputs)
        traced = attribution.measure(lambda: timed_phases(inputs, run, engine, None))
        reported = metrics.per_layer(attribution, traced, untraced)
        attribution.export_chrome(stem.with_suffix(".chrome.json"))
        layers = {k: vars(v) for k, v in attribution.stats.items()}
        raw = {}
        # tracing overhead: the same end-to-end figures, untraced and traced
        shown = [
            replace(m, name=f"{label}.{m.name}")
            for label, samples in (("untraced", untraced), ("traced", traced))
            for m in metrics.distribution(samples, bool(workload.fleet)).values()
        ]
    else:
        samples = timed_phases(inputs, run, warmed_engine(inputs), seconds)
        reported = metrics.end_to_end(samples, setup, peak_rss_mb(), bool(workload.fleet))
        shown = list(metrics.distribution(samples, bool(workload.fleet)).values())
        layers = {}
        raw = {
            "setup": setup,
            "cold": samples.cold,
            "warm": [[model, rate, times] for (model, rate), times in samples.warm.items()],
            "bulk": samples.bulk,
            "bulk_items": samples.bulk_items,
        }
    shown += [
        metrics.Metric("error_rate", run.failed / max(run.attempted, 1), "ratio",
                       run.attempted, "failed / attempted operations"),
        metrics.Metric("checks_s", checks_s, "s", 1, "correctness checks before timing"),
    ]

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for metric in [*reported.values(), *shown]:
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {metric.name:32s} {metric.value:14.6g} {metric.unit:6s} "
              f"n={metric.samples}{note}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    correct = run.failed == 0
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host, "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
        "metrics": [vars(m) for m in [*reported.values(), *shown]], "layers": layers,
        "samples": raw,
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in reported.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            status |= subprocess.run(command).returncode
        return status
    sys.path[:0] = [str(ROOT), str(SRC)]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.path.pop(0)  # this directory; its module names must not shadow others
    sys.exit(main(sys.argv[1:]))
