"""The benchmark's workloads: inputs, correctness checks and timed phases.

Every workload is closed-loop on the host: one caller on one thread,
and the next call starts when the previous one returns. Each runs the
planner over its model set, interleaved with its bulk phase:

* ``plan_zoo`` — the 16 zoo models the run length can hold (everything
  but Inception-v4, whose ~52 s cold plan cannot fit), bulk phase a
  ``plan_batch`` sweep at n=1000. It never touches the fleet.
* ``fleet_overload`` — ``run_system(capacity_scenario(servers=4,
  clients=2048))``: ~49k arrivals, almost all rejected or expired, so
  per-request time goes to admission, placement, counters and expiry.
* ``cloud_slo`` — the 512-client contended cloud with SLO telemetry:
  the completion path, ``cloud`` batching, ``obs.timeseries`` and
  ``obs.slo``.

The fleet workloads plan ``alexnet``, the model every client runs, so
every workload reports the same planner metrics (NOTES.md explains
why). Inputs come from ``--seed`` alone: the warm stream, the sweep
bandwidths and the fleet scenario seeds.

Every timed piece of work (a cold plan, a warm call, a sweep cell, a
``run_system`` call) is paired with a reference probe taken right
before it (:mod:`perfbench.pace`), so the metrics can rescale it to the
reference pace. Long units are cut into segments by a
:class:`~perfbench.attribution.Ticker` on a function they call many
times, with a probe at every cut.
"""

from __future__ import annotations

import gc
import json
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench.attribution import Ticker
from perfbench.pace import REFERENCE_S, Pace
from repro.api import as_channel
from repro.core.plans import Schedule
from repro.engine import PlanningEngine
from repro.fleet import (
    SCENARIO_SLO,
    SystemConfig,
    capacity_scenario,
    contended_cloud_scenario,
    run_system,
    with_slo_telemetry,
)
from repro.net.bandwidth import THREE_G, WIFI
from repro.nn.zoo import MODELS
from repro.utils.units import mbps

__all__ = ["WORKLOADS", "Workload", "Inputs", "Samples", "Run", "prepare", "tiny"]

#: Plan size of the cold, warm and reference plans (the paper's n).
PLAN_N = 100
#: Uplink of the cold plans and of the committed reference plans.
COLD_MBPS = 10.0
#: 32 log-spaced uplinks from the 3G to the Wi-Fi preset (Mbps).
GRID_MBPS = tuple(
    float(x) for x in np.geomspace(THREE_G.uplink_bps / 1e6, WIFI.uplink_bps / 1e6, 32)
)
#: Cold plans faster than this repeat within a slice (GoogLeNet's does not).
CHEAP_COLD_S = 0.2
#: Seeded grid bandwidths per model at which plan() and plan_batch() must agree.
CHECK_CELLS = 8
#: Of those, the sweep phase plans the first this many per plan_batch call.
SWEEP_CELLS = 1
#: Cold plans are cut into segments every this many ``cut_transfer_bytes``
#: calls (GoogLeNet's makes ~5.4k; line models make none).
COLD_TICK = ("repro.dag.cuts", "cut_transfer_bytes", 200)
#: Inception-v4's cold plan (~52 s) does not fit the run length.
ZOO_MODELS = tuple(name for name in MODELS if name != "inception-v4")
REFERENCE_PATH = Path(__file__).with_name("reference_plans.json")


def plan_signature(schedule: Schedule) -> dict:
    """What a plan must reproduce: method, makespan, jobs per cut label.

    Wall-time metadata such as ``scheduler_overhead_s`` is left out.
    """
    return {
        "method": schedule.method,
        "makespan": schedule.makespan,
        "cuts": [list(item) for item in schedule.label_histogram().items()],
    }


def derive(seed: int, *keys: int) -> int:
    """A scenario seed derived from the run's seed and a stream key."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _overload(seed: int) -> SystemConfig:
    return capacity_scenario(servers=4, clients=2048, seed=seed)


def _overload_parity(seed: int) -> SystemConfig:
    return capacity_scenario(servers=4, clients=64, seed=seed)


def _cloud(seed: int) -> SystemConfig:
    return with_slo_telemetry(
        contended_cloud_scenario(
            servers=32, clients=512, gpus=8, rate=0.5, horizon=60.0, seed=seed
        ),
        slos=(SCENARIO_SLO,),
    )


def _cloud_parity(seed: int) -> SystemConfig:
    return with_slo_telemetry(
        contended_cloud_scenario(servers=4, clients=32, gpus=1, horizon=8.0, seed=seed),
        slos=(SCENARIO_SLO,),
    )


@dataclass(frozen=True)
class Workload:
    """One named workload and how much work its phases do.

    ``fleet`` builds the bulk phase's ``run_system`` config from a
    scenario seed; without it the bulk phase is a ``plan_batch`` sweep
    at n = ``sweep_n``. ``parity`` builds the small config the heap and
    fast cores must agree on byte for byte. A ``run_system`` call is
    cut into segments every ``tick_every`` arrivals.
    """

    name: str
    why: str
    models: tuple[str, ...]
    warm_calls: int                    # in a timed run: a stream played ``plays`` times
    plays: int
    cold_rounds: int                   # cold plans of each cheap model per slice
    slices: int                        # a timed run interleaves its phases this often
    fleet: Callable[[int], SystemConfig] | None = None
    parity: Callable[[int], SystemConfig] | None = None
    sweep_n: int = 1000
    tick_every: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "plan_zoo",
            "cold, warm and n=1000 sweep planning of 16 zoo models: the only workload "
            "that runs the structure layers (dag, profiling); never touches the fleet",
            ZOO_MODELS,
            warm_calls=512,
            plays=8,
            cold_rounds=2,
            slices=8,
        ),
        Workload(
            "fleet_overload",
            "2048-client capacity fleet, 49k arrivals mostly rejected: admission, "
            "placement, counters and expiry on the reject path; no cloud, no telemetry",
            ("alexnet",),
            warm_calls=320,
            plays=10,
            cold_rounds=5,
            slices=5,
            fleet=_overload,
            parity=_overload_parity,
            tick_every=1000,
        ),
        Workload(
            "cloud_slo",
            "512-client contended cloud with SLO telemetry: the completion path plus "
            "cloud batching, obs.timeseries and obs.slo",
            ("alexnet",),
            warm_calls=320,
            plays=10,
            cold_rounds=5,
            slices=5,
            fleet=_cloud,
            parity=_cloud_parity,
            tick_every=250,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for smoke tests."""
    if workload.fleet is None:
        return replace(workload, models=("alexnet", "branchy-dnn"), warm_calls=16,
                       sweep_n=40)
    small = _overload_parity if workload.fleet is _overload else _cloud_parity
    return replace(workload, warm_calls=20, fleet=small, tick_every=50)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Inputs:
    """Everything a run's timed phases consume, derived from the seed."""

    workload: Workload
    seed: int
    stream: tuple[tuple[str, float], ...]           # warm phase (model, Mbps), replayed
    sweep: dict[str, tuple[float, ...]]             # model -> checked uplinks (Mbps)
    reference: dict[str, dict]
    fleet: SystemConfig | None                      # every bulk run_system call


def prepare(workload: Workload, seed: int) -> Inputs:
    """Build a run's inputs; the set-up every run pays before timing."""
    rng = np.random.default_rng([seed, 1])
    calls = workload.warm_calls // workload.plays
    # distinct (model, uplink) calls; all of them, shuffled, when they fit
    combos = [(model, rate) for model in workload.models for rate in GRID_MBPS]
    stream = tuple(combos[i] for i in rng.permutation(len(combos))[:calls].tolist())
    sweep = {
        model: tuple(GRID_MBPS[i] for i in rng.choice(len(GRID_MBPS), CHECK_CELLS, replace=False))
        for model in workload.models
    }
    reference = json.loads(REFERENCE_PATH.read_text())
    fleet = workload.fleet(derive(seed, 2)) if workload.fleet else None
    return Inputs(workload, seed, stream, sweep, reference, fleet)


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
class Run:
    """Operations attempted and failed in one benchmark run.

    An operation is a plan call, a sweep cell, a ``run_system`` call or
    a correctness check; it fails if it raises, fails a check, or
    returns a report with ``ok == False``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool, count: int = 1) -> None:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.fail(label, count)

    def fail(self, label: str, count: int = 1) -> None:
        """Mark ``count`` already-counted operations as failed."""
        self.failed += count
        self.failures.append(label)

    def call(self, label: str, fn: Callable, *args, count: int = 1):
        """``(seconds, result)`` of one closed-loop call, or None if it raised."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            self.check(f"{label}: {exc!r}", False, count)
            return None
        seconds = time.perf_counter() - start
        self.attempted += count
        return seconds, result


@dataclass
class Samples:
    """Raw measurements of one pass over the timed phases.

    A piece is ``[seconds, probe_seconds]``: a timed stretch and the mean
    of the reference probes just before and after it
    (:func:`perfbench.pace.adjusted`).
    ``cold`` and ``bulk`` hold each repeat of a unit as its segments'
    pieces, an unsegmented repeat being one piece; ``warm`` holds each
    play of a call as one piece.
    """

    cold: dict[str, list[list[list[float]]]] = field(default_factory=dict)  # model -> repeats
    warm: dict[tuple[str, float], list[list[float]]] = field(default_factory=dict)
    warm_lookups: int = 0
    warm_hits: int = 0
    bulk: dict[str, list[list[list[float]]]] = field(default_factory=dict)  # unit -> repeats
    bulk_items: dict[str, int] = field(default_factory=dict)      # unit -> cells/arrivals
    reports: list[dict] = field(default_factory=list)             # fleet summaries
    wall: float = 0.0


# ----------------------------------------------------------------------
# correctness checks, run before any timing
# ----------------------------------------------------------------------
def check_outputs(inputs: Inputs, run: Run) -> None:
    """Reference plans, plan() vs plan_batch(), and heap vs fast cores."""
    workload = inputs.workload
    engine = PlanningEngine()
    for model in workload.models:
        done = run.call(f"{model} reference plan", engine.plan, model, PLAN_N,
                        as_channel(COLD_MBPS))
        if done is not None:
            run.check(f"{model}: plan differs from reference_plans.json",
                      plan_signature(done[1]) == inputs.reference.get(model))
        rates = inputs.sweep[model]
        done = run.call(f"{model} plan_batch", engine.plan_batch, model, PLAN_N,
                        [mbps(rate) for rate in rates])
        if done is None:
            continue
        batch = [plan_signature(s) for s in done[1]]
        single = [plan_signature(engine.plan(model, PLAN_N, as_channel(r))) for r in rates]
        run.check(f"{model}: plan() and plan_batch() disagree", batch == single)
    if workload.parity is not None:
        config = workload.parity(derive(inputs.seed, 3))
        heap = run_system(config, core="heap")
        fast = run_system(config, core="fast")
        run.check("heap and fast cores differ",
                  _report_bytes(heap) == _report_bytes(fast))
        run.check("parity run has invariant violations", heap.ok and fast.ok)


def _report_bytes(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# timed phases
# ----------------------------------------------------------------------
def warmed_engine(inputs: Inputs) -> PlanningEngine:
    """The warm phase's engine, its structure caches already built."""
    engine = PlanningEngine()
    for model in inputs.workload.models:
        engine.plan(model, PLAN_N, as_channel(COLD_MBPS))
    return engine


def timed_phases(
    inputs: Inputs,
    run: Run,
    engine: PlanningEngine,
    seconds: float | None,
) -> Samples:
    """Cold, warm and bulk phases; ``seconds=None`` runs each phase once.

    Once means one cold plan per model, every play of the warm stream,
    and one bulk pass (a sweep over every model, or one ``run_system``
    call), with no probes: each piece's probe time reads ``REFERENCE_S``.

    With a time budget the run is cut into ``workload.slices`` equal
    slices, and every slice runs a share of each phase, so each unit's
    repeats span the whole run rather than one stretch of it. A slice
    plans every model cold once and each cheap one ``cold_rounds``
    times, plays the warm stream ``plays / slices`` times, and fills
    the rest with bulk units. Every piece is paired with a probe
    (:class:`~perfbench.pace.Pace`). Cold plans and ``run_system`` calls
    are cut into segments (:class:`~perfbench.attribution.Ticker`); a
    long one starts after a full garbage collection, so that the
    collector's pauses fall at the same points in every repeat.
    """
    workload = inputs.workload
    timed = seconds is not None
    slices = workload.slices if timed else 1
    pace = Pace() if timed else None
    samples = Samples(cold={model: [] for model in workload.models})
    before = engine.stats_snapshot()["totals"]
    start = time.perf_counter()
    # a full bulk pass is a sweep over every model, or one run_system call
    pass_units = 1 if workload.fleet else len(workload.models)
    units, bulk_seconds = 0, 0.0
    cold_ticker = Ticker(*COLD_TICK, between=pace.sample) if timed else None
    fleet_ticker = (
        Ticker("repro.fleet.fleet:FleetGateway", "submit", workload.tick_every,
               between=pace.sample)
        if timed and workload.fleet else None
    )
    for index in range(slices):
        slice_until = start + (seconds or 0.0) * (index + 1) / slices
        with cold_ticker or nullcontext():
            for round_ in range(workload.cold_rounds if timed else 1):
                for model, repeats in samples.cold.items():
                    costly = bool(repeats) and _seconds(repeats[-1]) > CHEAP_COLD_S
                    if not (round_ and costly):
                        _cold_unit(inputs, run, model, samples, pace, cold_ticker, costly)
        for _ in range(workload.plays // slices):
            for model, rate in inputs.stream:
                done = _measure(run, f"{model} warm plan", pace, None, engine.plan, model,
                                PLAN_N, as_channel(rate))
                if done is not None:
                    samples.warm.setdefault((model, rate), []).extend(done[0])
        # bulk units fill the slice once its share of a pass is done; none
        # starts that would overrun the slice, judged by the mean unit so far
        floor = -(-pass_units * (index + 1) // slices)
        with fleet_ticker or nullcontext():
            while units < floor or time.perf_counter() + bulk_seconds / units <= slice_until:
                unit_start = time.perf_counter()
                if workload.fleet is None:
                    _sweep_unit(inputs, run, engine, units, samples, pace)
                else:
                    _fleet_unit(inputs, run, samples, pace, fleet_ticker)
                bulk_seconds += time.perf_counter() - unit_start
                units += 1
    samples.wall = time.perf_counter() - start
    after = engine.stats_snapshot()["totals"]
    samples.warm_hits = after["hits"] - before["hits"]
    samples.warm_lookups = samples.warm_hits + after["misses"] - before["misses"]
    return samples


def _seconds(pieces: list[list[float]]) -> float:
    return sum(seconds for seconds, _ in pieces)


def _whole(fn: Callable, *args) -> tuple[list[float], object]:
    start = time.perf_counter()
    result = fn(*args)
    return [time.perf_counter() - start], result


def _measure(run: Run, label: str, pace: Pace | None, ticker: Ticker | None,
             fn: Callable, *args, count: int = 1):
    """``(pieces, result)`` of one closed-loop call, or None if it raised.

    Probes run just before and just after the call, and the ticker's at
    its cuts; each segment's probe time is the mean of the two around it.
    """
    if pace is not None:
        pace.taken.clear()
        pace.sample()
    done = run.call(label, ticker.time if ticker else _whole, fn, *args, count=count)
    if done is None:
        return None
    segments, result = done[1]
    if pace is None:
        return [[seconds, REFERENCE_S] for seconds in segments], result
    pace.sample()
    probes = pace.taken
    return [
        [seconds, (probes[i] + probes[i + 1]) / 2] for i, seconds in enumerate(segments)
    ], result


def _cold_unit(inputs: Inputs, run: Run, model: str, samples: Samples, pace: Pace | None,
               ticker: Ticker | None, costly: bool) -> None:
    """One cold plan on a fresh engine, checked against the reference."""
    if costly and pace is not None:
        gc.collect()
    done = _measure(run, f"{model} cold plan", pace, ticker, PlanningEngine().plan, model,
                    PLAN_N, as_channel(COLD_MBPS))
    if done is None:
        return
    samples.cold[model].append(done[0])
    if plan_signature(done[1]) != inputs.reference.get(model):
        run.fail(f"{model}: cold plan differs from reference_plans.json")


def _sweep_unit(inputs: Inputs, run: Run, engine: PlanningEngine, index: int,
                samples: Samples, pace: Pace | None) -> None:
    """One ``plan_batch`` at n = ``sweep_n`` over a model's sweep uplinks."""
    workload = inputs.workload
    model = workload.models[index % len(workload.models)]
    rates = [mbps(rate) for rate in inputs.sweep[model][:SWEEP_CELLS]]
    done = _measure(run, f"{model} sweep", pace, None, engine.plan_batch, model,
                    workload.sweep_n, rates, count=len(rates))
    if done is not None:
        samples.bulk.setdefault(model, []).append(done[0])
        samples.bulk_items[model] = len(done[1])


def _fleet_unit(inputs: Inputs, run: Run, samples: Samples, pace: Pace | None,
                ticker: Ticker | None) -> None:
    """One ``run_system`` call; every call of a run gets the same config."""
    if pace is not None:
        gc.collect()
    done = _measure(run, "run_system", pace, ticker, run_system, inputs.fleet)
    if done is None:
        return
    pieces, report = done
    if not report.ok:
        run.fail("run_system report has violations")
    samples.bulk.setdefault("run_system", []).append(pieces)
    samples.bulk_items["run_system"] = report.arrivals
    samples.reports.append(_summary(report))


def _summary(report) -> dict:
    """The report numbers the per-layer metrics and quality guard read."""
    fleet = report.fleet
    gpus = fleet.get("cloud", {}).get("servers", [])
    return {
        "arrivals": report.arrivals,
        "arrived_servers": fleet["arrived_servers"],
        "served": fleet["served"],
        "within_deadline": fleet["within_deadline"],
        "makespan": report.makespan,
        "batches": sum(gpu["batches"] for gpu in gpus),
        "batched_requests": sum(gpu["batched_requests"] for gpu in gpus),
        "max_batch": max((gpu["max_batch"] for gpu in gpus), default=0),
        "gpu_busy": [gpu["busy_time"] for gpu in gpus],
    }
