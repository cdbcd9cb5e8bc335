"""Metric definitions and the statistics behind them.

End-to-end metrics come from an untraced run, per-layer metrics from a
traced one (:mod:`perfbench.attribution`). Every workload reports every
metric; NOTES.md says what each one means on each workload.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from perfbench.attribution import Attribution
from perfbench.pace import REFERENCE_S, adjusted
from perfbench.workloads import Samples

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "distribution",
    "end_to_end",
    "per_layer",
    "percentile",
    "tail_percentile",
    "typical",
]

#: Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "plan_cold_s": "s",
    "plan_cold_p50_ms": "ms",
    "replan_p50_ms": "ms",
    "items_per_s": "1/s",
}

PER_LAYER = {
    "dag.cluster_s": "s",
    "dag.cut_bytes_calls": "count",
    "dag.sp_test_s": "s",
    "dag.frontier_s": "s",
    "dag.frontier_survival": "ratio",
    "dag.partition_s": "s",
    "nn.build_s": "s",
    "profiling.cut_costs_s": "s",
    "engine.plan_s": "s",
    "engine.plan_self_s": "s",
    "core.split_s": "s",
    "core.split_calls": "count",
    "core.search_s": "s",
    "core.schedule_s": "s",
    "dag.schedule_s": "s",
    "engine.hit_ratio": "ratio",
    "core.split_vec_s": "s",
    "serving.workload_s": "s",
    "fleet.submit_self_s": "s",
    "fleet.place_s": "s",
    "fleet.place_calls": "count",
    "serving.submit_self_s": "s",
    "obs.counter_s": "s",
    "obs.counter_calls_per_arrival": "ratio",
    "fleet.run_system_s": "s",
    "sim.run_self_s": "s",
    "fleet.report_s": "s",
    "serving.replans": "count",
    "serving.replan_s": "s",
    "serving.served_ratio": "ratio",
    "cloud.submit_s": "s",
    "cloud.batches": "count",
    "cloud.batch_fill": "ratio",
    "cloud.gpu_busy_frac": "ratio",
    "obs.telemetry_s": "s",
    "obs.slo_s": "s",
    "other_s": "s",
    "trace.overhead_pct": "%",
}


def tail_percentile(count: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if round(count * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def typical(repeats: list[list[list[float]]]) -> float:
    """A repeated unit's median time at the reference pace (:mod:`perfbench.pace`)."""
    return statistics.median(adjusted(pieces) for pieces in repeats)


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit and how it was measured."""

    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    samples: Samples, setup: list[list[float]], peak_rss_mb: float, fleet: bool
) -> dict[str, Metric]:
    """The bounded metrics of an untraced run.

    Every timing is at the reference pace: each piece of work is
    rescaled by the probes taken around it, and a unit's repeats,
    spread across the whole run, give their median (:func:`typical`).
    On a host whose cores are shared this moved least from run to run
    (NOTES.md, "Noise").
    """
    cold = {m: typical(v) for m, v in samples.cold.items() if v}
    warm = [adjusted([piece]) for v in samples.warm.values() for piece in v]
    bulk = {unit: typical(v) for unit, v in samples.bulk.items()}
    rounds = min((len(v) for v in samples.cold.values()), default=0)
    metrics = [
        Metric("setup_s", statistics.median(adjusted([piece]) for piece in setup), "s",
               len(setup), "median of fresh-interpreter set-ups"),
        Metric("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric("plan_cold_s", sum(cold.values()), "s", len(cold),
               f"sum over models of the median of {rounds}+ cold plans"),
        Metric("plan_cold_p50_ms", statistics.median(cold.values()) * 1e3, "ms", len(cold),
               "median over models of the median cold plan"),
        Metric("replan_p50_ms", statistics.median(warm) * 1e3, "ms", len(warm)),
        Metric("items_per_s",
               _ratio(sum(samples.bulk_items[u] for u in bulk), sum(bulk.values())),
               "1/s", sum(len(v) for v in samples.bulk.values()),
               ("sim arrivals per second of the median run_system call" if fleet
                else "sweep cells per second, each model's median plan_batch")),
    ]
    return {m.name: m for m in metrics}


def distribution(samples: Samples, fleet: bool) -> dict[str, Metric]:
    """The unbounded figures: the warm tail, raw wall times, pace, quality."""
    pieces = [piece for v in samples.warm.values() for piece in v]
    warm = [adjusted([piece]) for piece in pieces]
    raw = [seconds for seconds, _ in pieces]
    tail = tail_percentile(len(warm))
    items = sum(samples.bulk_items[u] * len(v) for u, v in samples.bulk.items())
    seconds = sum(sum(s for p in v for s, _ in p) for v in samples.bulk.values())
    probes = [probe for v in samples.warm.values() for _, probe in v]
    metrics = [
        Metric(f"replan_p{tail:g}_ms" if tail else "replan_max_ms",
               (percentile(warm, tail) if tail else max(warm)) * 1e3, "ms", len(warm)),
        Metric("wall_replan_p50_ms", statistics.median(raw) * 1e3, "ms", len(raw),
               "not rescaled to the reference pace"),
        Metric("sim_arrivals_per_s" if fleet else "sweep_cells_per_s",
               _ratio(items, seconds), "1/s", sum(len(v) for v in samples.bulk.values()),
               "all calls, wall time, not rescaled"),
        Metric("host_pace", statistics.median(probes) / REFERENCE_S if probes else 1.0,
               "ratio", len(probes), "median probe time / reference; 1 is a quiet host"),
    ]
    if samples.reports:
        within = sum(r["within_deadline"] for r in samples.reports)
        arrivals = sum(r["arrivals"] for r in samples.reports)
        metrics.append(Metric("deadline_hit_rate", within / arrivals, "ratio",
                              len(samples.reports), "within_deadline / arrivals"))
    return {m.name: m for m in metrics}


def per_layer(attribution: Attribution, traced: Samples, untraced: Samples) -> dict[str, Metric]:
    """Per-layer metrics of a traced pass; ``untraced`` is the same work untraced."""
    stat = attribution.stat
    reports = traced.reports
    arrivals = sum(r["arrivals"] for r in reports)
    batches = sum(r["batches"] for r in reports)
    busy = [b / r["makespan"] for r in reports for b in r["gpu_busy"] if r["makespan"]]
    frontier = stat("dag.frontier")
    values = {
        "dag.cluster_s": stat("dag.cluster").total,
        "dag.cut_bytes_calls": stat("dag.cut_bytes").calls,
        "dag.sp_test_s": stat("dag.sp_test").total,
        "dag.frontier_s": frontier.total,
        "dag.frontier_survival": _ratio(frontier.items_out, frontier.items_in),
        "dag.partition_s": stat("dag.partition").total,
        "nn.build_s": stat("nn.build").total,
        "profiling.cut_costs_s": stat("profiling.cut_costs").total,
        "engine.plan_s": stat("engine.plan").total,
        "engine.plan_self_s": stat("engine.plan").self,
        "core.split_s": stat("core.split").total,
        "core.split_calls": stat("core.split").calls,
        "core.search_s": stat("core.search").total,
        "core.schedule_s": stat("core.schedule").total,
        "dag.schedule_s": stat("dag.schedule").total,
        "engine.hit_ratio": _ratio(traced.warm_hits, traced.warm_lookups),
        "core.split_vec_s": stat("core.split_vec").total,
        "serving.workload_s": stat("serving.workload").total,
        "fleet.submit_self_s": stat("fleet.submit").self,
        "fleet.place_s": stat("fleet.place").total,
        "fleet.place_calls": stat("fleet.place").calls,
        "serving.submit_self_s": stat("serving.submit").self,
        "obs.counter_s": stat("obs.counter").total,
        "obs.counter_calls_per_arrival": _ratio(stat("obs.counter").calls, arrivals),
        "fleet.run_system_s": stat("fleet.run_system").total,
        "sim.run_self_s": stat("sim.run").self,
        "fleet.report_s": stat("fleet.report").total,
        "serving.replans": stat("serving.replan").calls,
        "serving.replan_s": stat("serving.replan").total,
        "serving.served_ratio": _ratio(sum(r["served"] for r in reports),
                                       sum(r["arrived_servers"] for r in reports)),
        "cloud.submit_s": stat("cloud.submit").total,
        "cloud.batches": batches,
        "cloud.batch_fill": _ratio(sum(r["batched_requests"] for r in reports),
                                   sum(r["batches"] * r["max_batch"] for r in reports)),
        "cloud.gpu_busy_frac": _ratio(sum(busy), len(busy)),
        "obs.telemetry_s": stat("obs.telemetry").total,
        "obs.slo_s": stat("obs.slo").total,
        "other_s": attribution.other_s,
        "trace.overhead_pct": 100.0 * (_ratio(traced.wall, untraced.wall) - 1.0),
    }
    return {
        name: Metric(name, float(values[name]), unit, 1) for name, unit in PER_LAYER.items()
    }
