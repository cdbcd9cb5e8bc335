"""Tests of the benchmark itself: attribution, statistics, names, smoke runs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro.dag.transform
import repro.engine.engine
import repro.obs.metrics
from perfbench import workloads
from perfbench.attribution import LAYER_TARGETS, Attribution, Ticker
from perfbench.metrics import (
    END_TO_END,
    PER_LAYER,
    end_to_end,
    per_layer,
    percentile,
    tail_percentile,
    typical,
)
from perfbench.pace import ELASTICITY, REFERENCE_S, Pace, adjusted
from perfbench.workloads import (
    WORKLOADS,
    Run,
    check_outputs,
    prepare,
    timed_phases,
    tiny,
    warmed_engine,
)

#: Metric and workload names: letters, digits, ``_``, ``.``, ``-``; at most 64.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float):
        def step() -> None:
            self.now += seconds

        return step


def test_self_time_and_other_on_synthetic_tree():
    clock = FakeClock()
    attribution = Attribution(clock=clock)
    leaf = attribution.wrap("leaf", clock.advance(2.0), span=True)
    hot = attribution.wrap("hot", clock.advance(0.5))

    def root_body() -> None:
        clock.now += 1.0
        leaf()
        hot()
        hot()
        clock.now += 0.25

    root = attribution.wrap("root", root_body, span=True)

    def body() -> None:
        clock.now += 3.0
        root()
        clock.now += 0.75

    attribution.measure(body, targets=())
    assert attribution.wall == 8.0
    assert attribution.stat("root").total == 4.25
    assert attribution.stat("root").self == 1.25
    assert attribution.stat("leaf").self == 2.0
    assert (attribution.stat("hot").calls, attribution.stat("hot").total) == (2, 1.0)
    assert attribution.other_s == 3.75
    # hot functions aggregate; only coarse boundaries allocate spans
    spans = {span.name: span for span in attribution.tracer.spans}
    assert set(spans) == {"leaf", "root"}
    assert spans["leaf"].parent_id == spans["root"].span_id


def test_recursive_calls_count_their_time_once():
    clock = FakeClock()
    attribution = Attribution(clock=clock)

    def countdown(depth: int) -> None:
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)

    wrapped = attribution.wrap("rec", countdown)
    attribution.measure(lambda: wrapped(2), targets=())
    stat = attribution.stat("rec")
    assert (stat.calls, stat.total, stat.self) == (3, 3.0, 3.0)
    assert attribution.other_s == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 90.0) == 90.0
    assert percentile(values, 50.0) == 50.0


def test_pieces_rescale_to_the_reference_pace():
    slow = 2 * REFERENCE_S
    # a piece timed while the probe ran at half speed counts 2 ** -ELASTICITY
    assert adjusted([[4.0, slow], [1.0, REFERENCE_S]]) == pytest.approx(
        4.0 * 2 ** -ELASTICITY + 1.0
    )
    repeats = [[[4.0, slow]], [[2.0, REFERENCE_S]], [[9.0, REFERENCE_S]]]
    assert typical(repeats) == pytest.approx(4.0 * 2 ** -ELASTICITY)


def test_pace_times_its_probe_with_the_collector_paused():
    clock = FakeClock()
    seen = []

    def work() -> None:
        seen.append(gc.isenabled())
        clock.now += 0.5

    pace = Pace(clock=clock, work=work)
    pace.sample()
    pace.sample()
    assert pace.taken == [0.5, 0.5]
    assert seen == [False, False] and gc.isenabled()


def test_ticker_cuts_a_call_into_segments_and_unwinds():
    clock = FakeClock()
    step = clock.advance(1.0)
    workloads.tick_target = step
    try:
        def unit() -> str:
            for _ in range(5):
                workloads.tick_target()
            clock.now += 0.5
            return "done"

        probes = []

        def between() -> None:
            probes.append(clock.now)
            clock.now += 100.0          # untimed: no segment includes it

        with Ticker("perfbench.workloads", "tick_target", 2, clock=clock,
                    between=between) as ticker:
            assert ticker.time(unit) == ([1.0, 2.0, 2.5], "done")
            assert ticker.time(unit)[0] == [1.0, 2.0, 2.5]
        assert probes == [1.0, 103.0, 206.5, 308.5]
        assert workloads.tick_target is step
    finally:
        del workloads.tick_target


def test_metric_names_are_valid_and_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert entry["unit"] == {**END_TO_END, **PER_LAYER}[entry["name"]]
    for bad in ("", "_x", "has space", "x" * 65, "a/b"):
        assert not NAME.fullmatch(bad)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name):
    workload = tiny(WORKLOADS[name])
    inputs = prepare(workload, seed=3)
    run = Run()
    check_outputs(inputs, run)
    samples = timed_phases(inputs, run, warmed_engine(inputs), seconds=0.5)
    reported = end_to_end(samples, [[1.0, REFERENCE_S]], 100.0, bool(workload.fleet))
    assert set(reported) == set(END_TO_END)

    untraced = timed_phases(inputs, run, warmed_engine(inputs), None)
    attribution = Attribution()
    engine = warmed_engine(inputs)
    traced = attribution.measure(lambda: timed_phases(inputs, run, engine, None))
    layers = per_layer(attribution, traced, untraced)
    assert set(layers) == set(PER_LAYER)
    assert run.failed == 0, run.failures
    assert layers["core.split_calls"].value > 0
    if workload.fleet:
        assert layers["fleet.place_calls"].value > 0
    # every wrapper is gone again
    assert repro.obs.metrics.MetricsRegistry.counter.__qualname__ == "MetricsRegistry.counter"
    original = repro.dag.transform.collapse_clusterable_blocks
    assert repro.engine.engine.collapse_clusterable_blocks is original
    assert not hasattr(original, "__wrapped__")


def test_forced_parity_mismatch_counts_as_failure(monkeypatch):
    real = workloads.run_system

    def skewed(config, core="fast"):
        report = real(config, core=core)
        return replace(report, makespan=report.makespan + 1.0) if core == "heap" else report

    monkeypatch.setattr(workloads, "run_system", skewed)
    inputs = prepare(tiny(WORKLOADS["fleet_overload"]), seed=0)
    run = Run()
    check_outputs(inputs, run)
    assert run.failed == 1
    assert run.failures == ["heap and fast cores differ"]


def test_plan_differing_from_reference_counts_as_failure():
    inputs = prepare(tiny(WORKLOADS["plan_zoo"]), seed=0)
    broken = {**inputs.reference, "alexnet": {**inputs.reference["alexnet"], "makespan": 0.0}}
    run = Run()
    check_outputs(replace(inputs, reference=broken), run)
    assert run.failed == 1
    assert "alexnet" in run.failures[0]


def test_every_target_resolves():
    attribution = Attribution()
    attribution.install(LAYER_TARGETS)
    try:
        assert attribution._patches
    finally:
        attribution.uninstall()
    assert not attribution._patches
