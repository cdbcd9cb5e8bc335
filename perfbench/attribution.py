"""Host-time attribution for the traced benchmark run.

:class:`Attribution` swaps each layer's public functions for timing
wrappers that live here, in the benchmark, so no program file changes.
Every wrapper pushes a frame on one call stack, which gives each layer
its *self time*: its duration minus the time covered by wrapped calls
nested inside it. Time inside the traced pass that no wrapper covers
is ``other_s``.

Coarse boundaries (``plan``, ``plan_batch``, ``run_system``, reports,
structure builds) also record one span per call into a
:class:`repro.obs.Tracer` on the host clock, so the pass exports as a
Chrome trace through :mod:`repro.obs.chrome`. Hot functions (about
295k ``MetricsRegistry.counter`` calls per fleet run) only add to an
aggregated count and total, so they allocate no span.

:class:`Ticker` uses the same rebinding to mark the host clock every
so many calls of one function, which the untraced run uses to time a
long unit of work in segments.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

from repro.obs.chrome import write_chrome_trace
from repro.obs.tracer import Tracer

__all__ = ["Attribution", "LayerStat", "Target", "Ticker", "LAYER_TARGETS", "rebind", "restore"]


@dataclass
class LayerStat:
    """Aggregate of one wrapped layer name."""

    calls: int = 0
    total: float = 0.0      # inclusive time of outermost calls of this name
    self: float = 0.0       # total minus wrapped calls nested inside
    depth: int = 0          # open calls of this name (recursion guard)
    items_in: int = 0       # len() of the first argument, summed
    items_out: int = 0      # len() of the result, summed


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap.

    ``owner`` is a module path, or ``module:Class`` for a method.
    ``span`` records one tracer span per call; ``count_items`` sums
    ``len()`` of the first argument and of the result, which must both
    be sized (cut survival: candidates in, survivors out).
    """

    layer: str
    owner: str
    attr: str
    span: bool = False
    count_items: bool = False


Patch = tuple[Any, str, Any]


def rebind(owner: str, attr: str, make: Callable[[Callable], Callable],
           patches: list[Patch]) -> None:
    """Bind ``make(original)`` wherever ``owner``'s ``attr`` is bound.

    ``owner`` is a module path, or ``module:Class`` for a method. A
    function imported by name (``from repro.dag.transform import
    collapse_clusterable_blocks``) is rebound in each importing module
    too, so calls through any name reach the wrapper. Every replaced
    binding is logged in ``patches`` for :func:`restore`.
    """
    module_name, _, class_name = owner.partition(":")
    holder = import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
        _patch(patches, holder, attr, make(holder.__dict__[attr]))
        return
    original = getattr(holder, attr)
    wrapper = make(original)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith(("repro", "perfbench")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                _patch(patches, module, key, wrapper)


def _patch(patches: list[Patch], holder: Any, attr: str, value: Any) -> None:
    patches.append((holder, attr, holder.__dict__[attr]))
    setattr(holder, attr, value)


def restore(patches: list[Patch]) -> None:
    """Undo :func:`rebind`, newest binding first."""
    while patches:
        holder, attr, original = patches.pop()
        setattr(holder, attr, original)


#: Every wrapped function, named by the layer metric it feeds.
LAYER_TARGETS: tuple[Target, ...] = (
    Target("dag.cluster", "repro.dag.transform", "collapse_clusterable_blocks", span=True),
    Target("dag.cut_bytes", "repro.dag.cuts", "cut_transfer_bytes"),
    Target("dag.sp_test", "repro.dag.topology", "is_series_parallel", span=True),
    Target("dag.frontier", "repro.dag.cuts", "enumerate_frontier_cuts", span=True),
    Target("dag.frontier", "repro.dag.cuts", "prune_dominated", span=True,
           count_items=True),
    Target("dag.partition", "repro.dag.partition", "dag_pareto_cuts", span=True),
    Target("dag.schedule", "repro.dag.partition", "dag_schedule_from_table"),
    Target("nn.build", "repro.nn.zoo", "get_model", span=True),
    Target("profiling.cut_costs", "repro.profiling.latency", "cut_costs", span=True),
    Target("engine.plan", "repro.engine.engine:PlanningEngine", "plan", span=True),
    Target("engine.plan_batch", "repro.engine.engine:PlanningEngine", "plan_batch",
           span=True),
    Target("serving.replan", "repro.engine.engine:PlanningEngine", "priced_table"),
    Target("core.split", "repro.core.partition", "split_exact"),
    Target("core.split_vec", "repro.core.partition", "split_exact_vectorized"),
    Target("core.search", "repro.core.partition", "binary_search_cut"),
    Target("core.search", "repro.core.partition", "searchsorted_cut"),
    Target("core.schedule", "repro.core.scheduling", "schedule_jobs"),
    Target("fleet.run_system", "repro.fleet.fleet", "run_system", span=True),
    Target("serving.workload", "repro.serving.workload", "generate_requests", span=True),
    Target("sim.run", "repro.sim.fast:FastEngine", "run", span=True),
    Target("fleet.submit", "repro.fleet.fleet:FleetGateway", "submit"),
    Target("fleet.place", "repro.fleet.placement:Placer", "place"),
    Target("serving.submit", "repro.serving.gateway:Gateway", "submit"),
    Target("obs.counter", "repro.obs.metrics:MetricsRegistry", "counter"),
    Target("fleet.report", "repro.fleet.fleet:FleetGateway", "report", span=True),
    Target("fleet.report", "repro.fleet.invariants", "fleet_accounting_violations",
           span=True),
    Target("cloud.submit", "repro.cloud.server:BatchingServer", "submit"),
    Target("cloud.submit", "repro.cloud.server:LeastQueuedRouter", "submit"),
    Target("obs.telemetry", "repro.obs.timeseries:TelemetryHub", "record"),
    Target("obs.telemetry", "repro.obs.timeseries:TelemetryHub", "sample"),
    Target("obs.telemetry", "repro.obs.timeseries:TelemetryHub", "observe"),
    Target("obs.slo", "repro.obs.slo:SloBoard", "outcome"),
    Target("obs.slo", "repro.obs.slo:SloBoard", "finalize", span=True),
)


class Attribution:
    """Self-time attribution over wrapped layer functions.

    ``clock`` is any zero-argument callable returning seconds (tests
    pass a fake one); it times frames and the tracer's spans alike.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.tracer = Tracer(clock=clock)
        self.stats: dict[str, LayerStat] = {}
        self.wall = 0.0
        self.covered = 0.0          # time inside outermost wrapped calls
        self._stack: list[list[float]] = []
        self._patches: list[Patch] = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, span: bool = False,
             count_items: bool = False) -> Callable:
        """``fn`` timed under ``layer``; see the module docstring."""
        stat = self.stats.setdefault(layer, LayerStat())
        stack = self._stack
        clock = self.clock
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]                  # [nested wrapped time, start]
            stack.append(frame)
            stat.depth += 1
            context = tracer.span(layer) if span else None
            if context is not None:
                context.__enter__()
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                if context is not None:
                    context.__exit__(None, None, None)
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self += duration - frame[0]
                if stat.depth == 0:
                    stat.total += duration
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered += duration
            if count_items:
                stat.items_in += len(args[0])
                stat.items_out += len(result)
            return result

        return wrapper

    def install(self, targets: tuple[Target, ...] = LAYER_TARGETS) -> None:
        """Wrap every target everywhere it is bound in loaded modules (:func:`rebind`)."""
        for target in targets:
            rebind(
                target.owner,
                target.attr,
                lambda fn, t=target: self.wrap(t.layer, fn, t.span, t.count_items),
                self._patches,
            )

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        restore(self._patches)

    # ------------------------------------------------------------------
    def measure(self, fn: Callable[[], Any],
                targets: tuple[Target, ...] = LAYER_TARGETS) -> Any:
        """Run ``fn`` with ``targets`` wrapped; its wall time adds to ``wall``."""
        self.install(targets)
        try:
            start = self.clock()
            try:
                return fn()
            finally:
                self.wall += self.clock() - start
        finally:
            self.uninstall()

    @property
    def other_s(self) -> float:
        """Traced wall time that no wrapped call covers."""
        return self.wall - self.covered

    def stat(self, layer: str) -> LayerStat:
        return self.stats.get(layer, LayerStat())

    def export_chrome(self, path) -> None:
        """Write the coarse spans as a Chrome/Perfetto trace."""
        write_chrome_trace(path, self.tracer.spans, self.tracer.instants)


class Ticker:
    """Host-clock marks every ``every`` calls of one function.

    A deterministic unit of work makes the same calls on every repeat,
    so the marks cut each repeat into the same segments. A long unit is
    then timed segment by segment (:func:`perfbench.metrics.quiet`), and
    a stretch of host contention spoils only the segments it overlaps.
    ``between`` runs at each mark, untimed: the next segment starts
    when it returns. Used as a context manager, which installs and
    removes the wrapper.
    """

    def __init__(self, owner: str, attr: str, every: int,
                 clock: Callable[[], float] = time.perf_counter,
                 between: Callable[[], None] | None = None) -> None:
        self.owner, self.attr, self.every, self.clock = owner, attr, every, clock
        self.between = between
        self.ends: list[float] = []
        self.starts: list[float] = []
        self._calls = [0]
        self._patches: list[Patch] = []

    def __enter__(self) -> "Ticker":
        ends, starts, calls, every = self.ends, self.starts, self._calls, self.every
        clock, between = self.clock, self.between

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def ticked(*args, **kwargs):
                calls[0] += 1
                if calls[0] % every == 0:
                    now = clock()
                    ends.append(now)
                    if between is not None:
                        between()
                        now = clock()
                    starts.append(now)
                return fn(*args, **kwargs)

            return ticked

        rebind(self.owner, self.attr, make, self._patches)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._patches)

    def time(self, fn: Callable, *args) -> tuple[list[float], Any]:
        """``fn(*args)``'s duration cut at the marks, and its result."""
        self.ends.clear()
        self.starts.clear()
        self._calls[0] = 0
        self.starts.append(self.clock())
        result = fn(*args)
        self.ends.append(self.clock())
        return [end - start for start, end in zip(self.starts, self.ends)], result
