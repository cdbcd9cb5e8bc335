"""Shared experiment environment: devices, channels, cost tables.

Every figure/table harness runs on the same :class:`ExperimentEnv` so
the schemes are compared under identical cost models. The environment
owns one :class:`~repro.engine.PlanningEngine`, which decides each
model's structure (line, series-parallel frontier or DAG) and memoizes
the bandwidth-independent cut space behind it; per-bandwidth cost
tables are priced from that cache, which keeps the Fig. 13 sweep over
80 bandwidths fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.joint import Structure, jps_line
from repro.core.plans import Schedule
from repro.dag.partition import dag_schedule_from_table
from repro.engine.engine import BASELINES, PlanningEngine
from repro.net.bandwidth import BandwidthPreset, TrafficShaper
from repro.net.channel import Channel
from repro.nn.network import Network
from repro.obs.tracer import NullTracer, Tracer
from repro.profiling.device import DeviceModel, gtx1080_server, raspberry_pi_4
from repro.profiling.latency import CostTable
from repro.utils.units import mbps

__all__ = ["ExperimentEnv", "SCHEMES", "EXPERIMENT_MODELS"]

#: The four models of the paper's evaluation (§6.1), in figure order.
EXPERIMENT_MODELS = ["alexnet", "googlenet", "mobilenet-v2", "resnet18"]

#: Scheme labels in the paper's legend order.
SCHEMES = ["LO", "CO", "PO", "JPS"]


@dataclass
class ExperimentEnv:
    """Deterministic experiment context planning through one engine."""

    mobile: DeviceModel = field(default_factory=raspberry_pi_4)
    cloud: DeviceModel = field(default_factory=gtx1080_server)
    seed: int = 0
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)

    def __post_init__(self) -> None:
        self._engine: PlanningEngine | None = None

    @property
    def engine(self) -> PlanningEngine:
        """A lazily-built planning engine on this env's device pair.

        Every structure decision, network and cost table of this env
        comes from it, so :meth:`run_scheme` and :meth:`run_scheme_batch`
        plan on the same tables.
        """
        if self._engine is None:
            self._engine = PlanningEngine(
                mobile=self.mobile, cloud=self.cloud, tracer=self.tracer
            )
        return self._engine

    # ------------------------------------------------------------------
    def network(self, name: str) -> Network:
        return self.engine.resolve(name)

    def channel(self, bandwidth: BandwidthPreset | float) -> Channel:
        """A channel at a preset or a raw uplink rate in Mbps."""
        if isinstance(bandwidth, BandwidthPreset):
            return Channel(shaper=TrafficShaper.from_preset(bandwidth))
        return Channel(
            shaper=TrafficShaper(uplink_bps=mbps(bandwidth), downlink_bps=mbps(2 * bandwidth))
        )

    def uplink_bps_of(self, bandwidth: BandwidthPreset | float) -> float:
        """The raw uplink rate :meth:`channel` would price with."""
        if isinstance(bandwidth, BandwidthPreset):
            return bandwidth.uplink_bps
        return mbps(bandwidth)

    def treats_as_line(self, name: str) -> bool:
        """True if virtual-block clustering linearizes the model (§3.2)."""
        return self.engine.structure_of(name) is Structure.LINE

    def cost_table(self, name: str, bandwidth: BandwidthPreset | float) -> CostTable:
        """The model's cost table at the given bandwidth.

        Line-clusterable models get the clustered line table, other
        series-parallel DAGs (GoogLeNet) the Pareto-frontier table and
        the rest the true-DAG cut table; every scheme (LO, CO, PO, JPS)
        consumes it identically — PO on a cut table is the DAG
        generalization of the Neurosurgeon cut.
        """
        return self.engine.cost_table(name, self.channel(bandwidth))

    # ------------------------------------------------------------------
    def run_scheme(
        self, name: str, bandwidth: BandwidthPreset | float, n: int, scheme: str
    ) -> Schedule:
        """One (model, bandwidth, scheme) cell."""
        with self.tracer.span(
            "experiment/cell",
            lane=("experiments", scheme),
            model=name,
            bandwidth=str(bandwidth),
            n=n,
            scheme=scheme,
        ):
            return self._run_scheme(name, bandwidth, n, scheme)

    def _run_scheme(
        self, name: str, bandwidth: BandwidthPreset | float, n: int, scheme: str
    ) -> Schedule:
        channel = self.channel(bandwidth)
        if scheme in BASELINES:
            return BASELINES[scheme](self.engine.cost_table(name, channel), n)
        if scheme not in ("JPS", "JPS-ratio"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if self.engine.structure_of(name) is Structure.DAG:
            dag = self.engine.dag_table(name, channel)
            return dag_schedule_from_table(dag.table, dag.cuts, n, model=name)
        split = "ratio" if scheme == "JPS-ratio" else "exact"
        return jps_line(self.engine.cost_table(name, channel), n, split=split)

    def run_scheme_batch(
        self,
        name: str,
        bandwidths: list[BandwidthPreset | float],
        n: int,
        scheme: str,
    ) -> list[Schedule]:
        """One scheme across a whole bandwidth vector, vectorized.

        Routes through :meth:`PlanningEngine.plan_batch`, so the whole
        vector prices one cached bandwidth-independent kernel and each
        rate pays only the ``searchsorted`` crossing + matrix split.
        Bit-identical to calling :meth:`run_scheme` per bandwidth
        (``wrap_frontier=False`` keeps the harnesses' historical plain
        ``"JPS"`` schedules on frontier tables).
        """
        rates = [self.uplink_bps_of(b) for b in bandwidths]
        with self.tracer.span(
            "experiment/batch",
            lane=("experiments", scheme),
            model=name,
            n=n,
            scheme=scheme,
            cells=len(rates),
        ):
            split = "ratio" if scheme == "JPS-ratio" else "exact"
            chosen = "JPS" if scheme == "JPS-ratio" else scheme
            return self.engine.plan_batch(
                name, n, rates, scheme=chosen, split=split, wrap_frontier=False
            )

    def scheme_grid(
        self,
        models: list[str],
        bandwidth: BandwidthPreset | float,
        n: int,
        schemes: list[str] | None = None,
    ) -> dict[str, dict[str, Schedule]]:
        """{model: {scheme: Schedule}} for one bandwidth."""
        chosen = schemes or SCHEMES
        return {
            model: {scheme: self.run_scheme(model, bandwidth, n, scheme) for scheme in chosen}
            for model in models
        }
