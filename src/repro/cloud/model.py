"""Batch-size-dependent latency model of one shared cloud GPU.

The planner prices the cloud stage of a request as a *solo* inference:
``CostTable.cloud_rest(cut)`` seconds of exclusive GPU time. Real
accelerators do not work that way — a large share of a single-image
inference is *per-launch* cost (kernel launches, framework dispatch,
weight/activation staging) that is paid once per **batch**, not once
per image. Executing ``b`` requests together therefore costs far less
than ``b`` solo inferences:

    latency(batch) = max_i fixed_i  +  sum_i marginal_i

where each member's solo time ``u_i`` splits into a fixed per-launch
part ``o_i = overhead_fraction * u_i`` and a marginal per-image part
``m_i = u_i - o_i``. The split is exact in floating point — a batch of
one costs *exactly* its solo time, which is what makes the
``serve_now`` policy byte-identical to the unbatched gateway path (the
parity lock in ``benchmarks/bench_cloud.py``).

``overhead_fraction`` is calibrated the same way the per-layer tables
of :mod:`repro.profiling.device` are: per-layer kernel-launch overhead
(``DeviceModel.layer_overhead``, 20 µs on the GTX1080 profile) summed
over the network's layers, divided by the network's total predicted
cloud time — the share of a solo inference that batching can amortize.
See :func:`CloudGpuModel.calibrate` and docs/costmodel.md.

``speedup`` scales the *executed* cloud times without the planner's
knowledge (the planner keeps pricing the calibrated profile), which is
exactly the ISSUE's contended-cloud setting: the shared GPU the cost
model cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.utils.codec import Codec
from repro.utils.validation import require_positive

__all__ = ["CloudGpuModel"]


@dataclass(frozen=True)
class CloudGpuModel(Codec):
    """Analytic throughput curve of one batching cloud GPU.

    ``overhead_fraction`` — share of a solo inference that is per-batch
    fixed cost (amortized by batching); ``speedup`` — uniform scale of
    executed cloud times versus the planner's calibrated profile
    (``0.1`` = a 10x slower GPU than the cost model assumes).
    """

    name: str = "batching-gpu"
    overhead_fraction: float = 0.35
    speedup: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.overhead_fraction < 1.0:
            raise ValueError(
                f"overhead_fraction must be in [0, 1), got {self.overhead_fraction}"
            )
        require_positive(self.speedup, "speedup")

    # ------------------------------------------------------------------
    # the latency decomposition
    # ------------------------------------------------------------------
    def unit_time(self, solo_time: float) -> float:
        """Executed solo time of one request on *this* GPU.

        ``solo_time`` is the planner-priced cloud stage
        (``CostTable.cloud_rest``); division by 1.0 is exact, so the
        default model executes exactly what the planner priced.
        """
        if solo_time < 0:
            raise ValueError(f"solo_time must be >= 0, got {solo_time}")
        return solo_time / self.speedup

    def fixed_part(self, unit_time: float) -> float:
        """Per-batch launch cost embedded in one executed solo time."""
        return self.overhead_fraction * unit_time

    def marginal_part(self, unit_time: float) -> float:
        """Per-image cost of one request (``unit - fixed``, exact)."""
        return unit_time - self.fixed_part(unit_time)

    def batch_latency(self, unit_times: Sequence[float]) -> float:
        """Service time of one coalesced batch of executed solo times.

        ``max(fixed) + sum(marginal)``: the launch cost is paid once
        (by the most launch-heavy member), every image pays its
        marginal cost. A batch of one reduces to ``fixed + marginal ==
        unit`` with no floating-point drift.
        """
        if not unit_times:
            raise ValueError("batch_latency needs at least one request")
        return max(self.fixed_part(u) for u in unit_times) + sum(
            self.marginal_part(u) for u in unit_times
        )

    def amortized_latency(self, solo_time: float, batch_size: int) -> float:
        """Per-request service time inside a homogeneous batch."""
        require_positive(batch_size, "batch_size")
        return self.batch_latency([self.unit_time(solo_time)] * batch_size) / batch_size

    def throughput_curve(
        self, solo_time: float, max_batch: int = 16
    ) -> list[dict[str, float]]:
        """Batch-size sweep: latency, per-item latency, items/s.

        The docs/bench artifact: shows the classic saturating curve —
        throughput approaches ``1 / marginal`` as the fixed launch cost
        amortizes across the batch.
        """
        require_positive(max_batch, "max_batch")
        unit = self.unit_time(solo_time)
        curve = []
        for size in range(1, max_batch + 1):
            latency = self.batch_latency([unit] * size)
            curve.append(
                {
                    "batch_size": size,
                    "latency": latency,
                    "per_item": latency / size,
                    "items_per_s": size / latency if latency > 0 else float("inf"),
                }
            )
        return curve

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    @classmethod
    def calibrate(
        cls,
        model: str = "alexnet",
        device=None,
        speedup: float = 1.0,
    ) -> "CloudGpuModel":
        """Derive ``overhead_fraction`` from a per-layer device profile.

        Every non-input layer of ``model`` pays ``layer_overhead``
        seconds of kernel-launch cost on ``device`` (default: the
        calibrated GTX1080 profile); the fraction of the network's
        total predicted time that this launch cost represents is
        exactly the batchable share of a solo inference.
        """
        from repro.nn.zoo import get_model
        from repro.profiling.device import gtx1080_server

        device = device or gtx1080_server()
        network = get_model(model)
        nodes = [n for n in network.nodes() if n.kind != "input"]
        total = sum(device.layer_time(n) for n in nodes)
        fixed = device.layer_overhead * len(nodes)
        if total <= 0:
            raise ValueError(f"model {model!r} has no cloud-executable time")
        fraction = min(fixed / total, 0.999)
        return cls(
            name=f"{device.name}-{model}-batching",
            overhead_fraction=fraction,
            speedup=speedup,
        )
