"""Cloud-side batching as a ``SystemConfig`` block.

``SystemConfig.cloud`` is strictly opt-in: when it is ``None`` (the
default) every gateway keeps its own free, infinitely parallel cloud
GPU — the pre-batching behavior, byte-identical to the golden compat
reports. When set, the fleet builds ``gpus`` shared
:class:`~repro.cloud.server.BatchingServer` instances on the one fleet
engine and wires gateway ``i`` to GPU ``i % gpus``, so N servers
contend for K GPUs and the hold-and-batch knobs apply fleet-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.model import CloudGpuModel
from repro.cloud.server import BATCHING_POLICIES, GPU_ASSIGNMENTS
from repro.utils.codec import Codec
from repro.utils.validation import require_positive

__all__ = ["CloudConfig"]


@dataclass(frozen=True)
class CloudConfig(Codec):
    """Shared batching cloud: pool size, hold knobs, GPU model.

    ``assignment`` picks how servers map to pool GPUs:
    ``"least_queued"`` (the default) routes every submit to the GPU
    with the smallest :meth:`~repro.cloud.server.BatchingServer.queue_delay`
    at that instant; ``"round_robin"`` restores the PR 7 static
    gateway ``i`` → GPU ``i % gpus`` wiring (the serve-now bijection
    parity lock pins this). A single-GPU pool is identical either way
    and never builds a router.
    """

    gpus: int = 1
    max_batch: int = 8
    max_wait: float = 0.02
    policy: str = "batch"
    assignment: str = "least_queued"
    model: CloudGpuModel = field(default_factory=CloudGpuModel)

    def __post_init__(self) -> None:
        require_positive(self.gpus, "gpus")
        require_positive(self.max_batch, "max_batch")
        if self.max_wait < 0 or not math.isfinite(self.max_wait):
            raise ValueError(f"max_wait must be finite and >= 0, got {self.max_wait}")
        if self.policy not in BATCHING_POLICIES:
            raise ValueError(
                f"unknown batching policy {self.policy!r} (use {BATCHING_POLICIES})"
            )
        if self.assignment not in GPU_ASSIGNMENTS:
            raise ValueError(
                f"unknown GPU assignment {self.assignment!r} (use {GPU_ASSIGNMENTS})"
            )
