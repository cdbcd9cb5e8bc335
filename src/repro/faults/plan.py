"""Fault plans: seeded, composable descriptions of what goes wrong.

A :class:`FaultPlan` is a declarative schedule of channel and client
faults — blackout/stall windows, bandwidth spikes, probabilistic
transfer corruption, client disconnect windows, cost-model
misestimation — that the serving stack executes deterministically under
its seed. The plan itself is pure data: timeline faults compose onto a
ground-truth :class:`~repro.net.timeline.BandwidthTimeline` via
:meth:`FaultPlan.apply_to_timeline`, and the runtime decisions (was
*this* transfer attempt corrupted?) are answered by a fresh
:class:`~repro.faults.injector.FaultInjector` per run, so replays with
the same seed are bit-identical and concurrent scheme comparisons never
share mutable fault state.

All random decision families follow the :func:`repro.utils.rng.stream_rng`
convention — one named stream per family — so toggling one fault kind
never shifts another kind's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.timeline import BandwidthTimeline
from repro.utils.codec import Codec, positional
from repro.utils.rng import DEFAULT_SEED
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)

__all__ = [
    "BLACKOUT_BPS",
    "Blackout",
    "RateSpike",
    "TransferCorruption",
    "ClientOutage",
    "CostMisestimation",
    "FaultPlan",
]

#: Residual rate of a blacked-out uplink, in bits/s. Not zero — a
#: transfer that starts inside a blackout must *stall* (and resume when
#: the window ends), not divide by zero; at 1 mbit/1000 s the stall is
#: indistinguishable from a dead link on any realistic horizon.
BLACKOUT_BPS = 1e-3


@positional
@dataclass(frozen=True)
class Blackout:
    """Uplink blackout/stall window: the channel carries ~nothing.

    Transfers in flight at ``start`` stall until ``end`` and then resume
    at the base rate — exactly how a piecewise-constant rate trace prices
    a transfer crossing the window.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        if not self.end > self.start:
            raise ValueError(f"blackout end {self.end} must be > start {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@positional
@dataclass(frozen=True)
class RateSpike:
    """Multiplicative bandwidth window: ``factor`` > 1 spikes, < 1 sags."""

    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        if not self.end > self.start:
            raise ValueError(f"spike end {self.end} must be > start {self.start}")
        require_positive(self.factor, "factor")


@dataclass(frozen=True)
class TransferCorruption:
    """Each transfer attempt is corrupted (must retransmit) with
    probability ``probability``, inside ``[start, end)``.

    Decisions are drawn per ``(request, attempt)`` from a dedicated
    stream, so a retry's fate never depends on what other requests did.
    """

    probability: float
    start: float = 0.0
    end: float = float("inf")

    def __post_init__(self) -> None:
        require_in_range(self.probability, 0.0, 1.0, "probability")
        require_non_negative(self.start, "start")
        if not self.end > self.start:
            raise ValueError(f"corruption end {self.end} must be > start {self.start}")


@positional
@dataclass(frozen=True)
class ClientOutage:
    """One client's requests never reach the gateway on ``[start, end)``."""

    client_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.client_id:
            raise ValueError("client_id must be non-empty")
        require_non_negative(self.start, "start")
        if not self.end > self.start:
            raise ValueError(f"outage end {self.end} must be > start {self.start}")


@dataclass(frozen=True)
class CostMisestimation:
    """The planner's cost model is systematically wrong.

    Executed mobile compute is ``compute_scale`` times the planned
    value, uploaded payloads are ``payload_scale`` times the planned
    bytes, and ``jitter`` adds per-request log-normal noise (sigma) on
    top of both — the planner keeps planning with the clean numbers.
    """

    compute_scale: float = 1.0
    payload_scale: float = 1.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.compute_scale, "compute_scale")
        require_positive(self.payload_scale, "payload_scale")
        require_non_negative(self.jitter, "jitter")

    @property
    def is_noop(self) -> bool:
        return (
            self.compute_scale == 1.0
            and self.payload_scale == 1.0
            and self.jitter == 0.0
        )


@dataclass(frozen=True)
class FaultPlan(Codec):
    """A seeded, composable fault schedule for one serving run."""

    seed: int = DEFAULT_SEED
    blackouts: tuple[Blackout, ...] = ()
    spikes: tuple[RateSpike, ...] = ()
    corruption: TransferCorruption | None = None
    outages: tuple[ClientOutage, ...] = ()
    misestimation: CostMisestimation | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # tolerate lists from JSON-ish construction
        object.__setattr__(self, "blackouts", tuple(self.blackouts))
        object.__setattr__(self, "spikes", tuple(self.spikes))
        object.__setattr__(self, "outages", tuple(self.outages))

    # ------------------------------------------------------------------
    def apply_to_timeline(self, timeline: BandwidthTimeline) -> BandwidthTimeline:
        """The ground-truth trace with spikes and blackouts overlaid.

        Spikes first (multiplicative on the base rate), blackouts last —
        a blackout always wins over a concurrent spike.
        """
        faulted = timeline.with_rate_windows(
            [(s.start, s.end, s.factor) for s in self.spikes], multiply=True
        )
        return faulted.with_rate_windows(
            [(b.start, b.end, BLACKOUT_BPS) for b in self.blackouts]
        )

    def injector(self) -> "FaultInjector":
        """A fresh runtime injector for one gateway run."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self)

    # ------------------------------------------------------------------
    def blackout_at(self, t: float) -> bool:
        return any(b.start <= t < b.end for b in self.blackouts)

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.blackouts
            and not self.spikes
            and not self.outages
            and (self.corruption is None or self.corruption.probability == 0.0)
            and (self.misestimation is None or self.misestimation.is_noop)
        )
