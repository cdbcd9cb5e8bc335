"""Gateway resilience policies: how the serving layer answers faults.

A :class:`ResiliencePolicy` bundles the three responses the gateway can
mount against a misbehaving uplink, all strictly opt-in (a gateway
constructed without one behaves byte-identically to the policy-free
code path):

* **bounded retry with exponential backoff** — a failed transfer
  attempt (corrupt frame, per-attempt timeout) is retried up to
  ``max_retries`` times, attempt ``i`` waiting
  ``backoff_base * backoff_factor**i`` seconds first;
* **per-attempt transfer timeouts** — ``transfer_timeout`` caps how
  long one upload attempt may hold the uplink before it is abandoned
  (the stalled-in-blackout case the estimator alone cannot see, because
  no observation ever completes);
* **graceful degradation to local-only** — after
  ``degrade_after_failures`` consecutive failed attempts the gateway
  enters degraded mode: requests execute fully on the device (the LO
  cut) while small recovery probes test the uplink every
  ``probe_interval`` seconds; the first probe that returns within its
  timeout triggers a recovery re-plan and normal offloading resumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.codec import Codec
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["ResiliencePolicy"]


@dataclass(frozen=True)
class ResiliencePolicy(Codec):
    """Opt-in fault responses for :class:`~repro.serving.gateway.Gateway`."""

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    transfer_timeout: float | None = 1.0
    degrade_after_failures: int = 2
    local_fallback: bool = True
    probe_interval: float = 0.5
    probe_bytes: float = 16 * 1024.0
    probe_timeout: float | None = None

    def __post_init__(self) -> None:
        require_non_negative(self.max_retries, "max_retries")
        require_non_negative(self.backoff_base, "backoff_base")
        require_positive(self.backoff_factor, "backoff_factor")
        if self.transfer_timeout is not None:
            require_positive(self.transfer_timeout, "transfer_timeout")
        require_positive(self.degrade_after_failures, "degrade_after_failures")
        require_positive(self.probe_interval, "probe_interval")
        require_positive(self.probe_bytes, "probe_bytes")
        if self.probe_timeout is not None:
            require_positive(self.probe_timeout, "probe_timeout")

    def backoff(self, attempt: int) -> float:
        """Wait before retry number ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor**attempt

    @property
    def effective_probe_timeout(self) -> float | None:
        """Probe timeout, defaulting to the transfer timeout."""
        return (
            self.probe_timeout if self.probe_timeout is not None
            else self.transfer_timeout
        )
