"""Bounded retry with exponential backoff + jitter.

The net transport's NAK and join retries (:class:`repro.net.NetConfig`'s
``nak_retry`` / ``join_retry``) use it.  Deliberately the same policy
*shape* as the NAK watchdog in
:class:`repro.protocols.np_protocol.NPConfig` (base interval,
multiplicative backoff >= 1, interval cap, jitter as a fraction of the
interval, bounded budget): one retry vocabulary on both clocks.  The
caller passes the jitter's generator, so a seeded transfer schedules
identical delays on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently a failed attempt is repeated.

    ``retries`` is the budget *after* the first attempt: at most
    ``retries + 1`` attempts are made.
    """

    retries: int = 1
    base_delay: float = 0.5
    backoff: float = 2.0
    max_delay: float = 30.0
    #: fraction of each interval randomized away (0 disables jitter);
    #: like the watchdog, jitter only ever *shortens* the wait, so
    #: ``max_delay`` stays a hard ceiling
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0:
            raise ValueError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Seconds to wait before re-running after failed ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        if self.base_delay == 0:
            return 0.0
        interval = self.base_delay * self.backoff ** (attempt - 1)
        if self.max_delay:
            interval = min(interval, self.max_delay)
        if self.jitter:
            interval *= 1.0 - self.jitter * float(rng.random())
        return interval
