"""`repro.net` — the real asyncio UDP transport for the NP recovery loop.

The simulator (`repro.sim` + `repro.protocols`) models the paper's
protocols under a controlled clock; this package runs the same packet
vocabulary over real datagram sockets:

* :mod:`repro.net.wire` — byte-level frame codec: versioned header, type
  discriminator, CRC-32 over the whole frame, strict decode that rejects
  garbage with a typed :class:`~repro.net.wire.FrameError`.
* :mod:`repro.net.supervision` — :class:`~repro.net.supervision.NetConfig`
  plus the robustness machinery: pacing/backpressure, per-group NAK
  solicitation with seeded exponential backoff and a bounded retry budget
  (a :class:`~repro.campaign.retry.RetryPolicy`).
* :mod:`repro.net.session` — per-session sender state machine, multiplexed
  by session id so one server serves many concurrent transfer groups.
* :mod:`repro.net.endpoints` — the endpoints:
  :class:`~repro.net.endpoints.NetServer` and
  :func:`~repro.net.endpoints.fetch`.
* :mod:`repro.net.udp` — the one UDP read path every endpoint and the
  proxy use: a non-blocking socket drained on every wake-up.
* :mod:`repro.net.chaos` — a seeded chaos datagram proxy for
  deterministic robustness testing without a real WAN.

Failures reuse the simulator's typed taxonomy
(:class:`~repro.resilience.errors.TransferTimeout` /
:class:`~repro.resilience.errors.TransferStalled`, each carrying a
:class:`~repro.resilience.report.StallReport`).  See DESIGN.md section 14
and docs/PROTOCOL.md for the wire format and session state machines.
"""

from repro.net.chaos import ChaosPlan, ChaosProxy, FaultSchedule
from repro.net.endpoints import FetchResult, NetServer, fetch
from repro.net.session import SenderSession, SessionReport
from repro.net.supervision import NakScheduler, NetConfig, Pacer
from repro.net.wire import (
    Frame,
    FrameError,
    decode_frame,
    encode_frame,
    frame_kind,
)

__all__ = [
    "ChaosPlan",
    "ChaosProxy",
    "FaultSchedule",
    "FetchResult",
    "Frame",
    "FrameError",
    "NakScheduler",
    "NetConfig",
    "NetServer",
    "Pacer",
    "SenderSession",
    "SessionReport",
    "decode_frame",
    "encode_frame",
    "fetch",
    "frame_kind",
]
