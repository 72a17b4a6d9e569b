"""Event-driven reliable-multicast protocol implementations.

* :mod:`repro.protocols.np_protocol` — protocol **NP**, the paper's hybrid
  ARQ with parity retransmission and per-TG NAKs (Section 5.1), whose
  sender and receiver drive :mod:`repro.protocols.np_machine`, the
  machines the sockets run too;
* :mod:`repro.protocols.n2` — the no-FEC baseline **N2**;
* :mod:`repro.protocols.layered` — FEC layer beneath a retransmitting RM
  layer (Section 3.1);
* :mod:`repro.protocols.fec1` — **Integrated FEC 1**, the feedback-free
  parity-tail scheme with receiver departure (Section 4.2);
* :mod:`repro.protocols.adaptive` — adaptive proactive redundancy on top
  of NP (the paper's Equation-6 ``a``, driven by observed feedback);
* :mod:`repro.protocols.harness` — end-to-end transfer runner + metrics.
"""

from repro.protocols.adaptive import AdaptiveNPSender, AdaptiveParityController
from repro.protocols.fec1 import Fec1Receiver, Fec1Sender, GroupMembership
from repro.protocols.feedback import NakSlotter, SlotterStats
from repro.protocols.harness import PROTOCOLS, TransferReport, run_transfer
from repro.protocols.layered import LayeredReceiver, LayeredSender
from repro.protocols.n2 import N2Receiver, N2Sender
from repro.protocols.np_protocol import NPConfig, NPReceiver, NPSender
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    Retransmission,
    SelectiveNak,
    checksum_of,
    payload_intact,
)

__all__ = [
    "NPConfig",
    "NPSender",
    "NPReceiver",
    "N2Sender",
    "N2Receiver",
    "LayeredSender",
    "LayeredReceiver",
    "Fec1Sender",
    "Fec1Receiver",
    "GroupMembership",
    "AdaptiveNPSender",
    "AdaptiveParityController",
    "NakSlotter",
    "SlotterStats",
    "run_transfer",
    "TransferReport",
    "PROTOCOLS",
    "DataPacket",
    "ParityPacket",
    "Poll",
    "Nak",
    "SelectiveNak",
    "Retransmission",
    "GroupAbort",
    "checksum_of",
    "payload_intact",
]
