"""End-host processing rates and throughput: protocol N2 vs NP (Section 5).

The paper models per-packet processing *time* at the sender and at a
receiver for two protocols — N2, the NAK-based no-FEC protocol of Towsley,
Kurose and Pingali, and NP, the paper's hybrid-ARQ protocol — and defines
the achievable end-system throughput as the reciprocal of the slower side
(Equation 9).  This module implements Equations (10)-(16) verbatim.

All times are in **seconds**; rates are packets/second (helpers convert to
the packets/msec units of Figures 17 and 18).  The default constants are
the paper's DECstation 5000/200 measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.integrated import expected_transmissions_lower_bound
from repro.analysis.nofec import expected_transmissions
from repro.analysis.rounds import (
    expected_rounds,
    geometric_tail_stats,
    receiver_rounds_tail_stats,
)

__all__ = [
    "ProcessingCosts",
    "PAPER_COSTS",
    "RateReport",
    "n2_rates",
    "np_rates",
    "throughput_comparison",
]


@dataclass(frozen=True)
class ProcessingCosts:
    """Per-operation processing times (seconds) — the appendix constants.

    Attributes map to the paper's variables:

    * ``packet_send`` / ``packet_receive`` — E[Xp], E[Yp] (2 KB data packet)
    * ``nak_sender`` — E[Xn], processing a NAK at the sender
    * ``nak_transmit`` — E[Yn], building + sending a NAK at a receiver
    * ``nak_receive`` — E[Y'n], receiving another receiver's NAK
    * ``timer`` — E[Xt] = E[Yt], (re)scheduling a suppression timer
    * ``encode_constant`` — c_e, per data-packet per-parity encoding cost
    * ``decode_constant`` — c_d, per reconstructed-packet decoding cost
    """

    packet_send: float = 1000e-6
    packet_receive: float = 1000e-6
    nak_sender: float = 500e-6
    nak_transmit: float = 500e-6
    nak_receive: float = 500e-6
    timer: float = 24e-6
    encode_constant: float = 700e-6
    decode_constant: float = 720e-6

    def without_encoding(self) -> "ProcessingCosts":
        """Costs with pre-encoded parities (c_e removed from the hot path)."""
        return replace(self, encode_constant=0.0)


#: The constants used throughout Section 5.
PAPER_COSTS = ProcessingCosts()


@dataclass(frozen=True)
class RateReport:
    """Sender/receiver processing rates and resulting throughput (pkts/s)."""

    sender_rate: float
    receiver_rate: float
    expected_transmissions: float

    @property
    def throughput(self) -> float:
        """Equation (9): min of sender and receiver processing rates."""
        return min(self.sender_rate, self.receiver_rate)

    def in_packets_per_msec(self) -> tuple[float, float, float]:
        """(sender, receiver, throughput) in the figures' pkts/msec units."""
        return (
            self.sender_rate / 1000.0,
            self.receiver_rate / 1000.0,
            self.throughput / 1000.0,
        )


def n2_rates(
    p: float,
    n_receivers: float,
    costs: ProcessingCosts = PAPER_COSTS,
) -> RateReport:
    """Equations (10)-(11): processing rates of the no-FEC protocol N2.

    Sender: every one of the E[M] transmissions of a packet costs E[Xp], and
    each retransmission is triggered by one (suppressed) NAK costing E[Xn].
    Receiver: receives E[M](1-p) copies, originates 1/R of the NAKs and
    hears the rest, and keeps a suppression timer alive for rounds > 2.
    """
    expected_m = expected_transmissions(p, n_receivers)
    sender_time = (
        expected_m * costs.packet_send
        + (expected_m - 1.0) * costs.nak_sender
    )
    prob_tail, conditional_tail = geometric_tail_stats(p)
    receiver_time = (
        expected_m * (1.0 - p) * costs.packet_receive
        + (expected_m - 1.0)
        * (
            costs.nak_transmit / n_receivers
            + (n_receivers - 1.0) / n_receivers * costs.nak_receive
        )
        + prob_tail * (conditional_tail - 2.0) * costs.timer
    )
    return RateReport(1.0 / sender_time, 1.0 / receiver_time, expected_m)


def np_rates(
    p: float,
    k: int,
    n_receivers: float,
    costs: ProcessingCosts = PAPER_COSTS,
    pre_encoded: bool = False,
    nak_per_missing_packet: bool = False,
) -> RateReport:
    """Equations (13)-(16): processing rates of the hybrid-ARQ protocol NP.

    Sender: encodes ``k (E[M]-1)`` parities per TG at ``c_e`` each (zero if
    ``pre_encoded``), transmits E[M] packets per data packet and handles one
    NAK per round, amortised over the TG (``(E[T]-1)/k``).
    Receiver: receives E[M](1-p) packets, handles its share of the per-round
    NAK traffic, runs suppression timers for rounds beyond 2 and decodes an
    average of ``k p`` lost packets per TG at ``c_d`` each.

    The implementation charges the same: ``NPRepairMachine`` encodes the
    parity rows a round sends and no others
    (:meth:`repro.fec.block.BlockEncoder.encode_parities`), and a decode
    rebuilds only the erased data packets.

    ``nak_per_missing_packet=True`` evaluates the paper's side experiment
    where feedback is *not* aggregated per round: the per-NAK terms scale by
    the expected number of missing packets per round instead of 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    expected_m = expected_transmissions_lower_bound(k, p, n_receivers)
    expected_t = expected_rounds(p, k, n_receivers)

    encode_time = 0.0 if pre_encoded else k * (expected_m - 1.0) * costs.encode_constant
    nak_rounds = expected_t - 1.0
    if nak_per_missing_packet:
        # one NAK per missing packet instead of one per round: the k·p
        # first-round losses dominate the feedback volume.
        nak_rounds = max(nak_rounds, k * p * expected_t)

    sender_time = (
        encode_time
        + expected_m * costs.packet_send
        + (nak_rounds / k) * costs.nak_sender
    )

    prob_tail, conditional_tail = receiver_rounds_tail_stats(p, k)
    decode_time = k * p * costs.decode_constant
    receiver_time = (
        expected_m * (1.0 - p) * costs.packet_receive
        + (nak_rounds / k)
        * (
            costs.nak_transmit / n_receivers
            + (n_receivers - 1.0) / n_receivers * costs.nak_receive
        )
        + prob_tail * (conditional_tail - 2.0) * costs.timer
        + decode_time
    )
    return RateReport(1.0 / sender_time, 1.0 / receiver_time, expected_m)


def throughput_comparison(
    p: float,
    k: int,
    n_receivers: float,
    costs: ProcessingCosts = PAPER_COSTS,
) -> dict[str, float]:
    """Figure 18's three curves at one population size (pkts/msec)."""
    n2 = n2_rates(p, n_receivers, costs)
    np_online = np_rates(p, k, n_receivers, costs, pre_encoded=False)
    np_pre = np_rates(p, k, n_receivers, costs, pre_encoded=True)
    return {
        "N2": n2.throughput / 1000.0,
        "NP": np_online.throughput / 1000.0,
        "NP pre-encode": np_pre.throughput / 1000.0,
    }
