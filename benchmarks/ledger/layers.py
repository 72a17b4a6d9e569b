"""Per-layer numbers for the traced run: trial read-outs and layer replays.

Two sources, both outside the program:

* ``from_trial`` reads one traced trial: the harness spans around the public
  calls, the counts on the public reports, and the counters the program
  already keeps under ``repro.obs.capture()``;
* ``replay`` drives each layer's public API alone, on exactly the packets
  (count, size, loss share) the trial pushed through it, and times that.

A layer's time is returned as a share of the traced trial's wall time, so
the shares of a net trial plus ``net.residual_share`` add up to one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np

from benchmarks.ledger import spans as span_tools
from repro import obs
from repro.analysis.throughput import ProcessingCosts, np_rates
from repro.fec import BlockDecoder, BlockEncoder, create_codec, join_stream
from repro.mc import PAPER_TIMING, StreamingMoments
from repro.mc.integrated import sample_chunk_rounds
from repro.mc.sharded import replication_rng, run_sharded
from repro.net import NakScheduler, NetServer, Pacer, decode_frame, encode_frame, fetch
from repro.protocols.packets import (
    DataPacket,
    Nak,
    ParityPacket,
    Poll,
    checksum_of,
    payload_symbols,
)

clock = time.perf_counter

#: harness span name -> the share it feeds
_SPAN_SHARES = {
    "net.server.start": "net.server_start_share",
    "net.fetch": "net.fetch_share",
    "net.server.close": "net.server_close_share",
    "sim.run_transfer": "sim.run_share",
    "mc.run_sharded": "mc.run_share",
    "fec.encode_blocks": "fec.encode_share",
    "fec.decode.hit": "fec.decode_hit_share",
    "fec.decode.miss": "fec.decode_miss_share",
}


def _timed(function, *args):
    started = clock()
    result = function(*args)
    return clock() - started, result


def _sum_obs(registry, name: str, attribute: str = "value", **match) -> float:
    """Sum one instrument over every label set that matches ``match``."""
    total = 0.0
    for (instrument_name, labels), instrument in registry:
        if instrument_name != name:
            continue
        labels = dict(labels)
        if all(labels.get(key) == str(value) for key, value in match.items()):
            total += getattr(instrument, attribute)
    return total


# ----------------------------------------------------------------------
# one traced trial
# ----------------------------------------------------------------------
def from_trial(wall, cpu, outcome, registry, trial_span, spans) -> dict:
    """Per-layer values of one verified traced trial."""
    detail = outcome.detail
    values = {
        "trial.wall_s": wall,
        "trial.self_s": span_tools.self_time(trial_span, spans),
        "trial.cpu_share": cpu / wall,
    }
    seconds = span_tools.seconds_by_name(trial_span, spans)
    for name, metric in _SPAN_SHARES.items():
        if name in seconds:
            values[metric] = seconds[name] / wall
    for name in (
        "net.naks_rx", "net.stale_naks", "net.rounds_served", "net.repolls",
        "net.arq_fallbacks", "nak.retries", "nak.exhaustions",
        "chaos.forwarded", "chaos.dropped", "sim.events",
        "protocols.naks_sent", "protocols.naks_suppressed",
        "protocols.parity_sent", "protocols.codec_symbols_multiplied",
        "mc.replications", "mc.ci95_halfwidth",
    ):
        if name in detail:
            values[name] = detail[name]
    for kind in ("data", "parity", "poll"):
        values[f"net.frames_tx.{kind}"] = _sum_obs(
            registry, "net.frames_tx", kind=kind
        )

    # galois: the kernel's own clock and counters, kept by the program
    kernel = _sum_obs(registry, "galois.kernel_seconds", "sum")
    terms = _sum_obs(registry, "galois.product_terms")
    values["galois.matmul_share"] = kernel / wall
    values["galois.matmul_calls"] = _sum_obs(registry, "galois.matmul_calls")
    values["galois.product_terms"] = terms
    if kernel > 0:
        values["galois.mterms_per_s"] = terms / kernel / 1e6

    # fec: harness spans where the harness calls the codec itself
    # (codec_k100), the program's rse.* spans where it sits inside a transfer
    decode = seconds.get("fec.decode.hit", 0.0) + seconds.get("fec.decode.miss", 0.0)
    encode = seconds.get("fec.encode_blocks", 0.0)
    if not decode:
        decode = _sum_obs(registry, "span.duration_seconds", "sum", span="rse.decode")
    if not encode:
        encode = _sum_obs(registry, "span.duration_seconds", "sum", span="rse.encode")
    values["fec.decode_share"] = decode / wall
    reconstructed = detail.get("reconstructed") or _sum_obs(
        registry, "rse.packets_reconstructed"
    )
    if decode > 0:
        values["fec.decode_pps"] = reconstructed / decode
    encoded = detail.get("encoded") or _sum_obs(
        registry, "rse.blocks_encoded"
    ) * detail.get("k", 0)
    if encode > 0 and encoded:
        values["fec.encode_pps"] = encoded / encode
    hits = detail.get("cache_hits", _sum_obs(registry, "rse.decode_cache", outcome="hit"))
    misses = detail.get(
        "cache_misses", _sum_obs(registry, "rse.decode_cache", outcome="miss")
    )
    if hits + misses:
        values["fec.inverse_cache_hit_ratio"] = hits / (hits + misses)
    return values


# ----------------------------------------------------------------------
# layer replays
# ----------------------------------------------------------------------
def replay(workload, trial: dict) -> dict:
    """Drive each layer the workload crosses alone, on the trial's traffic."""
    if workload.name in ("net_bulk", "net_repair"):
        return _replay_net(workload, trial)
    if workload.name == "sim_np":
        return _replay_sim(workload, trial)
    if workload.name == "mc_rounds":
        return _replay_mc(workload, trial)
    return {}


def _cycle(items, count: int):
    for index in range(int(count)):
        yield items[index % len(items)]


def _replay_net(workload, trial: dict) -> dict:
    config, members = workload.config, workload.receivers
    wall, layer = trial["wall"], trial["layer"]
    k, h = config.k, config.h
    codec = create_codec(config.codec, k, h)
    values: dict[str, float] = {}

    # fec.block: slicing the stream into TGs, handing out the data packets
    def frame():
        encoder = BlockEncoder(
            workload.payload, k, h, config.packet_size, codec, pre_encode=False
        )
        return encoder, [
            encoder.data_packet(tg, index)
            for tg in range(len(encoder))
            for index in range(k)
        ]

    frame_s, (encoder, payloads) = _timed(frame)
    values["fec.frame_share"] = frame_s / wall

    # fec codec: what pre_encode=True adds when the session is created
    groups = [group.data for group in encoder.groups]
    encode_s, parities = _timed(codec.encode_many, groups)
    values["fec.encode_share"] = encode_s / wall
    values["fec.encode_pps"] = len(payloads) / encode_s
    lazy = groups[:64]
    lazy_encoder = BlockEncoder(
        b"".join(b"".join(group) for group in lazy), k, h, config.packet_size, codec
    )
    lazy_s, _ = _timed(
        lambda: [lazy_encoder.parity_packet(tg, 0) for tg in range(len(lazy))]
    )
    values["fec.parity_on_demand_pps"] = len(lazy) * h / lazy_s

    # net.wire: the server frames every packet once per member, every
    # member parses every frame that reaches it
    data_packets = [
        DataPacket(index // k, index % k, payload)
        for index, payload in enumerate(payloads)
    ]
    parity_packets = [
        ParityPacket(tg, k, group[0]) for tg, group in enumerate(parities)
    ]
    polls = [Poll(tg, k, 1) for tg in range(len(groups))]
    sent = {
        "data": layer["net.frames_tx.data"],
        "parity": layer["net.frames_tx.parity"],
        "poll": layer["net.frames_tx.poll"],
    }

    def wire_encode():
        return (
            [encode_frame(p, 1) for p in _cycle(data_packets, sent["data"])]
            + [encode_frame(p, 1) for p in _cycle(parity_packets, sent["parity"])]
            + [encode_frame(p, 1) for p in _cycle(polls, sent["poll"])]
        )

    encode_wire_s, frames = _timed(wire_encode)
    received = list(_cycle(frames, trial["detail"]["frames_received"]))
    decode_wire_s, _ = _timed(lambda: [decode_frame(f) for f in received])
    values["wire.encode_share"] = encode_wire_s / wall
    values["wire.decode_share"] = decode_wire_s / wall
    values["wire.encode_fps"] = len(frames) / encode_wire_s
    values["wire.decode_fps"] = len(received) / decode_wire_s
    data_frames = frames[: len(data_packets)]
    values["wire.overhead_ratio"] = sum(map(len, data_frames)) / sum(
        len(p.payload) for p in data_packets[: len(data_frames)]
    )

    # protocols.packets: decode_frame re-stamps a CRC on every payload it
    # parses, and the receiver hands each payload to the codec as a view
    delivered = (sent["data"] + sent["parity"]) * len(received) / max(1, len(frames))
    checksum_s, _ = _timed(
        lambda: [checksum_of(p) for p in _cycle(payloads, delivered)]
    )
    view_s, _ = _timed(
        lambda: [payload_symbols(p, codec.field) for p in _cycle(payloads, delivered)]
    )
    values["packets.checksum_share"] = checksum_s / wall
    values["packets.symbols_view_share"] = view_s / wall

    # fec.block on the receiving side: buffer, reconstruct, join the stream
    def reassemble():
        for _ in range(members):
            out = []
            for tg, group in enumerate(groups):
                decoder = BlockDecoder(k, codec)
                for index, payload in enumerate(group):
                    decoder.add(index, payload_symbols(payload, codec.field))
                out.append(decoder.reconstruct())
            join_stream(out, encoder.total_length)

    reassemble_s, _ = _timed(reassemble)
    values["fec.reassemble_share"] = reassemble_s / wall

    # net.supervision: the pacer's gate, once per multicast send; its idle
    # time is wall minus CPU, the loop turns it costs are in the floor below
    gated = int(sum(sent.values()) / members)
    loop = workload.loop
    pacer = Pacer(config.pace_interval, config.pace_burst)

    async def pace():
        for _ in range(gated):
            await pacer.gate()

    cpu = time.process_time()
    pace_s, _ = _timed(loop.run_until_complete, pace())
    values["pacer.sleep_share"] = max(0.0, pace_s - (time.process_time() - cpu)) / wall
    values["pacer.sleeps"] = pacer.sleeps

    # the same frames over bare asyncio datagram sockets: no repro code
    floor_s = loop.run_until_complete(
        _socket_floor(frames, members, config.pace_burst)
    )
    values["net.socket_floor_share"] = floor_s / wall

    # fixed cost of a session: join window, announce, fin handshake
    join_s = _clean_transfer(loop, config, workload.payload[: k * config.packet_size], members)
    values["net.join_share"] = join_s / wall

    # per-packet against per-byte cost: the same packet count at 64 B and 1 KiB
    probe = min(len(groups), 96)
    bulk = dataclasses.replace(config, pace_interval=0.0, pace_burst=1)
    times = {}
    for size in (64, 1024):
        cfg = dataclasses.replace(bulk, packet_size=size)
        times[size] = _clean_transfer(loop, cfg, workload.payload[: probe * k * size], 1)
    per_byte = max(0.0, times[1024] - times[64]) / (probe * k * 960)
    per_packet = max(1e-9, (times[64] - join_s) / (probe * k) - 64 * per_byte)
    values["net.per_byte_share"] = 1024 * per_byte / (per_packet + 1024 * per_byte)

    if workload.loss is not None:
        values.update(
            _np_model(
                workload, trial, frame_s, encode_wire_s, decode_wire_s,
                reassemble_s, floor_s, len(received),
            )
        )
    return values


async def _socket_floor(frames, members: int, burst: int) -> float:
    """Seconds to push ``frames`` through bare loopback datagram sockets."""
    loop = asyncio.get_running_loop()
    received = 0

    class Sink(asyncio.DatagramProtocol):
        def datagram_received(self, data, addr):
            nonlocal received
            received += 1

    sender, _ = await loop.create_datagram_endpoint(
        asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
    )
    sinks = [
        (await loop.create_datagram_endpoint(Sink, local_addr=("127.0.0.1", 0)))[0]
        for _ in range(members)
    ]
    addresses = [sink.get_extra_info("sockname") for sink in sinks]
    limit = loop.time() + 10.0

    async def drained(sent: int) -> None:
        # asyncio hands a socket one datagram per loop turn; the program's
        # pacer sleeps that long at a burst boundary, the floor just waits
        while received < sent:
            if loop.time() > limit:
                raise RuntimeError("socket floor: loopback lost a datagram")
            await asyncio.sleep(0)

    try:
        started = clock()
        # the server sends each member's copy back to back and yields at
        # the pacer's burst boundary
        for index in range(0, len(frames), members):
            for frame, address in zip(frames[index:index + members], addresses):
                sender.sendto(frame, address)
            if (index // members + 1) % burst == 0:
                await drained(min(index + members, len(frames)))
        await drained(len(frames))
        return clock() - started
    finally:
        sender.close()
        for sink in sinks:
            sink.close()


def _clean_transfer(loop, config, payload: bytes, members: int) -> float:
    """Wall seconds of one loss-free transfer of ``payload``."""

    async def transfer():
        server = NetServer(payload, config)
        address = await server.start()
        try:
            results = await asyncio.gather(
                *(fetch(*address, config=config) for _ in range(members))
            )
        finally:
            await server.close()
        if not all(r.complete and r.data == payload for r in results):
            raise RuntimeError("replay transfer delivered the wrong bytes")

    return _timed(loop.run_until_complete, transfer())[0]


def _np_model(
    workload, trial, frame_s, encode_wire_s, decode_wire_s, reassemble_s,
    floor_s, frames_received,
) -> dict:
    """The paper's Section-5 NP throughput from the replayed per-packet costs."""
    config, layer = workload.config, trial["layer"]
    multicast = (
        layer["net.frames_tx.data"] + layer["net.frames_tx.parity"]
    ) / workload.receivers
    naks = [Nak(tg, 1, 1) for tg in range(256)]
    nak_s, _ = _timed(lambda: [decode_frame(encode_frame(nak, 1)) for nak in naks])
    scheduler = NakScheduler(config.nak_retry, np.random.default_rng(0))

    def timers():
        for tg in range(256):
            scheduler.arm(tg, 0.0)
            scheduler.heard(tg, 0.0)

    timer_s, _ = _timed(timers)
    decode_share = layer.get("fec.decode_share", 0.0)
    reconstructed = layer.get("fec.decode_pps", 0.0) * decode_share * trial["wall"]
    costs = ProcessingCosts(
        packet_send=(frame_s + encode_wire_s + floor_s / 2) / multicast,
        packet_receive=(decode_wire_s + reassemble_s + floor_s / 2) / frames_received,
        nak_sender=nak_s / len(naks),
        nak_transmit=nak_s / len(naks),
        nak_receive=nak_s / len(naks),
        timer=timer_s / 512,
        encode_constant=0.0,
        decode_constant=(
            decode_share * trial["wall"] / (reconstructed * config.k)
            if reconstructed
            else 0.0
        ),
    )
    predicted = np_rates(
        workload.loss[0], config.k, workload.receivers, costs, pre_encoded=True
    ).throughput
    measured = trial["work"] / trial["wall"]
    return {
        "analysis.np_pps_predicted": predicted,
        "analysis.np_pps_ratio": measured / predicted,
    }


def _replay_sim(workload, trial: dict) -> dict:
    wall, detail = trial["wall"], trial["detail"]
    multicast = int(trial["transmitted"])
    sampler = workload.loss_model.start(np.random.default_rng(0))
    loss_s, _ = _timed(
        lambda: [sampler.sample(np.array([float(t)])) for t in range(multicast)]
    )
    # the sender stamps a CRC on every packet it sends and every receiver
    # checks the copies that reach it
    size = workload.config.packet_size
    payloads = [
        workload.payload[start:start + size]
        for start in range(0, len(workload.payload), size)
    ]
    checks = multicast * (1 + workload.receivers * (1 - workload.p))
    checksum_s, _ = _timed(lambda: [checksum_of(p) for p in _cycle(payloads, checks)])
    return {
        "sim.loss_sample_share": loss_s / wall,
        "packets.checksum_share": checksum_s / wall,
    }


def _replay_mc(workload, trial: dict) -> dict:
    wall = trial["wall"]
    root = np.random.SeedSequence(trial["detail"]["subseed"])
    reps = workload.reps

    def rngs():
        return (
            replication_rng(root.entropy, root.spawn_key, index)
            for index in range(reps)
        )

    chunk_s, samples = _timed(
        lambda: sample_chunk_rounds(
            workload.loss_model, PAPER_TIMING, rngs(), k=workload.k
        )
    )
    times = np.arange(workload.k) * PAPER_TIMING.packet_interval
    loss_s, _ = _timed(
        lambda: [workload.loss_model.start(rng).sample(times) for rng in rngs()]
    )

    def merge():
        half = len(samples) // 2
        left, right = StreamingMoments(), StreamingMoments()
        left.update_many(samples[:half])
        right.update_many(samples[half:])
        return left.merge(right)

    merge_s, _ = _timed(merge)
    values = {
        "mc.chunk_share": chunk_s / wall,
        "mc.loss_sample_share": loss_s / wall,
        "mc.merge_share": merge_s / wall,
    }
    if workload.pass_index == 0:
        # process fan-out as a count only: on two shared cores its wall
        # time measures the scheduler, not the estimator
        with obs.capture() as registry:
            run_sharded(
                "integrated_rounds",
                workload.loss_model,
                params={"k": workload.k},
                replications=8,
                jobs=2,
                rng=workload.seed,
            )
        values["mc.fanout_spawns"] = _sum_obs(registry, "campaign.attempts")
    return values
