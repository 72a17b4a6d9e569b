"""Names, units and run shape of the ledger (imports nothing of the program).

``BENCHMARK.json`` at the repo root repeats the names, units, directions and
bounds; ``test_ledger.py`` holds the two to each other.
"""

from __future__ import annotations

import statistics

#: fresh child processes per run; each gives one cold-start sample and a
#: window of trials, so a workload's samples are spread over the whole run
PASSES = 4
#: the traced run alternates untraced and traced trials, then replays the
#: layers, so it needs fewer windows
TRACED_PASSES = 2
#: share of a traced pass spent on trials; the rest is for the layer replays
TRACED_TRIAL_SHARE = 0.5

#: what the host-speed kernel (``host.spin``) takes on the reference host:
#: this sandbox in one of its middle speed states.  ``work_per_s``,
#: ``cpu_us_per_work`` and ``setup_s`` are given at this speed.
SPIN_REF_MS = 10.0

WORKLOADS = ("net_bulk", "net_repair", "codec_k100", "sim_np", "mc_rounds")

#: name -> unit, in the order they are printed
END_TO_END = {
    "work_per_s": "1/s",
    "cpu_us_per_work": "us",
    "tx_per_packet": "tx/pkt",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: name -> unit.  Every traced run prints every one of these, whichever
#: workload it ran, so a layer's time is given as a share of the traced
#: trial's wall time (0 where the workload never enters the layer) and
#: seconds are ``share * trial.wall_s``; only the three times that exist on
#: every workload keep a time unit.
PER_LAYER = {
    "trial.wall_s": "s",
    "trial.self_s": "s",
    "trial.cpu_share": "ratio",
    "obs.trace_overhead_share": "ratio",
    "host.spin_ms": "ms",
    "host.spin_iqr": "ratio",
    "host.nproc": "count",
    "host.loadavg": "load",
    "galois.matmul_share": "ratio",
    "galois.matmul_calls": "count",
    "galois.product_terms": "count",
    "galois.mterms_per_s": "M/s",
    "fec.encode_share": "ratio",
    "fec.encode_pps": "1/s",
    "fec.decode_share": "ratio",
    "fec.decode_hit_share": "ratio",
    "fec.decode_miss_share": "ratio",
    "fec.decode_pps": "1/s",
    "fec.inverse_cache_hit_ratio": "ratio",
    "fec.frame_share": "ratio",
    "fec.reassemble_share": "ratio",
    "fec.parity_on_demand_pps": "1/s",
    "packets.checksum_share": "ratio",
    "packets.symbols_view_share": "ratio",
    "wire.encode_share": "ratio",
    "wire.decode_share": "ratio",
    "wire.encode_fps": "1/s",
    "wire.decode_fps": "1/s",
    "wire.overhead_ratio": "ratio",
    "pacer.sleep_share": "ratio",
    "pacer.sleeps": "count",
    "nak.retries": "count",
    "nak.exhaustions": "count",
    "net.server_start_share": "ratio",
    "net.fetch_share": "ratio",
    "net.server_close_share": "ratio",
    "net.frames_tx.data": "count",
    "net.frames_tx.parity": "count",
    "net.frames_tx.poll": "count",
    "net.naks_rx": "count",
    "net.stale_naks": "count",
    "net.rounds_served": "count",
    "net.repolls": "count",
    "net.arq_fallbacks": "count",
    "net.join_share": "ratio",
    "net.fetches": "count",
    "net.fetch_tail_ratio": "ratio",
    "net.socket_floor_share": "ratio",
    "net.per_byte_share": "ratio",
    "net.residual_share": "ratio",
    "chaos.forwarded": "count",
    "chaos.dropped": "count",
    "sim.run_share": "ratio",
    "sim.events": "count",
    "sim.loss_sample_share": "ratio",
    "protocols.naks_sent": "count",
    "protocols.naks_suppressed": "count",
    "protocols.parity_sent": "count",
    "protocols.codec_symbols_multiplied": "count",
    "mc.run_share": "ratio",
    "mc.chunk_share": "ratio",
    "mc.loss_sample_share": "ratio",
    "mc.merge_share": "ratio",
    "mc.replications": "count",
    "mc.ci95_halfwidth": "tx/pkt",
    "mc.fanout_spawns": "count",
    "analysis.em_closed_form": "tx/pkt",
    "analysis.em_rel_err": "ratio",
    "analysis.np_pps_predicted": "1/s",
    "analysis.np_pps_ratio": "ratio",
}

#: the layers whose shares add up, with ``net.residual_share``, to a net
#: trial; ``galois.*`` sits inside ``fec.encode``/``fec.decode`` and
#: ``packets.*`` inside ``wire.decode``/``fec.reassemble``, so they are
#: printed beside the waterfall and not summed into it
NET_WATERFALL = (
    "net.join_share",
    "fec.frame_share",
    "fec.encode_share",
    "wire.encode_share",
    "pacer.sleep_share",
    "net.socket_floor_share",
    "wire.decode_share",
    "fec.decode_share",
    "fec.reassemble_share",
)


def median(values) -> float:
    return float(statistics.median(values))
