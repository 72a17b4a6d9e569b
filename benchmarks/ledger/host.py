"""The host-speed kernel (numpy only: the parent runs it too).

The sandbox's processor changes speed by half within a run (README.md, "Host
speed"), so the ledger times a fixed piece of work next to everything it
measures and states its timing metrics at a reference speed.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.ledger.metrics import SPIN_REF_MS

_TABLE = (np.arange(65536) % 251).astype(np.uint8).reshape(256, 256)
_INDEX = (np.arange(65536) * 7 % 256).astype(np.uint8)


def spin() -> float:
    """Milliseconds the kernel took just now.

    Half interpreter loop, half numpy table look-ups and XORs on 64 KiB
    rows -- the two things the program spends its CPU time on.
    """
    started = time.perf_counter()
    total = 0
    for value in range(40_000):
        total += value * value % 7
    acc = np.zeros(65536, dtype=np.uint8)
    for row in range(48):
        acc ^= _TABLE[row][_INDEX]
    return (time.perf_counter() - started) * 1e3


def at_reference_speed(cpu_seconds: float, spin_ms: float) -> float:
    """CPU seconds as a host of the reference speed would have spent them,
    given what the kernel took around them."""
    return cpu_seconds * SPIN_REF_MS / spin_ms
