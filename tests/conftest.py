"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.fec.rse import RSECodec
from repro.galois.field import GF16, GF256, GF65536


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator; reseed per test for reproducibility."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(params=[GF16, GF256, GF65536], ids=["GF16", "GF256", "GF65536"])
def field(request):
    """The three standard fields, parametrised."""
    return request.param


@pytest.fixture
def small_codec() -> RSECodec:
    """The paper's favourite configuration: k = 7 with 3 parities."""
    return RSECodec(k=7, h=3)


def random_packets(rng: np.random.Generator, count: int, size: int = 64) -> list[bytes]:
    """Helper used across FEC tests: ``count`` random packets of ``size``."""
    return [rng.bytes(size) for _ in range(count)]


def udp_drops() -> dict[int, int]:
    """Kernel drop counts of this process's open UDP sockets, by local port.

    The ``drops`` column of ``/proc/net/udp`` and ``/proc/net/udp6``
    counts the datagrams the kernel discarded at a socket -- a full
    receive buffer, mostly.  Sockets are matched to this process through
    the inodes behind ``/proc/self/fd``.  Empty off Linux.
    """
    inodes = set()
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return {}
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    drops: dict[int, int] = {}
    for table in ("/proc/net/udp", "/proc/net/udp6"):
        try:
            with open(table) as rows:
                lines = rows.read().splitlines()[1:]
        except FileNotFoundError:
            continue
        for line in lines:
            fields = line.split()
            if int(fields[9]) in inodes:
                port = int(fields[1].rsplit(":", 1)[1], 16)
                drops[port] = drops.get(port, 0) + int(fields[12])
    return drops
