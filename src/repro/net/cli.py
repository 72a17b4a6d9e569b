"""``serve`` / ``fetch`` subcommands for ``python -m repro.experiments``.

The experiments driver routes its first positional here when it is one of
the transport verbs::

    python -m repro.experiments serve --bind 127.0.0.1:9000 --size 65536
    python -m repro.experiments fetch --connect 127.0.0.1:9000 --out got.bin

Exit-code convention (shared with the figure driver): bad arguments —
unparsable ``HOST:PORT``, an impossible geometry, a missing payload — print
usage and return 2; a transfer that *fails* (timeout, stall, ejection)
returns 1 with the typed failure's diagnosis on stderr; success returns 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys

import numpy as np

__all__ = ["main", "parse_address"]

COMMANDS = ("serve", "fetch")


def parse_address(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT``; raises ``ValueError`` with a usable message."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port {port_text!r} is not an integer") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} outside 0..65535")
    return host, port


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Serve a payload over the repro.net UDP transport.",
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="listen address (port 0 picks a free port; default %(default)s)",
    )
    payload = parser.add_mutually_exclusive_group()
    payload.add_argument(
        "--file", metavar="PATH", help="payload file to serve"
    )
    payload.add_argument(
        "--size",
        type=int,
        metavar="BYTES",
        help="serve a seeded random payload of BYTES instead of a file",
    )
    parser.add_argument("--k", type=int, default=8, help="TG size (default 8)")
    parser.add_argument(
        "--h", type=int, default=16, help="parities per TG (default 16)"
    )
    parser.add_argument(
        "--packet-size", type=int, default=1024, help="payload bytes/packet"
    )
    parser.add_argument("--seed", type=int, default=0, help="transport seed")
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for SECONDS then exit (default: until interrupted)",
    )
    return parser


def _fetch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fetch",
        description="Fetch a payload from a repro.net server.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="server address",
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write the fetched bytes to PATH"
    )
    parser.add_argument(
        "--group", type=int, default=0, help="session group tag (default 0)"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="overall transfer deadline (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0, help="transport seed")
    return parser


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_serve(argv: list[str]) -> int:
    from repro.net.endpoints import NetServer
    from repro.net.supervision import NetConfig

    parser = _serve_parser()
    args = parser.parse_args(argv)
    try:
        bind = parse_address(args.bind)
    except ValueError as exc:
        return _usage_error(parser, f"--bind: {exc}")
    if args.file is not None:
        path = pathlib.Path(args.file)
        if not path.is_file():
            return _usage_error(parser, f"--file: {path} does not exist")
        data = path.read_bytes()
    elif args.size is not None:
        if args.size < 1:
            return _usage_error(parser, "--size must be >= 1")
        data = np.random.default_rng(args.seed).bytes(args.size)
    else:
        return _usage_error(parser, "give --file PATH or --size BYTES")
    try:
        config = NetConfig(
            k=args.k,
            h=args.h,
            packet_size=args.packet_size,
            seed=args.seed,
        )
    except ValueError as exc:
        return _usage_error(parser, str(exc))

    async def run() -> None:
        server = NetServer(data, config, bind=bind)
        host, port = await server.start()
        print(f"serving {len(data)} bytes on {host}:{port}", flush=True)
        try:
            await server.serve(duration=args.duration)
        finally:
            await server.close()
            for report in server.reports:
                print(json.dumps(report.to_json()))

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _run_fetch(argv: list[str]) -> int:
    from repro.net.endpoints import fetch
    from repro.net.supervision import NetConfig
    from repro.resilience.errors import TransferError

    parser = _fetch_parser()
    args = parser.parse_args(argv)
    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        return _usage_error(parser, f"--connect: {exc}")
    if args.deadline <= 0:
        return _usage_error(parser, "--deadline must be positive")
    config = NetConfig(seed=args.seed)
    try:
        result = asyncio.run(
            fetch(
                host,
                port,
                config=config,
                group=args.group,
                deadline=args.deadline,
            )
        )
    except TransferError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result.to_json()))
    if args.out is not None:
        pathlib.Path(args.out).write_bytes(result.data)
        print(f"wrote {len(result.data)} bytes to {args.out}")
    return 0 if result.complete else 1


def main(argv: list[str]) -> int:
    """Entry point for the ``serve``/``fetch`` verbs; returns an exit code."""
    command, rest = argv[0], argv[1:]
    try:
        if command == "serve":
            return _run_serve(rest)
        if command == "fetch":
            return _run_fetch(rest)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags / bad values; keep the driver
        # convention of *returning* the code so callers can assert on it
        return int(exc.code or 0)
    raise ValueError(f"unknown net command {command!r}")  # pragma: no cover
