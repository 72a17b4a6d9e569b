"""A tiny HTTP pull endpoint serving live metrics to curl / scrapers.

:class:`MetricsEndpoint` is a deliberately minimal HTTP/1.1 server —
``asyncio.start_server``, one request per connection, three routes:

* ``GET /metrics`` — OpenMetrics text (:func:`repro.obs.export.to_openmetrics`)
  for outside Prometheus scrapers
* ``GET /metrics.json`` — the snapshot's exact JSON form
  (``MetricsSnapshot.to_json``), what ``watch`` reads back
* ``GET /healthz`` — ``ok``

It mounts in two ways.  Inside an existing event loop (``NetServer``),
``await start()`` / ``await stop()`` share the host's loop.  Beside a
synchronous host (the campaign supervisor), :meth:`start_in_thread`
spins a daemon thread with its own loop and :meth:`stop_in_thread`
tears it down; the provider callable is then invoked from that thread
while the main thread keeps mutating the registry, so thread-mode hosts
should hand in a provider that reads a cached snapshot (the campaign
runner caches on every flush) — :meth:`_snapshot` additionally retries
the rare mutation-during-iteration race as a belt.

Binds to loopback by default and serves read-only data; this is an
operator convenience, not an authenticated API.  Stdlib-only.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable

from repro.obs.export import to_openmetrics
from repro.obs.metrics import MetricsSnapshot

__all__ = ["MetricsEndpoint"]

_OPENMETRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"
_REQUEST_TIMEOUT = 5.0


class MetricsEndpoint:
    """Serve live metric snapshots over HTTP; see the module docstring."""

    def __init__(
        self,
        provider: Callable[[], MetricsSnapshot] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._provider = provider
        self.host = host
        self.port = int(port)
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` once started."""
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    # ------------------------------------------------------------------
    def _snapshot(self) -> MetricsSnapshot:
        if self._provider is None:
            from repro.obs import runtime

            provider = runtime.snapshot
        else:
            provider = self._provider
        for attempt in (0, 1, 2):
            try:
                return provider()
            except RuntimeError:
                # registry dict mutated mid-snapshot by the host thread;
                # momentary by construction, so retry a couple of times
                if attempt == 2:
                    return MetricsSnapshot()
        return MetricsSnapshot()

    def _respond(self, path: str) -> tuple[int, str, str]:
        path = path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            return 200, _OPENMETRICS_TYPE, to_openmetrics(self._snapshot())
        if path == "/metrics.json":
            body = json.dumps(self._snapshot().to_json(), sort_keys=True)
            return 200, "application/json", body + "\n"
        if path == "/healthz":
            return 200, "text/plain; charset=utf-8", "ok\n"
        return 404, "text/plain; charset=utf-8", "not found\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    reader.readline(), _REQUEST_TIMEOUT
                )
            except asyncio.TimeoutError:
                return
            parts = request.decode("latin-1", "replace").split()
            if len(parts) < 2 or parts[0] != "GET":
                status, ctype, body = 405, "text/plain; charset=utf-8", (
                    "method not allowed\n"
                )
            else:
                status, ctype, body = self._respond(parts[1])
            # drain request headers so the peer never sees a reset mid-send
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), _REQUEST_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                if line in (b"", b"\r\n", b"\n"):
                    break
            payload = body.encode()
            reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}[
                status
            ]
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode()
            )
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # asyncio-host mode
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and serve on the current event loop; returns (host, port)."""
        if self._server is not None:
            raise RuntimeError("endpoint already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # ------------------------------------------------------------------
    # thread-host mode (synchronous supervisors)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> tuple[str, int]:
        """Run the endpoint on a dedicated daemon thread; returns (host, port)."""
        if self._thread is not None:
            raise RuntimeError("endpoint already started")
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._thread_loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors to the caller
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="obs-metrics-endpoint", daemon=True
        )
        self._thread.start()
        started.wait(timeout=10.0)
        if failure:
            self._thread = None
            self._thread_loop = None
            raise failure[0]
        return self.host, self.port

    def stop_in_thread(self) -> None:
        """Stop a thread-hosted endpoint and join its thread (idempotent)."""
        loop, thread = self._thread_loop, self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
        try:
            future.result(timeout=10.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            self._thread = None
            self._thread_loop = None
