"""The asyncio serving transport: one event loop instead of a thread per connection.

:class:`AsyncTcpServerTransport` speaks exactly the same JSON-lines wire
protocol as :class:`~repro.harmony.transport.TcpServerTransport` (batch
frames, ``seq`` echo, frame cap — all via :mod:`repro.harmony.protocol`),
so the two are interchangeable behind any client.  The differences are all
about throughput under many connections:

* **no per-connection thread** — each connection is a coroutine on one
  event loop, so 32 clients cost 32 small tasks, not 32 OS threads
  contending for the GIL between syscalls;
* **bounded backpressure** — the stream reader's buffer is capped at the
  protocol frame limit, and every response write awaits ``drain()``, so a
  slow or malicious peer can neither balloon input memory nor let the
  output buffer grow without bound;
* **graceful drain** — :meth:`stop` closes the listener, gives live
  connections ``drain_timeout`` seconds to finish in-flight requests and
  disconnect, and only then cancels the stragglers.

The event loop runs on a dedicated daemon thread so the transport exposes
the same synchronous ``start()``/``stop()``/context-manager surface as the
threaded server, and so one process can host it next to ordinary blocking
code (the CLI, tests, benchmarks).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.harmony import binproto, protocol
from repro.harmony.server import TuningServer
from repro.harmony.transport import (
    _set_nodelay,
    finish_admission,
    plan_admission,
    prepare_items,
    respond_frames,
    respond_prepared,
)

__all__ = ["AsyncTcpServerTransport"]

#: dispatch workers when admission control is on — enough overlap for the
#: pending-work budget to be a real queue-depth measure, few enough that
#: the GIL-bound handlers don't thrash
_ADMISSION_WORKERS = 4


class AsyncTcpServerTransport:
    """Hosts a :class:`TuningServer` on an asyncio TCP server.

    Pass ``port=0`` to bind a free port (available as :attr:`port` after
    :meth:`start`).  ``max_line_bytes`` caps one wire frame;
    ``drain_timeout`` bounds how long :meth:`stop` waits for live
    connections to finish before cancelling them; ``wire="binary"``
    (default) sniffs JSON lines and binary frames per frame on one port,
    ``wire="json"`` answers binary frames with an error.
    """

    def __init__(
        self,
        server: TuningServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        drain_timeout: float = 2.0,
        wire: str = "binary",
    ) -> None:
        if wire not in ("binary", "json"):
            raise ValueError(f"wire must be 'binary' or 'json', got {wire!r}")
        self.server = server
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.max_line_bytes = max_line_bytes
        self.drain_timeout = drain_timeout
        self.wire = wire
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._aserver: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: dispatch pool, created at start() iff the server has an
        #: admission controller.  Inline dispatch keeps the event loop as
        #: the implicit queue — work backs up invisibly in socket buffers.
        #: Offloading makes admitted-but-unfinished chunks *countable*, so
        #: the pending-work budget bounds real queue depth and excess
        #: chunks shed with ``busy`` at arrival instead of waiting forever.
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start serving on a background event loop."""
        if self._loop is not None:
            raise RuntimeError("transport already started")
        if getattr(self.server, "admission", None) is not None:
            self._pool = ThreadPoolExecutor(
                max_workers=_ADMISSION_WORKERS, thread_name_prefix="aio-dispatch"
            )
        loop = asyncio.new_event_loop()
        self._loop = loop
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(started.set)
            loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        started.wait(timeout=5.0)
        future = asyncio.run_coroutine_threadsafe(self._open(), loop)
        try:
            future.result(timeout=10.0)
        except Exception:
            self._teardown_loop()
            raise

    async def _open(self) -> None:
        self._aserver = await asyncio.start_server(
            self._handle_conn,
            self.host,
            self._requested_port,
            limit=self.max_line_bytes,
        )
        self.port = self._aserver.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Stop accepting, drain live connections, then shut the loop down."""
        loop = self._loop
        if loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        try:
            future.result(timeout=self.drain_timeout + 10.0)
        finally:
            self._teardown_loop()
            # Durability epilogue: appends whose connection died before its
            # group commit must hit disk before stop() returns.
            flush = getattr(self.server, "flush_wal", None)
            if flush is not None:
                flush()

    def _teardown_loop(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
        if loop is not None and not loop.is_running():
            loop.close()
        self._aserver = None

    async def _shutdown(self) -> None:
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        tasks = {t for t in self._conn_tasks if not t.done()}
        if tasks:
            # Grace period: clients finishing their in-flight request and
            # closing exit their coroutine on their own.
            _done, pending = await asyncio.wait(tasks, timeout=self.drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._conn_tasks.clear()

    def __enter__(self) -> "AsyncTcpServerTransport":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the per-connection coroutine ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            _set_nodelay(sock)
        splitter = binproto.FrameSplitter(self.max_line_bytes)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                items = splitter.feed(chunk)
                if not items:
                    continue
                # One write + drain per recv chunk: a pipelined burst of
                # frames costs one syscall's worth of response flushing.
                if self._pool is None:
                    payload, closing = respond_frames(
                        self.server, items, self.wire, self.max_line_bytes
                    )
                    if payload:
                        writer.write(payload)
                        await writer.drain()  # backpressure: never outrun the peer
                else:
                    # Admission control: price and admit (or shed) at
                    # *arrival*, on the loop thread, then dispatch on the
                    # pool.  The granted units stay charged until the
                    # responses are built, so the budget measures the
                    # queue: waiting for a worker, dispatch, modeled service
                    # time, and WAL commit.  They are returned before the
                    # reply is written (as in the threaded transport), so a
                    # client that has read its reply never sees them
                    # pending.
                    prepared = prepare_items(items, self.max_line_bytes)
                    flags, grants = plan_admission(self.server, prepared)
                    try:
                        loop = asyncio.get_running_loop()
                        payload, closing = await loop.run_in_executor(
                            self._pool, respond_prepared, self.server,
                            prepared, flags, self.wire, self.max_line_bytes,
                        )
                    finally:
                        finish_admission(self.server, grants)
                    if payload:
                        writer.write(payload)
                        await writer.drain()
                if closing:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy teardown
                pass
