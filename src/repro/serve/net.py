"""The network serving plane: an asyncio wire in front of `DiffusionService`.

Everything below the socket already existed — batched engine, shared-
memory pools, compiled kernels, the micro-batching
:class:`~repro.serve.service.DiffusionService` — but clients had to share
a process.  :class:`DiffusionServer` puts a real transport on top,
stdlib-only, speaking two framings of the **same codec**
(:mod:`repro.serve.protocol`) over one TCP port:

* **NDJSON** — one JSON request per line in, one JSON reply per line
  out.  Replies come back **in each client's request order** (a later
  cheap query never overtakes an earlier expensive one on the same
  connection), which is what lets a client correlate replies positionally
  even without ``id`` fields.
* **HTTP/1.1** — ``POST /`` (or ``POST /v1/cluster``) with the identical
  JSON request object as the body; the reply is the identical JSON reply
  object, status-coded from the structured error (200/400/404/405/413/
  429/503).  Keep-alive is honoured.  The framing is sniffed from the first
  line of each connection, so both dialects share the port.

Every request frame is bounded by :data:`MAX_FRAME` bytes: an NDJSON line,
an HTTP request or header line, the HTTP header block and the HTTP body.
A longer frame, or an HTTP ``Content-Length`` that is not a non-negative
integer, is answered with a structured 413 (or 400) after the replies the
connection already owes, and the connection closes: the stream cannot be
resynchronised past it.  The close lingers: the server half-closes, then
discards what the client still sends until its EOF or
:data:`LINGER_SECONDS`, so the client reads its reply and a clean EOF
rather than a reset.

Multi-tenancy is enforced *between* the socket and the service:

* **Per-client queues, drained round-robin** — each connection has its
  own admission queue; a central loop admits at most one request per
  client per pass, so seven interactive clients each get every eighth
  admission slot no matter how deep the eighth (bulk) client's backlog is.
* **Token-bucket rate limiting** (``rate``/``burst``) and a **per-client
  in-flight cap** (``max_inflight``) bound how much service capacity one
  connection can hold at once.
* **Backpressure** — a client whose admission queue is full gets an
  immediate structured 429 reply instead of unbounded buffering.
* **Priority end-to-end** — a request's ``"priority"`` class rides
  through admission into the service's micro-batcher unchanged, so
  ``"bulk"`` work still yields to interactive work *inside* a batch.
* **Graceful drain** — :meth:`DiffusionServer.close` stops accepting,
  answers late arrivals with 503, finishes every admitted request,
  flushes every reply in order, then closes the connections.

The server *fronts* a :class:`DiffusionService`; it does not own it.
Construct both (the service may be shared with in-process clients), or
use the common pattern::

    async with DiffusionService(graph, workers=4) as service:
        async with DiffusionServer(service, port=0) as server:
            host, port = server.address
            ...

Results over the wire are bit-identical to in-process
:func:`repro.core.local_cluster` — the transport only moves the same
:class:`~repro.engine.executor.JobOutcome` fields (ask for
``"include_cluster": true`` to receive the member vertices).
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.options import ClusterRequest, RequestError
from .protocol import error_reply, outcome_reply, parse_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import DiffusionService

__all__ = ["DiffusionServer", "ServerStats", "MAX_FRAME", "LINGER_SECONDS"]

#: Largest request frame the server reads, in bytes: asyncio's default
#: ``StreamReader`` limit, which every connection's reader is built with.
MAX_FRAME = 64 * 1024

#: Longest a connection lingers after a frame rejection, in seconds.
#: Closing a socket with input unread makes the kernel send a reset,
#: which can destroy the 413/400 reply before the client reads it; so the
#: server half-closes and discards input until the client's EOF, closing
#: at this deadline a client that keeps sending.
LINGER_SECONDS = 2.0

#: request-line verbs that flip a fresh connection into HTTP mode.
_HTTP_VERBS = frozenset(
    (b"GET", b"HEAD", b"POST", b"PUT", b"DELETE", b"OPTIONS", b"PATCH")
)

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _too_large(what: str) -> RequestError:
    return RequestError(
        None, f"{what} exceeds the {MAX_FRAME}-byte request frame limit", code=413
    )


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next line (``b""`` at EOF).  A line over :data:`MAX_FRAME`
    bytes raises a 413 `RequestError`; asyncio raises a bare ``ValueError``
    there and drops what it had buffered of the line."""
    try:
        return await reader.readline()
    except ValueError:
        raise _too_large("a line") from None


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """After a flushed rejection: half-close, then discard input until the
    client's EOF or :data:`LINGER_SECONDS`, so the close sends no reset."""

    async def discard() -> None:
        while await reader.read(MAX_FRAME):
            pass

    try:
        if writer.can_write_eof():
            writer.write_eof()
        await asyncio.wait_for(discard(), LINGER_SECONDS)
    except (asyncio.TimeoutError, OSError, RuntimeError):
        pass  # the deadline, or a client already gone


async def _read_http_request(
    reader: asyncio.StreamReader, line: bytes
) -> tuple[str, str, bool, bytes]:
    """Read the rest of one HTTP/1.x request after its request ``line``;
    returns ``(verb, target, keep_alive, body)``.

    A request the connection cannot continue past raises `RequestError`:
    a malformed request line or ``Content-Length`` (400), or a line, a
    header block or a declared body over :data:`MAX_FRAME` bytes (413) —
    the body is never read in that case.
    """
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise RequestError(None, "malformed HTTP request line")
    verb, target, version = parts
    headers: dict[str, str] = {}
    size = 0
    while True:
        header = await _read_line(reader)
        if header in (b"\r\n", b"\n", b""):
            break
        size += len(header)
        if size > MAX_FRAME:
            raise _too_large("the header block")
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise RequestError(
            None, f"Content-Length must be a non-negative integer, got {declared!r}"
        )
    length = int(declared)
    if length > MAX_FRAME:
        raise _too_large(f"a {length}-byte body")
    body = await reader.readexactly(length) if length else b""
    keep_alive = (
        headers.get("connection", "").lower() != "close"
        and version.upper() == "HTTP/1.1"
    )
    return verb, target, keep_alive, body


@dataclass
class ServerStats:
    """Aggregate counters over the server's lifetime."""

    connections: int = 0
    requests: int = 0
    replies: int = 0
    rejected: int = 0
    admitted: int = 0
    by_priority: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        per_priority = " ".join(
            f"{name}={count}" for name, count in sorted(self.by_priority.items())
        )
        return (
            f"connections={self.connections} requests={self.requests} "
            f"replies={self.replies} rejected={self.rejected} "
            f"admitted={self.admitted}" + (f" ({per_priority})" if per_priority else "")
        )


class _TokenBucket:
    """Continuous-refill token bucket; ``rate=None`` never limits."""

    def __init__(self, rate: float | None, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now

    def _refill(self, now: float) -> None:
        if self.rate is None:
            return
        self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = now

    def try_take(self, now: float) -> bool:
        if self.rate is None:
            return True
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def next_token_in(self, now: float) -> float:
        """Seconds until a token is available (0 when one already is)."""
        if self.rate is None:
            return 0.0
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class _Pending:
    """One request awaiting admission into the service."""

    request: ClusterRequest
    outcome: "asyncio.Future[Any]"


class _Client:
    """Per-connection state: the admission queue and its fairness knobs."""

    def __init__(self, name: str, bucket: _TokenBucket) -> None:
        self.name = name
        self.bucket = bucket
        self.pending: deque[_Pending] = deque()
        self.inflight = 0
        self.request_counter = 0  # source of default (positional) reply ids
        self.closed = False
        self.writer: asyncio.StreamWriter | None = None
        self.replies: "asyncio.Queue[asyncio.Future[dict] | None] | None" = None
        self.writer_task: "asyncio.Task[None] | None" = None


class DiffusionServer:
    """Asyncio TCP front-end multiplexing socket clients onto one service.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.DiffusionService` requests are
        submitted to.  The server fronts it but does not own it — close
        the server first, then the service.
    host, port:
        Listen address.  ``port=0`` (default) binds an ephemeral port;
        read :attr:`address` after :meth:`start`.
    max_pending:
        Per-client admission-queue depth.  A client with this many
        requests awaiting admission gets structured 429 replies
        (backpressure) instead of unbounded buffering.
    max_inflight:
        Per-client cap on requests admitted into the service but not yet
        answered.  Bounds how much of the micro-batcher one connection
        can occupy.
    rate, burst:
        Per-client token-bucket admission rate (requests/second) and
        bucket depth.  ``rate=None`` (default) does not rate-limit;
        ``burst`` defaults to ``max(1, rate)``.
    default_method:
        Method for requests that do not name one (mirrors
        ``repro serve --method``).
    """

    def __init__(
        self,
        service: "DiffusionService",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 64,
        max_inflight: int = 8,
        rate: float | None = None,
        burst: float | None = None,
        default_method: str = "pr-nibble",
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for unlimited)")
        if burst is not None and burst < 1:
            raise ValueError("burst must be >= 1")
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.max_inflight = max_inflight
        self.rate = rate
        self.burst = burst if burst is not None else (max(1.0, rate) if rate else 1.0)
        self.default_method = default_method
        self.stats = ServerStats()
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._clients: dict[int, _Client] = {}
        self._next_client = 0
        self._rr = 0
        self._wake: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._admission_task: "asyncio.Task[None] | None" = None
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "DiffusionServer":
        """Bind the socket and start the admission loop."""
        if self._server is not None:
            return self
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_FRAME
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._admission_task = loop.create_task(self._admission_loop())
        return self

    async def close(self) -> None:
        """Graceful drain: stop accepting, finish every admitted request,
        flush every reply in client order, then close the connections.

        Requests arriving *during* the drain are answered with a
        structured 503; requests already read are executed and answered.
        Safe to call more than once.  The underlying service is left
        running — close it separately.
        """
        if self._closed:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._wake is None:  # never started
            self._closed = True
            return
        # Finish everything already admitted or awaiting admission.
        self._wake.set()
        self._check_idle()
        assert self._idle is not None
        await self._idle.wait()
        # Flush per-connection reply queues in order, then force EOF on
        # the readers by closing the transports.
        for client in list(self._clients.values()):
            if client.replies is not None:
                client.replies.put_nowait(None)
            if client.writer_task is not None:
                await client.writer_task
            if client.writer is not None:
                client.writer.close()
        # Readers observe EOF and unregister themselves; wait for that.
        while self._clients:
            await asyncio.sleep(0)
        if self._admission_task is not None:
            self._admission_task.cancel()
            try:
                await self._admission_task
            except asyncio.CancelledError:
                pass
            self._admission_task = None
        self._closed = True

    async def __aenter__(self) -> "DiffusionServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _register(self) -> _Client:
        loop = asyncio.get_running_loop()
        self._next_client += 1
        client = _Client(
            f"client-{self._next_client}",
            _TokenBucket(self.rate, self.burst, loop.time()),
        )
        self._clients[self._next_client] = client
        self.stats.connections += 1
        return client

    def _unregister(self, client: _Client) -> None:
        client.closed = True
        # Requests never admitted are dropped with their connection; the
        # admission loop skips entries whose outcome future is done.
        while client.pending:
            entry = client.pending.popleft()
            if not entry.outcome.done():
                entry.outcome.cancel()
        for key, value in list(self._clients.items()):
            if value is client:
                del self._clients[key]
        self._check_idle()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining or self._closed:
            # Accepted before the listener closed, scheduled after the
            # drain began: close before reading anything, so the drain
            # never races a connection it cannot see in self._clients.
            writer.close()
            return
        first: bytes | RequestError
        try:
            first = await _read_line(reader)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except RequestError as error:
            # Too long to sniff the framing from: answered as NDJSON.
            first = error
        if isinstance(first, bytes) and not first.strip():
            writer.close()
            return
        client = self._register()
        client.writer = writer
        try:
            if (
                isinstance(first, bytes)
                and first.split(b" ", 1)[0] in _HTTP_VERBS
                and b"HTTP/1." in first
            ):
                await self._serve_http(client, reader, writer, first)
            else:
                await self._serve_ndjson(client, reader, writer, first)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-frame; nothing left to answer
        finally:
            self._unregister(client)
            writer.close()

    # ------------------------------------------------------------------
    # Ingestion (shared by both framings)
    # ------------------------------------------------------------------
    def _ingest(
        self, client: _Client, frame: str | RequestError
    ) -> "asyncio.Future[dict]":
        """Parse + validate one request; returns a future reply object.

        ``frame`` is the request text, or the error of a frame that could
        not be read (it is counted and answered like any rejection).
        Replies resolve out of admission order (a rejected request's
        reply is ready immediately); the per-framing writers serialize
        them back into request order.
        """
        loop = asyncio.get_running_loop()
        reply: "asyncio.Future[dict]" = loop.create_future()
        client.request_counter += 1
        request_id: Any = client.request_counter
        self.stats.requests += 1
        try:
            if isinstance(frame, RequestError):
                raise frame
            try:
                payload = json.loads(frame)
            except json.JSONDecodeError as error:
                raise RequestError(
                    None, f"request is not valid JSON: {error}"
                ) from None
            # Echo the client's id even when the payload is structurally
            # invalid — it is what lets a pipelining client match the
            # error back to the request it sent.
            if isinstance(payload, dict) and payload.get("id") is not None:
                request_id = payload["id"]
            request = parse_request(payload, default_method=self.default_method)
            if self._draining:
                raise RequestError(
                    None, "server is draining; no further requests", code=503
                )
            request.validate(num_vertices=self.service.num_vertices)
            if len(client.pending) >= self.max_pending:
                raise RequestError(
                    None,
                    f"queue full: {self.max_pending} requests already pending "
                    "admission on this connection; retry after a reply",
                    code=429,
                )
        except RequestError as error:
            self.stats.rejected += 1
            reply.set_result(error_reply(error, request_id))
            return reply

        outcome: "asyncio.Future[Any]" = loop.create_future()
        include_cluster = request.include_cluster

        def _resolve(done: "asyncio.Future[Any]") -> None:
            if reply.done():  # connection torn down
                return
            if done.cancelled():
                reply.set_result(
                    error_reply(
                        RequestError(None, "request dropped during shutdown", code=503),
                        request_id,
                    )
                )
            elif done.exception() is not None:
                reply.set_result(error_reply(done.exception(), request_id))
            else:
                reply.set_result(
                    outcome_reply(request_id, done.result(), include_cluster)
                )

        outcome.add_done_callback(_resolve)
        client.pending.append(_Pending(request, outcome))
        assert self._wake is not None and self._idle is not None
        self._idle.clear()
        self._wake.set()
        return reply

    # ------------------------------------------------------------------
    # Round-robin admission
    # ------------------------------------------------------------------
    def _check_idle(self) -> None:
        if self._idle is None:
            return
        busy = any(
            client.pending or client.inflight for client in self._clients.values()
        )
        if busy:
            self._idle.clear()
        else:
            self._idle.set()

    def _admit(self, client: _Client, entry: _Pending) -> None:
        request = entry.request
        try:
            service_future = self.service.submit(
                request.job(),
                priority=request.priority,
                graph_version=request.graph_version,
            )
        except Exception as error:  # service closing under us
            if not entry.outcome.done():
                entry.outcome.set_exception(error)
            return
        client.inflight += 1
        self.stats.admitted += 1
        self.stats.by_priority[request.priority] = (
            self.stats.by_priority.get(request.priority, 0) + 1
        )

        def _done(done: "asyncio.Future[Any]") -> None:
            client.inflight -= 1
            self.stats.replies += 1
            assert self._wake is not None
            self._wake.set()
            self._check_idle()
            if entry.outcome.done():
                return
            if done.cancelled():
                entry.outcome.cancel()
            elif done.exception() is not None:
                entry.outcome.set_exception(done.exception())
            else:
                entry.outcome.set_result(done.result())

        service_future.add_done_callback(_done)

    async def _admission_loop(self) -> None:
        """The fairness core: one admission per admissible client per pass.

        A pass visits the clients in rotating order (the rotation start
        advances every pass) and admits **at most one** queued request
        from each client that has admission capacity — a token in its
        bucket and in-flight headroom.  A client with a thousand queued
        bulk requests therefore gets exactly the same admission slots per
        pass as a client with one queued interactive request; depth buys
        nothing.  When no client is admissible the loop sleeps until a
        submission/completion wakes it, or until the nearest token-bucket
        refill matures.
        """
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while True:
            progressed = False
            next_refill: float | None = None
            clients = [c for c in self._clients.values() if not c.closed]
            if clients:
                start = self._rr % len(clients)
                self._rr += 1
                now = loop.time()
                for client in clients[start:] + clients[:start]:
                    while client.pending and client.pending[0].outcome.done():
                        client.pending.popleft()  # dropped with its connection
                    if not client.pending:
                        continue
                    if client.inflight >= self.max_inflight:
                        continue
                    # A drain finishes what was accepted as fast as the
                    # service allows; rate limits only shape steady state.
                    if not self._draining and not client.bucket.try_take(now):
                        wait = client.bucket.next_token_in(now)
                        if next_refill is None or wait < next_refill:
                            next_refill = wait
                        continue
                    self._admit(client, client.pending.popleft())
                    progressed = True
            self._check_idle()
            if progressed:
                await asyncio.sleep(0)  # let ingestion/writers interleave
                continue
            self._wake.clear()
            # Re-check before sleeping: a submission may have landed
            # between the last pass and the clear.
            if any(c.pending and c.inflight < self.max_inflight for c in clients):
                if next_refill is None:
                    continue
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=next_refill)
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    # NDJSON framing
    # ------------------------------------------------------------------
    async def _serve_ndjson(
        self,
        client: _Client,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes | RequestError,
    ) -> None:
        client.replies = asyncio.Queue()
        client.writer_task = asyncio.get_running_loop().create_task(
            self._reply_writer(client.replies, writer)
        )
        frame = first
        try:
            while True:
                if isinstance(frame, RequestError):
                    # A line over MAX_FRAME: answered after the replies
                    # already owed, then the connection closes.
                    await client.replies.put(self._ingest(client, frame))
                    break
                if not frame:  # EOF
                    break
                text = frame.decode("utf-8", errors="replace").strip()
                if text:
                    # Enqueued at *read* time: replies stream back in this
                    # connection's request order, whatever order they
                    # resolve.
                    await client.replies.put(self._ingest(client, text))
                try:
                    frame = await _read_line(reader)
                except RequestError as error:
                    frame = error
        finally:
            await client.replies.put(None)
            if not self._draining:
                # EOF path: flush what this client is owed, then stop.
                await client.writer_task
                client.writer_task = None
        if isinstance(frame, RequestError) and client.writer_task is None:
            await _linger(reader, writer)  # the rejection is flushed

    async def _reply_writer(
        self,
        replies: "asyncio.Queue[asyncio.Future[dict] | None]",
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            item = await replies.get()
            if item is None:
                return
            reply = await item
            try:
                writer.write(json.dumps(reply).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionError, RuntimeError):
                return  # client hung up; drop the rest of its replies

    # ------------------------------------------------------------------
    # HTTP/1.1 framing
    # ------------------------------------------------------------------
    async def _serve_http(
        self,
        client: _Client,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes,
    ) -> None:
        line: bytes | None = first
        while True:
            try:
                if line is None:
                    line = await _read_line(reader)
                    if not line.strip():
                        break
                verb, target, keep_alive, body = await _read_http_request(
                    reader, line
                )
            except RequestError as error:
                # A request the stream cannot continue past: answer, close.
                reply = await self._ingest(client, error)
                await self._write_http(writer, reply, close=True)
                await _linger(reader, writer)
                return
            line = None
            if verb != "POST":
                reply = error_reply(
                    RequestError(
                        None,
                        f"{verb} is not supported; POST a request object to "
                        "/v1/cluster",
                        code=405,
                    )
                )
            elif target not in ("/", "/v1/cluster"):
                reply = error_reply(
                    RequestError(
                        None, f"no such endpoint {target!r}; POST to /v1/cluster",
                        code=404,
                    )
                )
            else:
                # HTTP is request/reply per exchange, so awaiting here is
                # what preserves this connection's reply order.
                reply = await self._ingest(client, body.decode("utf-8", "replace"))
            await self._write_http(writer, reply, close=not keep_alive)
            if not keep_alive:
                return

    async def _write_http(
        self, writer: asyncio.StreamWriter, reply: dict, close: bool = False
    ) -> None:
        status = 200
        if "error" in reply:
            status = int(reply["error"].get("code", 400))
        reason = _HTTP_REASONS.get(status, "Error")
        body = json.dumps(reply).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
